// Package scip holds positive (pos.go) and negative (neg.go) fixtures
// for floatcmp's literal rule: raw tolerance literals in comparisons.
// The directory nests under internal/scip so the package path is in
// the solver core, the rule's scope.
package scip

import "math"

func feasible(ax, rhs float64) bool {
	return ax < rhs+1e-6 // WANT floatcmp
}

func sameBound(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9 // WANT floatcmp
}

func isFixed(lo, up float64) bool {
	return up-lo < 0.000001 // WANT floatcmp
}

func crossed(v, up float64) bool {
	if v > up+1e-7 { // WANT floatcmp
		return true
	}
	return false
}

func isNoise(x float64) bool {
	switch {
	case math.Abs(x) <= 1e-12: // WANT floatcmp
		return true
	}
	return false
}
