// Package num centralizes the floating-point comparison discipline for
// the whole solver stack. LP pivots, SDP feasibility checks, and B&B
// bound comparisons all accumulate rounding error, so any comparison of
// computed values must state its tolerance explicitly; raw ==/!= is
// reserved for sentinel values and sparsity tests and must be spelled
// through the Exact*/Nonzero helpers so the intent is auditable. The
// floatcmp analyzer (internal/analysis) enforces this: it flags raw
// float comparisons everywhere except inside this package, and raw
// tolerance literals in solver-core comparisons, which must name the
// constants below.
package num

import "math"

// Canonical tolerances. These mirror the constants scattered through
// SCIP-style solvers: feasibility is looser than optimality, which is
// looser than numerical zero.
const (
	// FeasTol bounds primal feasibility violations (variable bounds,
	// row activities, integrality of candidate solutions).
	FeasTol = 1e-6
	// OptTol separates objective values and dual bounds: two bounds
	// closer than this are the same bound.
	OptTol = 1e-9
	// ZeroTol is the threshold below which an accumulated quantity is
	// numerical noise.
	ZeroTol = 1e-12
	// BoundCrossTol guards bound-crossing tests in branching (has a
	// child's bound crossed its parent's?): tighter than FeasTol so
	// stalled bounds are noticed, looser than OptTol so LP noise is not.
	BoundCrossTol = 1e-7
)

// Eq reports a ≈ b within absolute tolerance tol.
func Eq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Lt reports a < b by more than tol.
func Lt(a, b, tol float64) bool { return a < b-tol }

// Gt reports a > b by more than tol.
func Gt(a, b, tol float64) bool { return a > b+tol }

// Leq reports a ≤ b up to tol.
func Leq(a, b, tol float64) bool { return a <= b+tol }

// Geq reports a ≥ b up to tol.
func Geq(a, b, tol float64) bool { return a >= b-tol }

// IsZero reports |x| ≤ tol.
func IsZero(x, tol float64) bool { return math.Abs(x) <= tol }

// Integral reports that x is within tol of an integer.
func Integral(x, tol float64) bool { return math.Abs(x-math.Round(x)) <= tol }

// RelEq reports a ≈ b within tol scaled by the larger magnitude
// (falling back to absolute comparison near zero).
func RelEq(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// Exact comparisons: deliberate raw float equality, allowed only where
// the values are assigned, never computed — sparsity patterns, "unset"
// sentinels, tie-break comparators. Using these helpers instead of a
// bare operator is what marks the site as audited.

// ExactZero reports x == 0 exactly. Use for sparsity tests (an exact
// zero coefficient contributes nothing; a tiny nonzero still must be
// processed) and zero-valued "unset" sentinels.
func ExactZero(x float64) bool { return x == 0 }

// Nonzero reports x != 0 exactly; the complement of ExactZero for
// sparse iteration.
func Nonzero(x float64) bool { return x != 0 }

// ExactEq reports a == b exactly. Use when both sides are assigned
// values (branching bounds, heap tie-breaks) where tolerance would
// break trichotomy or transitivity.
func ExactEq(a, b float64) bool { return a == b }
