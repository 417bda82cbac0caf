// Package ug holds positive (pos.go) and negative (neg.go) fixtures for
// the mapdet analyzer: map-iteration order leaking into solver
// decisions. The directory nests under internal/ug so the package path
// passes the analyzer's Applies filter.
package ug

import "path/filepath"

// argmaxRank is the racing-winner bug: on ties (or with best<0 as the
// only guard on the first iteration) the chosen rank depends on which
// key the randomized iterator produced first.
func argmaxRank(bounds map[int]float64) int {
	best := -1
	var bb float64
	for rank, b := range bounds {
		if best < 0 || b > bb {
			best = rank // WANT mapdet
			bb = b
		}
	}
	return best
}

// keyList collects keys in iteration order and never sorts them.
func keyList(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // WANT mapdet
	}
	return keys
}

// relayKeys itself contains no map range: mapdet is intraprocedural and
// reports the order dependence once, at keyList's append, so no finding
// is expected on this line.
func relayKeys(m map[string]int) []string {
	return keyList(m)
}

// total accumulates floats over the iteration: FP addition is not
// associative, so the sum depends on visit order.
func total(weights map[int]float64) float64 {
	sum := 0.0
	for _, w := range weights {
		sum += w // WANT mapdet
	}
	return sum
}

// snapshot is the checkpoint-layout bug: running subtrees dumped into a
// struct field in iteration order.
type snapshot struct {
	ranks []int
}

func dump(running map[int]string) snapshot {
	var s snapshot
	for rank := range running {
		s.ranks = append(s.ranks, rank) // WANT mapdet
	}
	return s
}

// derivedTaint assigns through a loop-local intermediary: taint follows
// the local into the outer assignment.
func derivedTaint(scores map[int]float64) int {
	pick := 0
	for id := range scores {
		candidate := id * 2
		if scores[id] > 0 {
			pick = candidate // WANT mapdet
		}
	}
	return pick
}

// nestedPick assigns the outer key and the inner value in one
// statement: one finding for the position, not one per loop or per
// variable.
func nestedPick(outer map[int]map[int]float64) (int, float64) {
	pick, best := 0, 0.0
	for i, inner := range outer {
		for j, w := range inner {
			if j > 0 {
				pick, best = i, w // WANT mapdet
			}
		}
	}
	return pick, best
}

// tupleLookup reads through a comma-ok lookup keyed by the iteration
// key: both results carry the key's order.
func tupleLookup(m map[int]bool, m2 map[int]float64) float64 {
	var last float64
	for k := range m {
		v, ok := m2[k]
		if ok {
			last = v // WANT mapdet
		}
	}
	return last
}

// declPick derives a local with a var declaration.
func declPick(m map[int]bool) int {
	pick := 0
	for k, on := range m {
		var x = k * 2
		if on {
			pick = x // WANT mapdet
		}
	}
	return pick
}

// switchPick assigns inside a switch case: the case value is not a
// comparison of the assigned key.
func switchPick(m map[int]int) int {
	pick := 0
	for k, v := range m {
		switch v {
		case 1:
			pick = k // WANT mapdet
		}
	}
	return pick
}

// selectPick assigns inside a select clause.
func selectPick(m map[int]int, ch chan int) int {
	pick := 0
	for k := range m {
		select {
		case ch <- k:
			pick = k // WANT mapdet
		default:
		}
	}
	return pick
}

// baseName passes the key through a standard-library call before an
// unguarded outer assignment: the last key visited wins.
func baseName(m map[string]int) string {
	name := ""
	for k := range m {
		name = filepath.Base(k) // WANT mapdet
	}
	return name
}
