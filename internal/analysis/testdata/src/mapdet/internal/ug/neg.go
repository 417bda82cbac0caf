package ug

import "sort"

// minBound is a reduction over values where the guard compares the
// assigned value itself: every visit order converges to the same
// minimum.
func minBound(bounds map[int]float64) float64 {
	lb := 1.0e18
	for _, b := range bounds {
		if b < lb {
			lb = b
		}
	}
	return lb
}

// sortedKeys collects then sorts: the canonical deterministic pattern.
func sortedKeys(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// sortRanks sorts its argument; its summary records SortsArg.
func sortRanks(r []int) { sort.Ints(r) }

// helperSorted hands the collection to a module sorting helper instead
// of calling sort directly.
func helperSorted(m map[int]string) []int {
	var ranks []int
	for k := range m {
		ranks = append(ranks, k)
	}
	sortRanks(ranks)
	return ranks
}

// invert writes into slots addressed by the iteration values: each
// entry lands in the same place regardless of visit order.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// count uses integer arithmetic: exact and commutative.
func count(m map[int]bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// hasNegative sets a constant flag: true is true in every order.
func hasNegative(m map[int]float64) bool {
	found := false
	for _, v := range m {
		if v < 0 {
			found = true
		}
	}
	return found
}

// forGuardMin is a minimum whose guard is an enclosing for condition
// inside the range: the loop compares the assigned value.
func forGuardMin(m map[int]float64) float64 {
	lb := 1.0e18
	for _, b := range m {
		for lb > b {
			lb = b
		}
	}
	return lb
}

// branchSorted sorts the collection in one branch after the loop.
func branchSorted(m map[int]string, sorted bool) []int {
	var ranks []int
	for k := range m {
		ranks = append(ranks, k)
	}
	if sorted {
		sort.Ints(ranks)
	}
	return ranks
}
