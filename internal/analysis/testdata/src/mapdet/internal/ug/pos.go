// Package ug holds positive (pos.go) and negative (neg.go) fixtures for
// the mapdet analyzer: map-iteration order leaking into solver
// decisions. The directory nests under internal/ug so the package path
// passes the analyzer's Applies filter.
package ug

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
