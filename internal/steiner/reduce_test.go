package steiner

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// The reference reduction tests: longEdgeTest and extendedVertexTest as
// they were before their searches became bounded, with an unbounded
// Dijkstra from every neighbor and a fresh map per edge. The production
// tests must leave exactly the graph these leave.

func refReduce(s *SPG, maxRounds int) (*Trace, *ReduceStats) {
	tr := &Trace{Parent: map[int][2]int{}}
	st := &ReduceStats{}
	if maxRounds <= 0 {
		maxRounds = 16
	}
	for round := 0; round < maxRounds; round++ {
		changed := false
		if degreeTests(s, tr, st) {
			changed = true
		}
		if refLongEdgeTest(s, st, 0) {
			changed = true
		}
		if refExtendedVertexTest(s, st, 0) {
			changed = true
		}
		st.Rounds = round + 1
		if !changed {
			break
		}
	}
	return tr, st
}

func refReduceLocal(s *SPG, budget int) int {
	before := s.G.AliveEdges()
	for round := 0; round < 4; round++ {
		changed := false
		if deleteOnlyDegreeTests(s) {
			changed = true
		}
		if refLongEdgeTest(s, &ReduceStats{}, budget) {
			changed = true
		}
		if refExtendedVertexTest(s, &ReduceStats{}, budget) {
			changed = true
		}
		if !changed {
			break
		}
	}
	return before - s.G.AliveEdges()
}

func refLongEdgeTest(s *SPG, st *ReduceStats, budget int) bool {
	changed := false
	examined := 0
	for e := 0; e < s.G.NumEdges(); e++ {
		if !s.G.EdgeAlive(e) {
			continue
		}
		if budget > 0 && examined >= budget {
			break
		}
		examined++
		ed := s.G.Edges[e]
		if refAltDistAtMost(s, ed.U, ed.V, e, ed.Cost) {
			s.G.DeleteEdge(e)
			st.EdgesDeleted++
			changed = true
		}
	}
	return changed
}

func refAltDistAtMost(s *SPG, u, v, skip int, limit float64) bool {
	dist := make(map[int]float64, 16)
	var pq graph.DistHeap
	pq.Push(graph.DistItem{V: u})
	dist[u] = 0
	for pq.Len() > 0 {
		it := pq.Pop()
		if it.Dist > dist[it.V]+1e-15 {
			continue
		}
		if it.V == v {
			return true
		}
		s.G.Adj(it.V, func(e, w int) bool {
			if e == skip {
				return true
			}
			nd := it.Dist + s.G.Cost(e)
			if nd > limit+1e-12 {
				return true
			}
			if old, ok := dist[w]; !ok || nd < old-1e-15 {
				dist[w] = nd
				pq.Push(graph.DistItem{V: w, Dist: nd})
			}
			return true
		})
	}
	return false
}

func refExtendedVertexTest(s *SPG, st *ReduceStats, budget int) bool {
	changed := false
	examined := 0
	for v := 0; v < s.G.NumVertices(); v++ {
		if !s.G.VertexAlive(v) || s.Terminal[v] {
			continue
		}
		deg := s.G.Degree(v)
		if deg < 2 || deg > 5 {
			continue
		}
		if budget > 0 && examined >= budget {
			break
		}
		examined++
		var nbr []int
		var starCost []float64
		dup := false
		s.G.Adj(v, func(e, w int) bool {
			for _, x := range nbr {
				if x == w {
					dup = true
				}
			}
			nbr = append(nbr, w)
			starCost = append(starCost, s.G.Cost(e))
			return true
		})
		if dup {
			continue
		}
		d := refNeighborDistancesAvoiding(s, v, nbr)
		if d == nil {
			continue
		}
		ok := true
		k := len(nbr)
		for mask := 3; mask < 1<<k && ok; mask++ {
			if popcount(mask) < 2 {
				continue
			}
			var star float64
			var sel []int
			for i := 0; i < k; i++ {
				if mask&(1<<i) != 0 {
					star += starCost[i]
					sel = append(sel, i)
				}
			}
			if refMstOver(d, sel) > star+1e-12 {
				ok = false
			}
		}
		if ok {
			s.G.DeleteVertex(v)
			st.VerticesDeleted++
			changed = true
		}
	}
	return changed
}

func refNeighborDistancesAvoiding(s *SPG, v int, nbr []int) [][]float64 {
	k := len(nbr)
	d := make([][]float64, k)
	for i := 0; i < k; i++ {
		di := refDijkstraAvoiding(s, nbr[i], v)
		d[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			d[i][j] = di[nbr[j]]
			if math.IsInf(d[i][j], 1) {
				return nil
			}
		}
	}
	return d
}

func refDijkstraAvoiding(s *SPG, src, av int) []float64 {
	n := s.G.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	var pq graph.DistHeap
	pq.Push(graph.DistItem{V: src})
	for pq.Len() > 0 {
		it := pq.Pop()
		if it.Dist > dist[it.V]+1e-15 {
			continue
		}
		s.G.Adj(it.V, func(e, w int) bool {
			if w == av || !s.G.VertexAlive(w) {
				return true
			}
			if nd := it.Dist + s.G.Cost(e); nd < dist[w]-1e-15 {
				dist[w] = nd
				pq.Push(graph.DistItem{V: w, Dist: nd})
			}
			return true
		})
	}
	return dist
}

func refMstOver(d [][]float64, sel []int) float64 {
	k := len(sel)
	in := make([]bool, k)
	best := make([]float64, k)
	for i := range best {
		best[i] = math.Inf(1)
	}
	best[0] = 0
	var total float64
	for cnt := 0; cnt < k; cnt++ {
		pick := -1
		for i := 0; i < k; i++ {
			if !in[i] && (pick < 0 || best[i] < best[pick]) {
				pick = i
			}
		}
		in[pick] = true
		total += best[pick]
		for i := 0; i < k; i++ {
			if !in[i] {
				if c := d[sel[pick]][sel[i]]; c < best[i] {
					best[i] = c
				}
			}
		}
	}
	return total
}

// sameGraph reports the first difference between two reduced copies of
// one instance: an edge (endpoints, cost, alive flag), a vertex's alive
// flag or a terminal flag.
func sameGraph(got, want *SPG) error {
	if got.G.NumEdges() != want.G.NumEdges() || got.G.NumVertices() != want.G.NumVertices() {
		return fmt.Errorf("%d edges, %d vertices; reference %d, %d",
			got.G.NumEdges(), got.G.NumVertices(), want.G.NumEdges(), want.G.NumVertices())
	}
	for e := range got.G.Edges {
		if got.G.Edges[e] != want.G.Edges[e] || got.G.EdgeAlive(e) != want.G.EdgeAlive(e) {
			return fmt.Errorf("edge %d: %+v alive %v; reference %+v alive %v",
				e, got.G.Edges[e], got.G.EdgeAlive(e), want.G.Edges[e], want.G.EdgeAlive(e))
		}
	}
	for v := range got.Terminal {
		if got.G.VertexAlive(v) != want.G.VertexAlive(v) || got.Terminal[v] != want.Terminal[v] {
			return fmt.Errorf("vertex %d: alive %v terminal %v; reference alive %v terminal %v",
				v, got.G.VertexAlive(v), got.Terminal[v], want.G.VertexAlive(v), want.Terminal[v])
		}
	}
	return nil
}

// ReduceMatchesReference runs Reduce(s, 0), ReduceLocal(s, 0),
// ReduceLocal(s, 7) and ReduceLocal(s, 400) on copies of s beside the
// reference tests and returns the first difference in what they leave,
// or nil. s itself is not changed. (Exported for the registry test in
// package steiner_test, which may import puc.)
func ReduceMatchesReference(s *SPG) error {
	got, want := s.Clone(), s.Clone()
	gtr, gst := Reduce(got, 0)
	wtr, wst := refReduce(want, 0)
	if err := sameGraph(got, want); err != nil {
		return fmt.Errorf("Reduce: %w", err)
	}
	if *gst != *wst || gtr.Offset != wtr.Offset || len(gtr.Fixed) != len(wtr.Fixed) || len(gtr.Parent) != len(wtr.Parent) {
		return fmt.Errorf("Reduce: stats %+v offset %v, %d fixed, %d parents; reference %+v offset %v, %d fixed, %d parents",
			*gst, gtr.Offset, len(gtr.Fixed), len(gtr.Parent), *wst, wtr.Offset, len(wtr.Fixed), len(wtr.Parent))
	}
	for _, budget := range []int{0, 7, 400} {
		got, want := s.Clone(), s.Clone()
		gn, wn := ReduceLocal(got, budget), refReduceLocal(want, budget)
		if err := sameGraph(got, want); err != nil {
			return fmt.Errorf("ReduceLocal budget %d: %w", budget, err)
		}
		if gn != wn {
			return fmt.Errorf("ReduceLocal budget %d: %d edges deleted; reference %d", budget, gn, wn)
		}
	}
	return nil
}

// The bounded, early-exit searches decide exactly as the unbounded
// reference on random instances, where both tests delete plenty (the
// registry instances, which resist reductions, are checked in
// reduce_puc_test.go).
func TestReduceMatchesReferenceRandom(t *testing.T) {
	deleted := 0
	for seed := int64(0); seed < 200; seed++ {
		n := 8 + int(seed%24)
		s := randomSPG(seed, n, n, 2+int(seed%5))
		if err := ReduceMatchesReference(s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := s.Clone()
		deleted += ReduceLocal(r, 0)
	}
	if deleted == 0 {
		t.Fatal("ReduceLocal deleted nothing on 200 random instances: the comparison is blind")
	}
}

// grid returns a w×w grid with costs in [1,10] and every seventh vertex a
// terminal: all degrees are at most four, so both reduction tests search
// from every non-terminal.
func grid(w int, seed int64) *SPG {
	rng := rand.New(rand.NewSource(seed))
	s := NewSPG(w * w)
	for v := 0; v < w*w; v++ {
		if v%w+1 < w {
			s.G.AddEdge(v, v+1, float64(1+rng.Intn(10)))
		}
		if v+w < w*w {
			s.G.AddEdge(v, v+w, float64(1+rng.Intn(10)))
		}
		s.Terminal[v] = v%7 == 0
	}
	return s
}

// ReduceLocal allocates its search workspace (three slices) once per
// call, not per vertex, edge or search, so the count does not grow with
// the graph.
func TestReduceLocalAllocsIndependentOfSize(t *testing.T) {
	const maxAllocs = 3
	for _, w := range []int{6, 12, 24} {
		s := grid(w, int64(w))
		Reduce(s, 0)
		if allocs := testing.AllocsPerRun(20, func() { ReduceLocal(s, 0) }); allocs > maxAllocs {
			t.Errorf("%d×%d grid: ReduceLocal made %.0f allocations, want at most %d", w, w, allocs, maxAllocs)
		}
	}
}
