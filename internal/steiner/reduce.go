package steiner

import (
	"math"

	"repro/internal/graph"
)

// Trace records presolve operations so that a solution of the reduced
// instance can be mapped back to the original graph (SCIP-Jack's
// retransformation step).
type Trace struct {
	// Fixed are original-graph edges forced into every optimal solution
	// (degree-1 terminal contractions); their cost is in Offset.
	Fixed []int
	// Parent maps an edge created during reduction to the one or two
	// edges it replaces ([e, -1] for a moved edge, [e1, e2] for a path
	// contraction through a degree-2 vertex).
	Parent map[int][2]int
	// Offset is the total cost moved into fixed edges.
	Offset float64
}

// Expand maps edge indices of the reduced graph back to original edge
// indices, recursively unfolding reduction-created edges and appending
// the fixed edges.
func (t *Trace) Expand(edges []int) []int {
	var out []int
	seen := map[int]bool{}
	var rec func(e int)
	rec = func(e int) {
		if p, ok := t.Parent[e]; ok {
			rec(p[0])
			if p[1] >= 0 {
				rec(p[1])
			}
			return
		}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	for _, e := range edges {
		rec(e)
	}
	for _, e := range t.Fixed {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// ReduceStats reports what a reduction pass achieved.
type ReduceStats struct {
	EdgesDeleted    int
	VerticesDeleted int
	Contractions    int
	Rounds          int
}

// Reduce runs the presolve reduction loop on s in place: degree tests
// (with contractions), the long-edge/alternative-path test, and the
// restricted extended-reduction vertex test. Returns the trace needed to
// reconstruct original solutions plus statistics.
func Reduce(s *SPG, maxRounds int) (*Trace, *ReduceStats) {
	tr := &Trace{Parent: map[int][2]int{}}
	st := &ReduceStats{}
	if maxRounds <= 0 {
		maxRounds = 16
	}
	ps := newPathSearch(s.G)
	for round := 0; round < maxRounds; round++ {
		changed := false
		if degreeTests(s, tr, st) {
			changed = true
		}
		if longEdgeTest(s, ps, st, 0) {
			changed = true
		}
		if extendedVertexTest(s, ps, st, 0) {
			changed = true
		}
		st.Rounds = round + 1
		if !changed {
			break
		}
	}
	return tr, st
}

// ReduceLocal runs the deletion-only reduction tests used deep inside the
// branch-and-bound tree (the in-tree layer of the paper's extended
// reductions): no contractions, no new edges, so variable indices stay
// stable. Returns the number of edges deleted.
func ReduceLocal(s *SPG, budget int) int {
	before := s.G.AliveEdges()
	ps := newPathSearch(s.G)
	var st ReduceStats
	for round := 0; round < 4; round++ {
		changed := false
		if deleteOnlyDegreeTests(s) {
			changed = true
		}
		if longEdgeTest(s, ps, &st, budget) {
			changed = true
		}
		if extendedVertexTest(s, ps, &st, budget) {
			changed = true
		}
		if !changed {
			break
		}
	}
	return before - s.G.AliveEdges()
}

// deleteOnlyDegreeTests removes isolated and degree-1 non-terminals.
func deleteOnlyDegreeTests(s *SPG) bool {
	changed := false
	again := true
	for again {
		again = false
		for v := 0; v < s.G.NumVertices(); v++ {
			if !s.G.VertexAlive(v) || s.Terminal[v] {
				continue
			}
			if s.G.Degree(v) <= 1 {
				s.G.DeleteVertex(v)
				changed = true
				again = true
			}
		}
	}
	return changed
}

// degreeTests runs the contraction-based degree tests (presolve only).
func degreeTests(s *SPG, tr *Trace, st *ReduceStats) bool {
	changed := false
	again := true
	for again {
		again = false
		for v := 0; v < s.G.NumVertices(); v++ {
			if !s.G.VertexAlive(v) {
				continue
			}
			deg := s.G.Degree(v)
			switch {
			case !s.Terminal[v] && deg == 0:
				s.G.DeleteVertex(v)
				st.VerticesDeleted++
				changed, again = true, true
			case !s.Terminal[v] && deg == 1:
				s.G.DeleteVertex(v)
				st.VerticesDeleted++
				changed, again = true, true
			case !s.Terminal[v] && deg == 2:
				// Path contraction a–v–b → edge (a,b).
				var es [2]int
				var ws [2]int
				i := 0
				s.G.Adj(v, func(e, w int) bool {
					es[i], ws[i] = e, w
					i++
					return true
				})
				a, b := ws[0], ws[1]
				s.G.DeleteVertex(v)
				st.VerticesDeleted++
				if a != b {
					ne := s.G.AddEdge(a, b, origCost(s, es[0])+origCost(s, es[1]))
					tr.Parent[ne] = [2]int{es[0], es[1]}
				}
				changed, again = true, true
			case s.Terminal[v] && deg == 1 && s.NumTerminals() > 1:
				// Mandatory edge: contract the terminal into its neighbor.
				var fe, w int
				s.G.Adj(v, func(e, x int) bool { fe, w = e, x; return false })
				tr.Offset += origCost(s, fe)
				tr.Fixed = append(tr.Fixed, originalOf(tr, fe)...)
				s.G.DeleteVertex(v)
				s.Terminal[w] = true
				st.Contractions++
				changed, again = true, true
			}
		}
	}
	return changed
}

// origCost returns the cost of edge e (helper for readability).
func origCost(s *SPG, e int) float64 { return s.G.Cost(e) }

// originalOf expands one (possibly reduction-created) edge into the
// original edges it represents.
func originalOf(tr *Trace, e int) []int {
	if p, ok := tr.Parent[e]; ok {
		out := originalOf(tr, p[0])
		if p[1] >= 0 {
			out = append(out, originalOf(tr, p[1])...)
		}
		return out
	}
	return []int{e}
}

// pathSearch is the workspace of the reduction tests' shortest-path
// searches, allocated once per Reduce or ReduceLocal call: dist is +Inf
// except at the vertices listed in touched, which the next run resets.
type pathSearch struct {
	g       *graph.Graph
	dist    []float64
	touched []int
	pq      graph.DistHeap
}

func newPathSearch(g *graph.Graph) *pathSearch {
	n := g.NumVertices()
	ps := &pathSearch{
		g:       g,
		dist:    make([]float64, n),
		touched: make([]int, 0, n),
		pq:      make(graph.DistHeap, 0, n),
	}
	for i := range ps.dist {
		ps.dist[i] = math.Inf(1)
	}
	return ps
}

// run is Dijkstra from src over alive edges that never enters vertex
// avoid or edge skip (−1 for none) and never labels a vertex beyond
// limit. It stops as soon as every target is settled and reports whether
// all were; their distances stay in ps.dist until the next run. A settled
// label is final, so these are the distances the unbounded search finds.
func (ps *pathSearch) run(src, avoid, skip int, limit float64, targets []int) bool {
	for _, w := range ps.touched {
		ps.dist[w] = math.Inf(1)
	}
	ps.touched, ps.pq = ps.touched[:0], ps.pq[:0]
	g, dist := ps.g, ps.dist
	dist[src] = 0
	ps.touched = append(ps.touched, src)
	ps.pq.Push(graph.DistItem{V: src})
	all := uint(1)<<len(targets) - 1
	var settled uint
	for ps.pq.Len() > 0 {
		it := ps.pq.Pop()
		if it.Dist > dist[it.V]+1e-15 {
			continue
		}
		for i, t := range targets {
			if t == it.V {
				settled |= 1 << i
			}
		}
		if settled == all {
			return true
		}
		g.Adj(it.V, func(e, w int) bool {
			if e == skip || w == avoid {
				return true
			}
			if nd := it.Dist + g.Cost(e); nd <= limit && nd < dist[w]-1e-15 {
				if math.IsInf(dist[w], 1) {
					ps.touched = append(ps.touched, w)
				}
				dist[w] = nd
				ps.pq.Push(graph.DistItem{V: w, Dist: nd})
			}
			return true
		})
	}
	return false
}

// longEdgeTest deletes edge (u,v) when an alternative u–v path of length
// ≤ c(u,v) exists (a restricted special-distance test). budget > 0 caps
// the number of edges examined (for the in-tree layer).
func longEdgeTest(s *SPG, ps *pathSearch, st *ReduceStats, budget int) bool {
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
		if ps.run(ed.U, -1, e, ed.Cost+1e-12, []int{ed.V}) {
			s.G.DeleteEdge(e)
			st.EdgesDeleted++
			changed = true
		}
	}
	return changed
}

// extendedVertexTest is the restricted extended-reduction technique: a
// non-terminal v can be deleted when every tree that could pass through v
// has a cheaper replacement avoiding v. This is proven by enumerating the
// neighbor subsets S (the ways a tree can touch v) and checking that the
// minimum spanning tree over the v-free shortest-path distances of S
// never exceeds the star through v — examining a sufficient set of
// supergraphs of v exactly as the paper describes, albeit for small
// degrees only (≤ 5).
func extendedVertexTest(s *SPG, ps *pathSearch, st *ReduceStats, budget int) bool {
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
		var nbr [5]int
		var starCost [5]float64
		k := 0
		dup := false
		s.G.Adj(v, func(e, w int) bool {
			for _, x := range nbr[:k] {
				if x == w {
					dup = true
				}
			}
			nbr[k], starCost[k] = w, s.G.Cost(e)
			k++
			return true
		})
		if dup {
			continue // parallel edges: leave to the long-edge test
		}
		// Shortest-path distances between neighbors avoiding v.
		var d [5][5]float64
		if !neighborDistancesAvoiding(ps, v, nbr[:k], starCost[:k], &d) {
			continue
		}
		ok := true
		for mask := 3; mask < 1<<k && ok; mask++ {
			if popcount(mask) < 2 {
				continue
			}
			var star float64
			var sel [5]int
			m := 0
			for i := 0; i < k; i++ {
				if mask&(1<<i) != 0 {
					star += starCost[i]
					sel[m] = i
					m++
				}
			}
			if mstOver(&d, sel[:m]) > star+1e-12 {
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

func popcount(x int) int {
	c := 0
	for x > 0 {
		c += x & 1
		x >>= 1
	}
	return c
}

// neighborDistancesAvoiding fills d with the pairwise shortest-path
// distances among nbr in G∖{v}, searching from neighbor i no farther
// than c_i + max_j c_j + 1e-9 (c the star costs). It reports false when
// some neighbor j lies beyond that bound, unreachable included: then
// d_ij > c_i + c_j + 1e-12, the subset {i, j} fails, and v stays, as
// the unbounded search decides.
func neighborDistancesAvoiding(ps *pathSearch, v int, nbr []int, starCost []float64, d *[5][5]float64) bool {
	var maxCost float64
	for _, c := range starCost {
		maxCost = math.Max(maxCost, c)
	}
	for i, src := range nbr {
		if !ps.run(src, v, -1, starCost[i]+maxCost+1e-9, nbr) {
			return false
		}
		for j, w := range nbr {
			d[i][j] = ps.dist[w]
		}
	}
	return true
}

// mstOver computes the MST value of the complete graph on sel under d.
func mstOver(d *[5][5]float64, sel []int) float64 {
	k := len(sel)
	var in [5]bool
	var best [5]float64
	for i := 0; i < k; i++ {
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
