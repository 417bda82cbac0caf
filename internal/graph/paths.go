package graph

import "math"

// Dijkstra computes shortest-path distances from the source set in the
// alive subgraph, optionally with per-edge cost overrides (nil uses the
// stored costs). It returns dist (math.Inf for unreachable) and predEdge
// (the edge used to reach each vertex, −1 at sources/unreached).
func (g *Graph) Dijkstra(sources []int, costs []float64) (dist []float64, predEdge []int) {
	n := g.NumVertices()
	dist = make([]float64, n)
	predEdge = make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		predEdge[i] = -1
	}
	var h DistHeap
	for _, s := range sources {
		if g.vertDead[s] {
			continue
		}
		dist[s] = 0
		h.Push(DistItem{s, 0})
	}
	for h.Len() > 0 {
		it := h.Pop()
		if it.Dist > dist[it.V] {
			continue
		}
		g.Adj(it.V, func(e, w int) bool {
			if g.vertDead[w] {
				return true
			}
			c := g.Edges[e].Cost
			if costs != nil {
				c = costs[e]
			}
			if nd := it.Dist + c; nd < dist[w]-1e-12 {
				dist[w] = nd
				predEdge[w] = e
				h.Push(DistItem{w, nd})
			}
			return true
		})
	}
	return dist, predEdge
}

// MSTPrim computes a minimum spanning tree of the alive subgraph induced
// by the vertex mask (nil means all alive vertices), returning the chosen
// edge indices and the total cost. If the induced subgraph is
// disconnected it spans only the component of the first masked vertex and
// reports ok=false.
func (g *Graph) MSTPrim(mask []bool) (edges []int, total float64, ok bool) {
	n := g.NumVertices()
	in := func(v int) bool {
		if g.vertDead[v] {
			return false
		}
		return mask == nil || mask[v]
	}
	start := -1
	count := 0
	for v := 0; v < n; v++ {
		if in(v) {
			count++
			if start < 0 {
				start = v
			}
		}
	}
	if start < 0 {
		return nil, 0, true
	}
	inTree := make([]bool, n)
	bestEdge := make([]int, n)
	bestCost := make([]float64, n)
	for i := range bestCost {
		bestCost[i] = math.Inf(1)
		bestEdge[i] = -1
	}
	var h DistHeap
	bestCost[start] = 0
	h.Push(DistItem{start, 0})
	taken := 0
	for h.Len() > 0 {
		it := h.Pop()
		v := it.V
		if inTree[v] || it.Dist > bestCost[v] {
			continue
		}
		inTree[v] = true
		taken++
		if bestEdge[v] >= 0 {
			edges = append(edges, bestEdge[v])
			total += g.Edges[bestEdge[v]].Cost
		}
		g.Adj(v, func(e, w int) bool {
			if !in(w) || inTree[w] {
				return true
			}
			if c := g.Edges[e].Cost; c < bestCost[w]-1e-12 {
				bestCost[w] = c
				bestEdge[w] = e
				h.Push(DistItem{w, c})
			}
			return true
		})
	}
	return edges, total, taken == count
}

// UnionFind is a standard disjoint-set structure with path compression
// and union by rank.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind returns a union–find over n elements.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Find returns the representative of x.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b; returns false if already joined.
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}
