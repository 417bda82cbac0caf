// Package steiner is the SCIP-Jack analogue: a Steiner-tree-problem
// solver built as plugins on the scip framework. It contains the
// problem data structures, SteinLib STP file I/O, reduction techniques
// (including a restricted extended-reduction test), Wong's dual ascent,
// constructive and local-search heuristics, the flow-balance directed-cut
// formulation with max-flow cut separation, reduced-cost domain
// propagation, and vertex branching shipped as solver-independent
// decisions. A Dreyfus–Wagner exact algorithm serves as the verification
// oracle for small instances.
package steiner

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// SPG is a Steiner problem in graphs instance: an undirected graph with
// non-negative edge costs and a terminal set.
type SPG struct {
	Name     string
	G        *graph.Graph
	Terminal []bool
}

// NewSPG creates an empty instance with n vertices.
func NewSPG(n int) *SPG {
	return &SPG{G: graph.New(n), Terminal: make([]bool, n)}
}

// NumTerminals counts alive terminals.
func (s *SPG) NumTerminals() int {
	c := 0
	for v, t := range s.Terminal {
		if t && s.G.VertexAlive(v) {
			c++
		}
	}
	return c
}

// Terminals returns the alive terminal vertices.
func (s *SPG) Terminals() []int {
	var out []int
	for v, t := range s.Terminal {
		if t && s.G.VertexAlive(v) {
			out = append(out, v)
		}
	}
	return out
}

// Root returns the canonical root terminal (the lowest-indexed alive
// terminal), or −1 if no terminal is alive.
func (s *SPG) Root() int {
	for v, t := range s.Terminal {
		if t && s.G.VertexAlive(v) {
			return v
		}
	}
	return -1
}

// Clone deep-copies the instance.
//
//ugo:coldpath deep copy runs once per presolve and once per node (its node-local graph), never per LP iteration
func (s *SPG) Clone() *SPG {
	return &SPG{
		Name:     s.Name,
		G:        s.G.Clone(),
		Terminal: append([]bool(nil), s.Terminal...),
	}
}

// TreeCost sums the costs of the given edge set.
func (s *SPG) TreeCost(edges []int) float64 {
	var c float64
	for _, e := range edges {
		c += s.G.Cost(e)
	}
	return c
}

// ValidTree verifies that the edge set forms a connected acyclic subgraph
// spanning all alive terminals.
func (s *SPG) ValidTree(edges []int) error {
	terms := s.Terminals()
	if len(terms) == 0 {
		return nil
	}
	if len(terms) == 1 {
		if len(edges) == 0 {
			return nil
		}
	}
	uf := graph.NewUnionFind(s.G.NumVertices())
	used := map[int]bool{}
	for _, e := range edges {
		if !s.G.EdgeAlive(e) {
			return fmt.Errorf("edge %d is not alive", e)
		}
		if used[e] {
			return fmt.Errorf("edge %d repeated", e)
		}
		used[e] = true
		ed := s.G.Edges[e]
		if !uf.Union(ed.U, ed.V) {
			return fmt.Errorf("edge %d closes a cycle", e)
		}
	}
	for _, t := range terms[1:] {
		if uf.Find(t) != uf.Find(terms[0]) {
			return fmt.Errorf("terminal %d not connected", t)
		}
	}
	return nil
}

// SolveDW computes the optimal Steiner tree value exactly with the
// Dreyfus–Wagner dynamic program, O(3^t·n + 2^t·n²). It is the
// verification oracle for the solver on instances with few terminals.
// Returns +Inf if some terminal is unreachable.
func (s *SPG) SolveDW() float64 {
	terms := s.Terminals()
	t := len(terms)
	if t <= 1 {
		return 0
	}
	n := s.G.NumVertices()
	// Pairwise shortest paths from every vertex (Dijkstra per vertex).
	dist := make([][]float64, n)
	for v := 0; v < n; v++ {
		if !s.G.VertexAlive(v) {
			continue
		}
		dist[v], _ = s.G.Dijkstra([]int{v}, nil)
	}
	// dp[mask][v]: cost of a tree spanning terms(mask) ∪ {v}.
	full := 1 << (t - 1) // masks over terms[1:]; terms[0] merged at the end
	dp := make([][]float64, full)
	for m := range dp {
		dp[m] = make([]float64, n)
		for v := range dp[m] {
			dp[m][v] = math.Inf(1)
		}
	}
	for i := 1; i < t; i++ {
		for v := 0; v < n; v++ {
			if dist[terms[i]] != nil {
				dp[1<<(i-1)][v] = dist[terms[i]][v]
			}
		}
	}
	for mask := 1; mask < full; mask++ {
		if mask&(mask-1) != 0 { // not a singleton: combine submasks
			for v := 0; v < n; v++ {
				best := math.Inf(1)
				for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
					if sub < mask-sub {
						break // each split visited once
					}
					if c := dp[sub][v] + dp[mask^sub][v]; c < best {
						best = c
					}
				}
				if best < dp[mask][v] {
					dp[mask][v] = best
				}
			}
		}
		// Propagate through the graph (tree edge extension).
		for v := 0; v < n; v++ {
			if !s.G.VertexAlive(v) || math.IsInf(dp[mask][v], 1) {
				continue
			}
			for u := 0; u < n; u++ {
				if dist[v] == nil {
					continue
				}
				if c := dp[mask][v] + dist[v][u]; c < dp[mask][u] {
					dp[mask][u] = c
				}
			}
		}
	}
	return dp[full-1][terms[0]]
}
