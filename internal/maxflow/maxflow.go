// Package maxflow implements Dinic's maximum-flow algorithm on directed
// graphs with real capacities. It is the separation engine of the Steiner
// branch-and-cut: violated directed Steiner cuts are minimum cuts in the
// support graph of the current LP solution.
package maxflow

import "math"

// arc is one directed arc plus its residual twin (stored adjacently).
// init is the capacity it was added with, which ResetFlow restores.
type arc struct {
	to        int
	cap, init float64
}

// Network is a flow network under construction. One network serves
// any number of MaxFlow calls: ResetFlow returns it to zero flow, and
// the search buffers are reused.
type Network struct {
	n    int
	arcs []arc   // arcs[2k] forward, arcs[2k+1] backward
	head [][]int // arc indices per vertex

	level []int
	iter  []int
	queue []int
}

// New returns a network with n vertices.
func New(n int) *Network {
	return &Network{n: n, head: make([][]int, n),
		level: make([]int, n), iter: make([]int, n), queue: make([]int, 0, n)}
}

// AddArc inserts a directed arc u→v with the given capacity and returns
// its index (use it with Flow to query the routed flow).
func (nw *Network) AddArc(u, v int, capacity float64) int {
	id := len(nw.arcs)
	nw.arcs = append(nw.arcs, arc{to: v, cap: capacity, init: capacity}, arc{to: u})
	nw.head[u] = append(nw.head[u], id)
	nw.head[v] = append(nw.head[v], id+1)
	return id
}

// Flow returns the flow currently routed on arc id (after MaxFlow).
func (nw *Network) Flow(id int) float64 { return nw.arcs[id^1].cap }

// Capacity returns the remaining capacity of arc id.
func (nw *Network) Capacity(id int) float64 { return nw.arcs[id].cap }

// ResetFlow removes all flow: every arc gets back the capacity it was
// added with, so the next MaxFlow runs as on a freshly built network.
func (nw *Network) ResetFlow() {
	for i := range nw.arcs {
		nw.arcs[i].cap = nw.arcs[i].init
	}
}

const eps = 1e-12

// bfs levels the residual network from s and reports whether t is
// reachable.
func (nw *Network) bfs(s, t int) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	queue := append(nw.queue[:0], s)
	nw.level[s] = 0
	for k := 0; k < len(queue); k++ {
		v := queue[k]
		for _, id := range nw.head[v] {
			a := nw.arcs[id]
			if a.cap > eps && nw.level[a.to] < 0 {
				nw.level[a.to] = nw.level[v] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return nw.level[t] >= 0
}

func (nw *Network) dfs(v, t int, f float64) float64 {
	if v == t {
		return f
	}
	for ; nw.iter[v] < len(nw.head[v]); nw.iter[v]++ {
		id := nw.head[v][nw.iter[v]]
		a := &nw.arcs[id]
		if a.cap <= eps || nw.level[a.to] != nw.level[v]+1 {
			continue
		}
		d := nw.dfs(a.to, t, math.Min(f, a.cap))
		if d > eps {
			a.cap -= d
			nw.arcs[id^1].cap += d
			return d
		}
	}
	return 0
}

// MaxFlow computes the maximum s–t flow.
func (nw *Network) MaxFlow(s, t int) float64 {
	var flow float64
	for nw.bfs(s, t) {
		clear(nw.iter)
		for {
			f := nw.dfs(s, t, math.Inf(1))
			if f <= eps {
				break
			}
			flow += f
		}
	}
	return flow
}

// MinCutSource returns the source side of a minimum cut after MaxFlow:
// the set of vertices reachable from s in the residual network.
func (nw *Network) MinCutSource(s int) []bool {
	seen := make([]bool, nw.n)
	stack := []int{s}
	seen[s] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range nw.head[v] {
			a := nw.arcs[id]
			if a.cap > eps && !seen[a.to] {
				seen[a.to] = true
				stack = append(stack, a.to)
			}
		}
	}
	return seen
}
