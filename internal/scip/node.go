package scip

import (
	"repro/internal/num"
)

// Node is one branch-and-bound node. Bound changes and decisions are
// stored as deltas against the parent; the full subproblem is recovered
// by walking the root path.
type Node struct {
	ID        int64
	Depth     int
	Bound     float64 // dual bound inherited/improved
	Parent    *Node
	BoundChgs []BoundChg
	Decisions []Decision

	// kids counts children whose subtrees are still live; done marks the
	// node itself fully explored. Together they drive the node pool
	// (Solver.finishNode): a node recycles once it is done and kids == 0.
	kids int32
	done bool

	// snap is 1 + the index in Solver.snaps of the LP basis the node
	// ended with, 0 for none: a node with children keeps it until each
	// child's LP has started (unstarted counts those that have not), for
	// a child whose LP starts after the search jumped.
	snap      int32
	unstarted int32

	// ownChg is inline storage for the builtin brancher's single bound
	// change, so a steady-state branch needs no per-child slice.
	ownChg [1]BoundChg
}

// pathInto appends the root→node order of the root path into buf[:0]
// and returns it; the result aliases buf's backing array.
func (n *Node) pathInto(buf []*Node) []*Node {
	rev := buf[:0]
	for cur := n; cur != nil; cur = cur.Parent {
		//lint:ignore hotalloc appends into the caller's reused scratch; grows only to the root-path depth high-water mark
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// path returns root→node order of the nodes on the root path.
func (n *Node) path() []*Node { return n.pathInto(nil) }

// allDecisions collects the branching decisions on the root path.
func (n *Node) allDecisions() []Decision {
	var out []Decision
	for _, nd := range n.path() {
		out = append(out, nd.Decisions...)
	}
	return out
}

// nodeHeap is a best-bound priority queue of open nodes. It is a
// concrete binary heap — container/heap's exact sift algorithm
// specialized to *Node — so the pop path pays no interface dispatch.
// The element order it produces is byte-identical to the previous
// container/heap implementation (same comparator, same sift rules),
// which the determinism tests rely on.
type nodeHeap []*Node

func (h nodeHeap) less(i, j int) bool {
	// Exact tie-break: a tolerance here would break comparator
	// transitivity and corrupt the heap.
	if !num.ExactEq(h[i].Bound, h[j].Bound) {
		return h[i].Bound < h[j].Bound
	}
	return h[i].ID < h[j].ID
}

func (h nodeHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h nodeHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}

func (h *nodeHeap) push(n *Node) {
	*h = append(*h, n)
	h.up(len(*h) - 1)
}

func (h *nodeHeap) pop() *Node {
	old := *h
	last := len(old) - 1
	old[0], old[last] = old[last], old[0]
	old.down(0, last)
	it := old[last]
	old[last] = nil // no stale reference into the node pool
	*h = old[:last]
	return it
}

// remove deletes and returns the element at index i (container/heap's
// Remove).
func (h *nodeHeap) remove(i int) *Node {
	old := *h
	n := len(old) - 1
	if n != i {
		old[i], old[n] = old[n], old[i]
		if !old.down(i, n) {
			old.up(i)
		}
	}
	it := old[n]
	old[n] = nil
	*h = old[:n]
	return it
}

// init establishes the heap invariant over arbitrary contents.
func (h nodeHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// tree holds the open nodes under a selection policy.
type tree struct {
	sel    NodeSelection
	heap   nodeHeap
	stack  []*Node // for DFS / plunging
	pruned []*Node // reusable prune result buffer
}

func newTree(sel NodeSelection) *tree { return &tree{sel: sel} }

func (t *tree) push(n *Node) {
	switch t.sel {
	case DepthFirst:
		t.stack = append(t.stack, n)
	case HybridPlunge:
		// Children go on the plunge stack; exhausted stacks fall back to
		// the best-bound heap (see pop).
		t.stack = append(t.stack, n)
	default:
		t.heap.push(n)
	}
}

func (t *tree) pop() *Node {
	switch t.sel {
	case DepthFirst:
		if len(t.stack) == 0 {
			return nil
		}
		n := t.stack[len(t.stack)-1]
		t.stack[len(t.stack)-1] = nil
		t.stack = t.stack[:len(t.stack)-1]
		return n
	case HybridPlunge:
		if len(t.stack) > 0 {
			n := t.stack[len(t.stack)-1]
			t.stack[len(t.stack)-1] = nil
			t.stack = t.stack[:len(t.stack)-1]
			// Spill the rest of the stack into the heap so plunges stay
			// shallow bursts rather than full DFS.
			if len(t.stack) > 8 {
				for i, m := range t.stack {
					t.heap.push(m)
					t.stack[i] = nil
				}
				t.stack = t.stack[:0]
			}
			return n
		}
		if len(t.heap) == 0 {
			return nil
		}
		return t.heap.pop()
	default:
		if len(t.heap) == 0 {
			return nil
		}
		return t.heap.pop()
	}
}

func (t *tree) size() int { return len(t.heap) + len(t.stack) }

// all returns every open node (order unspecified) and empties the tree.
func (t *tree) drain() []*Node {
	out := append([]*Node(nil), t.stack...)
	out = append(out, t.heap...)
	t.stack = nil
	t.heap = nil
	return out
}

// best returns the smallest bound among open nodes (inf when empty).
func (t *tree) best() float64 {
	best := Infinity
	for _, n := range t.stack {
		if n.Bound < best {
			best = n.Bound
		}
	}
	for _, n := range t.heap {
		if n.Bound < best {
			best = n.Bound
		}
	}
	return best
}

// extractBest removes and returns the open node with the smallest dual
// bound — UG's "heavy subproblem" candidate (expected to root a large
// subtree). Returns nil when no open node exists.
func (t *tree) extractBest() *Node {
	bestIdx, from := -1, 0
	best := Infinity
	for i, n := range t.stack {
		if n.Bound < best {
			best = n.Bound
			bestIdx = i
			from = 1
		}
	}
	for i, n := range t.heap {
		if n.Bound < best {
			best = n.Bound
			bestIdx = i
			from = 2
		}
	}
	switch from {
	case 1:
		n := t.stack[bestIdx]
		t.stack = append(t.stack[:bestIdx], t.stack[bestIdx+1:]...)
		return n
	case 2:
		return t.heap.remove(bestIdx)
	}
	return nil
}

// prune removes all open nodes with bound ≥ cutoff. The removed nodes
// are returned in a buffer reused across calls (valid until the next
// prune) so the caller can recycle them.
func (t *tree) prune(cutoff float64) []*Node {
	t.pruned = t.pruned[:0]
	keepS := t.stack[:0]
	for _, n := range t.stack {
		if n.Bound < cutoff {
			keepS = append(keepS, n)
		} else {
			t.pruned = append(t.pruned, n)
		}
	}
	for i := len(keepS); i < len(t.stack); i++ {
		t.stack[i] = nil
	}
	t.stack = keepS
	keepH := t.heap[:0]
	for _, n := range t.heap {
		if n.Bound < cutoff {
			keepH = append(keepH, n)
		} else {
			t.pruned = append(t.pruned, n)
		}
	}
	for i := len(keepH); i < len(t.heap); i++ {
		t.heap[i] = nil
	}
	t.heap = keepH
	t.heap.init()
	return t.pruned
}
