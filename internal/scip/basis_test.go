package scip

import (
	"math"
	"math/rand"
	"testing"
)

// liveSnaps is the number of LP snapshots held for nodes.
func liveSnaps(s *Solver) int { return len(s.snaps) - len(s.freeSnaps) }

// waitingParents is the number of nodes with a snapshot and an open
// child.
func waitingParents(s *Solver) int {
	seen := map[*Node]bool{}
	for _, n := range append(append([]*Node(nil), s.tree.heap...), s.tree.stack...) {
		if p := n.Parent; p != nil && p.snap > 0 {
			seen[p] = true
		}
	}
	return len(seen)
}

// LP snapshots live exactly as long as a node has children whose LP has
// not started: until the first incumbent, when no node can have been
// pruned, the snapshots held are those of the open nodes' parents; a
// finished solve holds none, under every node selection, and reaches the
// optimum; a solve interrupted with open nodes holds some, and Reset
// frees them with the nodes. The SDP mode (no LP) takes none.
func TestNodeSnapshotsAreReleased(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	jumped := 0
	var hard *Prob // a knapsack whose best-first tree has at least 8 nodes
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(8)
		values, weights := make([]float64, n), make([]float64, n)
		var totW float64
		for i := range values {
			values[i] = float64(1 + rng.Intn(20))
			weights[i] = float64(1 + rng.Intn(10))
			totW += weights[i]
		}
		capacity := math.Floor(totW / 2)
		want := bruteKnapsack(values, weights, capacity)
		for _, sel := range []NodeSelection{BestBound, DepthFirst, HybridPlunge} {
			set := DefaultSettings()
			set.NodeSel = sel
			s := NewSolver(knapsackProb(values, weights, capacity), set, nil)
			if st := s.Solve(); st != StatusOptimal || math.Abs(-s.Incumbent().Obj-want) > 1e-6 {
				t.Fatalf("trial %d sel %d: %v, obj %v, want %v", trial, sel, st, -s.Incumbent().Obj, want)
			}
			if k := liveSnaps(s); k != 0 {
				t.Fatalf("trial %d sel %d: %d snapshots held after the solve", trial, sel, k)
			}
			if sel == BestBound && len(s.snaps) > 1 {
				jumped++
			}
			if sel == BestBound && s.Stats.Nodes >= 8 {
				hard = knapsackProb(values, weights, capacity)
			}
		}
	}
	if jumped == 0 || hard == nil {
		t.Fatal("no best-first solve held two snapshots at once or had 8 nodes: the test exercises no jump")
	}

	s := NewSolver(hard, DefaultSettings(), nil)
	checked := 0
	s.Poll = func(sv *Solver) bool {
		if sv.Incumbent() == nil && liveSnaps(sv) > 0 {
			if live, want := liveSnaps(sv), waitingParents(sv); live != want {
				t.Fatalf("after %d nodes: %d snapshots held, %d nodes with a snapshot have open children", sv.Stats.Nodes, live, want)
			}
			checked++
		}
		return sv.Stats.Nodes < 4
	}
	if st := s.Solve(); st != StatusInterrupted || s.NumOpen() == 0 || liveSnaps(s) == 0 {
		t.Fatalf("interrupted solve: %v with %d open nodes and %d snapshots; want open nodes with snapshots", st, s.NumOpen(), liveSnaps(s))
	}
	if checked == 0 {
		t.Fatal("no snapshot was held before the first incumbent")
	}
	s.Reset(nil)
	if k := liveSnaps(s); k != 0 || s.lastNode != -1 {
		t.Fatalf("after Reset: %d snapshots held, last node %d", k, s.lastNode)
	}

	set := DefaultSettings()
	set.UseLP = false
	s = NewSolver(hard, set, nil)
	s.Solve()
	if len(s.snaps) != 0 {
		t.Fatalf("a solve without LP took %d snapshots", len(s.snaps))
	}
}

// Past the snapshot budget the arena stops growing: a branched node
// that finds no free entry keeps no snapshot, its children start from
// whatever basis the LP has, and the solve still reaches the optimum
// and frees every entry it used.
func TestNodeSnapshotBudgetSpent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	starvedSolves := 0
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(8)
		values, weights := make([]float64, n), make([]float64, n)
		var totW float64
		for i := range values {
			values[i] = float64(1 + rng.Intn(20))
			weights[i] = float64(1 + rng.Intn(10))
			totW += weights[i]
		}
		capacity := math.Floor(totW / 2)
		want := bruteKnapsack(values, weights, capacity)
		s := NewSolver(knapsackProb(values, weights, capacity), DefaultSettings(), nil)
		entries := -1 // arena entries when the budget was spent
		starved := 0  // open nodes seen whose parent branched without a snapshot
		s.Poll = func(sv *Solver) bool {
			if entries < 0 && len(sv.snaps) > 0 {
				sv.snapBytes = snapBudget
				entries = len(sv.snaps)
			}
			if entries >= 0 && len(sv.snaps) != entries {
				t.Fatalf("trial %d: arena grew from %d to %d entries past the budget", trial, entries, len(sv.snaps))
			}
			for _, n := range append(append([]*Node(nil), sv.tree.heap...), sv.tree.stack...) {
				if p := n.Parent; p != nil && p.snap == 0 {
					starved++
				}
			}
			return true
		}
		if st := s.Solve(); st != StatusOptimal || math.Abs(-s.Incumbent().Obj-want) > 1e-6 {
			t.Fatalf("trial %d: %v, obj %v, want %v", trial, st, -s.Incumbent().Obj, want)
		}
		if k := liveSnaps(s); k != 0 {
			t.Fatalf("trial %d: %d snapshots held after the solve", trial, k)
		}
		if starved > 0 {
			starvedSolves++
		}
	}
	if starvedSolves == 0 {
		t.Fatal("no node branched without a snapshot: the test never reaches the budget branch")
	}
}
