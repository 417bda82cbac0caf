package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddDelete(t *testing.T) {
	g := New(4)
	e1 := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	if g.AliveEdges() != 3 || g.AliveVertices() != 4 {
		t.Fatalf("counts wrong: %d %d", g.AliveEdges(), g.AliveVertices())
	}
	g.DeleteEdge(e1)
	if g.AliveEdges() != 2 || g.EdgeAlive(e1) {
		t.Fatal("edge deletion failed")
	}
	g.DeleteEdge(e1) // idempotent
	if g.AliveEdges() != 2 {
		t.Fatal("double deletion changed count")
	}
	g.DeleteVertex(2)
	if g.AliveVertices() != 3 || g.AliveEdges() != 0 {
		t.Fatalf("vertex deletion: %d %d", g.AliveVertices(), g.AliveEdges())
	}
}

func TestDegreeAndAdj(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	e := g.AddEdge(1, 2, 1)
	if g.Degree(0) != 2 || g.Degree(1) != 2 {
		t.Fatal("degree wrong")
	}
	g.DeleteEdge(e)
	if g.Degree(1) != 1 {
		t.Fatal("degree after deletion wrong")
	}
	var ns []int
	g.Adj(0, func(e, w int) bool { ns = append(ns, w); return true })
	if len(ns) != 2 {
		t.Fatalf("Adj visited %v", ns)
	}
}

func TestOther(t *testing.T) {
	g := New(2)
	e := g.AddEdge(0, 1, 1)
	if g.Other(e, 0) != 1 || g.Other(e, 1) != 0 {
		t.Fatal("Other wrong")
	}
}

func TestDijkstraPath(t *testing.T) {
	// 0-1 (1), 1-2 (1), 0-2 (5): dist(2) = 2 via 1.
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	dist, pred := g.Dijkstra([]int{0}, nil)
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %v", dist[2])
	}
	if pred[2] != 1 { // edge 1 is 1-2
		t.Fatalf("pred[2] = %v", pred[2])
	}
}

func TestDijkstraMultiSource(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(2, 1, 1)
	g.AddEdge(2, 3, 7)
	dist, _ := g.Dijkstra([]int{0, 3}, nil)
	if dist[1] != 8 { // via 3-2-1
		t.Fatalf("dist[1] = %v, want 8", dist[1])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	dist, _ := g.Dijkstra([]int{0}, nil)
	if !math.IsInf(dist[2], 1) {
		t.Fatal("unreachable vertex should be +Inf")
	}
}

func TestDijkstraCostOverride(t *testing.T) {
	g := New(2)
	e := g.AddEdge(0, 1, 100)
	costs := make([]float64, 1)
	costs[e] = 3
	dist, _ := g.Dijkstra([]int{0}, costs)
	if dist[1] != 3 {
		t.Fatalf("override not used: %v", dist[1])
	}
}

func TestDijkstraRespectsDeletions(t *testing.T) {
	g := New(3)
	e := g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(2, 1, 1)
	g.DeleteEdge(e)
	dist, _ := g.Dijkstra([]int{0}, nil)
	if dist[1] != 6 {
		t.Fatalf("dist[1] = %v, want 6 via vertex 2", dist[1])
	}
}

func TestMSTKnown(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(3, 0, 4)
	g.AddEdge(0, 2, 5)
	edges, total, ok := g.MSTPrim(nil)
	if !ok || total != 6 || len(edges) != 3 {
		t.Fatalf("MST = %v cost %v ok %v", edges, total, ok)
	}
}

func TestMSTMasked(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	mask := []bool{true, true, true, false}
	_, total, ok := g.MSTPrim(mask)
	if !ok || total != 3 {
		t.Fatalf("masked MST cost %v ok %v", total, ok)
	}
}

func TestMSTDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	_, _, ok := g.MSTPrim(nil)
	if ok {
		t.Fatal("disconnected graph should report ok=false")
	}
}

// Property: MST via Prim matches Kruskal (union-find based) on random
// connected graphs.
func TestMSTMatchesKruskal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := New(n)
		// Random spanning path keeps it connected.
		for v := 1; v < n; v++ {
			g.AddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
		}
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1+rng.Float64()*9)
			}
		}
		_, prim, ok := g.MSTPrim(nil)
		if !ok {
			return false
		}
		// Kruskal.
		idx := make([]int, g.NumEdges())
		for i := range idx {
			idx[i] = i
		}
		for i := 1; i < len(idx); i++ {
			for j := i; j > 0 && g.Edges[idx[j]].Cost < g.Edges[idx[j-1]].Cost; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		uf := NewUnionFind(n)
		var kruskal float64
		for _, e := range idx {
			if uf.Union(g.Edges[e].U, g.Edges[e].V) {
				kruskal += g.Edges[e].Cost
			}
		}
		return math.Abs(prim-kruskal) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(5)
	if !u.Union(0, 1) || !u.Union(2, 3) {
		t.Fatal("fresh unions should succeed")
	}
	if u.Union(1, 0) {
		t.Fatal("repeated union should fail")
	}
	if u.Find(0) != u.Find(1) || u.Find(0) == u.Find(2) {
		t.Fatal("find wrong")
	}
	u.Union(1, 3)
	if u.Find(0) != u.Find(2) {
		t.Fatal("transitive union wrong")
	}
}

func TestConnectedComponent(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	comp := g.ConnectedComponent(0)
	if !comp[0] || !comp[1] || !comp[2] || comp[3] || comp[4] {
		t.Fatalf("component wrong: %v", comp)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3)
	e := g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.DeleteEdge(e)
	if !g.EdgeAlive(e) {
		t.Fatal("clone deletion affected original")
	}
	c.AddVertex()
	if g.NumVertices() != 3 {
		t.Fatal("clone AddVertex affected original")
	}
}

// Property: Dijkstra distances match Floyd–Warshall on random graphs.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(rng.Intn(v), v, float64(1+rng.Intn(9)))
		}
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, float64(1+rng.Intn(9)))
			}
		}
		// Floyd–Warshall.
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = math.Inf(1)
				}
			}
		}
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edges[e]
			if ed.Cost < d[ed.U][ed.V] {
				d[ed.U][ed.V] = ed.Cost
				d[ed.V][ed.U] = ed.Cost
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d[i][k]+d[k][j] < d[i][j] {
						d[i][j] = d[i][k] + d[k][j]
					}
				}
			}
		}
		for s := 0; s < n; s++ {
			dist, _ := g.Dijkstra([]int{s}, nil)
			for v := 0; v < n; v++ {
				if math.Abs(dist[v]-d[s][v]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// DistHeap must pop equal keys in container/heap's order: the sequence
// below was recorded with container/heap on the same push/pop script
// (keys in {0,1,2,3}, a pop after every third push, then a drain), and
// it is not first-in-first-out among ties, so a different sift moves it.
func TestDistHeapPopsInContainerHeapOrder(t *testing.T) {
	want := []int{0, 4, 8, 7, 12, 16, 20, 19, 24, 28, 32, 23, 36, 31, 27, 15, 3, 35, 39, 11,
		38, 6, 22, 26, 2, 30, 10, 14, 34, 18, 17, 25, 13, 5, 33, 9, 1, 29, 37, 21}
	var h DistHeap
	var got []int
	for i := 0; i < 40; i++ {
		h.Push(DistItem{i, float64((i * 7) % 4)})
		if i%3 == 2 {
			got = append(got, h.Pop().V)
		}
	}
	for h.Len() > 0 {
		got = append(got, h.Pop().V)
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: vertex %d, container/heap popped %d\ngot  %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
}
