package graph

// DistItem is a priority-queue entry: a vertex and its key (a tentative
// distance in Dijkstra, an attachment cost in Prim).
type DistItem struct {
	V    int
	Dist float64
}

// DistHeap is a binary min-heap of DistItems on Dist. It is
// container/heap's exact sift algorithm specialized to DistItem, so it
// pops equal keys in the same order container/heap did (the search pins
// rely on that) without boxing every push into an interface value.
type DistHeap []DistItem

// Len returns the number of queued items.
func (h DistHeap) Len() int { return len(h) }

// Push queues it (container/heap.Push).
func (h *DistHeap) Push(it DistItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// Pop removes and returns an item of least Dist (container/heap.Pop).
func (h *DistHeap) Pop() DistItem {
	old := *h
	last := len(old) - 1
	old[0], old[last] = old[last], old[0]
	old.down(0, last)
	it := old[last]
	*h = old[:last]
	return it
}

func (h DistHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].Dist < h[i].Dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h DistHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].Dist < h[j1].Dist {
			j = j2 // right child
		}
		if !(h[j].Dist < h[i].Dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
