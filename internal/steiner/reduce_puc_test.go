package steiner_test

import (
	"testing"

	"repro/internal/steiner"
	"repro/internal/steiner/puc"
)

// Every registry instance reduces exactly as under the unbounded
// reference searches (see ReduceMatchesReference in reduce_test.go).
func TestReduceMatchesReferenceRegistry(t *testing.T) {
	for _, name := range puc.Names() {
		if err := steiner.ReduceMatchesReference(puc.Named(name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// benchInstances are two stp_seq instances: a 64-vertex hypercube whose
// degree-6 vertices only the long-edge test examines, and a code-cover
// graph on which the extended vertex test runs too.
var benchInstances = []struct {
	name  string
	build func() *steiner.SPG
}{
	{"hypercubespread-6-12-100-200-2", func() *steiner.SPG { return puc.HypercubeSpread(6, 12, 100, 200, 2) }},
	{"codecover-3-5-12-0-10", func() *steiner.SPG { return puc.CodeCover(3, 5, 12, false, 10) }},
}

// BenchmarkReduce is the global presolve pass on a fresh copy of each
// instance (the copy is not timed).
func BenchmarkReduce(b *testing.B) {
	for _, in := range benchInstances {
		g := in.build()
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := g.Clone()
				b.StartTimer()
				steiner.Reduce(s, 0)
			}
		})
	}
}

// BenchmarkReduceLocal is one in-tree pass at the propagator's budget
// (400) on the presolved instance, which it leaves as it found it.
func BenchmarkReduceLocal(b *testing.B) {
	for _, in := range benchInstances {
		s := in.build()
		steiner.Reduce(s, 0)
		steiner.ReduceLocal(s, 400)
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				steiner.ReduceLocal(s, 400)
			}
		})
	}
}
