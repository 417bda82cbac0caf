package steiner

import (
	"math"
	"strings"
	"testing"
)

// FuzzReadSTP: ReadSTP never panics, and what it accepts is a well-formed
// instance that survives a WriteSTP/ReadSTP round trip. The checked-in
// seeds under testdata/fuzz/FuzzReadSTP are inputs that once panicked
// (a line missing its operand, a vertex outside 1..Nodes, a negative
// node count); `go test` runs them every time.
func FuzzReadSTP(f *testing.F) {
	f.Add([]byte("SECTION Graph\nNodes 3\nE 1 2 1\nE 2 3 2.5\nEND\nSECTION Terminals\nT 1\nT 3\nEND\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSTP(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		n := s.G.NumVertices()
		if n > MaxSTPNodes || len(s.Terminal) != n {
			t.Fatalf("%d vertices, %d terminal flags", n, len(s.Terminal))
		}
		for _, e := range s.G.Edges {
			if e.U == e.V || e.U < 0 || e.V < 0 || e.U >= n || e.V >= n || !(e.Cost >= 0) || math.IsInf(e.Cost, 1) {
				t.Fatalf("accepted edge %+v in a %d-vertex graph", e, n)
			}
		}
		var buf strings.Builder
		if err := WriteSTP(&buf, s); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSTP(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-reading the written instance: %v", err)
		}
		if back.G.NumVertices() != n || back.G.AliveEdges() != s.G.AliveEdges() || back.NumTerminals() != s.NumTerminals() {
			t.Fatalf("round trip changed the instance")
		}
	})
}
