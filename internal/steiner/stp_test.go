package steiner

import (
	"bufio"
	"errors"
	"math"
	"runtime"
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

const smallSTP = "SECTION Graph\nNodes 2\nE 1 2 1\nEND\nSECTION Terminals\nT 1\nT 2\nEND\n"

// A long comment line is read through the growing line buffer; a line
// past the 1 MiB cap is an error, not a truncation.
func TestReadSTPLongLines(t *testing.T) {
	long := "SECTION Comment\nRemark \"" + strings.Repeat("x", 100<<10) + "\"\nEND\n"
	s, err := ReadSTP(strings.NewReader(long + smallSTP))
	if err != nil {
		t.Fatalf("100 KiB comment line: %v", err)
	}
	if s.G.AliveEdges() != 1 || s.NumTerminals() != 2 {
		t.Fatalf("100 KiB comment line: %d edges, %d terminals, want 1 and 2", s.G.AliveEdges(), s.NumTerminals())
	}
	huge := "# " + strings.Repeat("x", maxSTPLine) + "\n"
	if _, err := ReadSTP(strings.NewReader(huge + smallSTP)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over 1 MiB: error %v, want %v", err, bufio.ErrTooLong)
	}
}

// Parsing a small instance allocates what the instance needs, not a
// line buffer sized for the longest line ReadSTP admits. The least of
// five measurements keeps a stray background allocation out.
func TestReadSTPSmallInstanceAllocatesLittle(t *testing.T) {
	var buf strings.Builder
	if err := WriteSTP(&buf, randomSPG(1, 20, 20, 4)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ReadSTP(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Fatalf("parsing a 20-vertex instance allocated %d bytes, want under 64 KiB", least)
	}
}
