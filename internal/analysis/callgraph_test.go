package analysis

import (
	"fmt"
	"strings"
	"testing"
)

// buildFixtureModule loads one fixture package and builds its module
// graph.
func buildFixtureModule(t *testing.T, rel string) *Module {
	t.Helper()
	pkg := loadFixture(t, rel)
	return BuildModule([]*Package{pkg})
}

// mustFunc resolves a node by name suffix or fails the test.
func mustFunc(t *testing.T, m *Module, suffix string) *FuncNode {
	t.Helper()
	n := m.FuncByName(suffix)
	if n == nil {
		var names []string
		for _, f := range m.Funcs() {
			names = append(names, f.Name())
		}
		t.Fatalf("no unique function %q in module; have:\n%s", suffix, strings.Join(names, "\n"))
	}
	return n
}

// TestCallGraphSummaries drives the fixed-point engine over the
// callgraph fixture: mutual recursion, interface dispatch, method
// values, goroutine launches, and transitive lock acquisition.
func TestCallGraphSummaries(t *testing.T) {
	m := buildFixtureModule(t, "callgraph")

	// Convergence: the monotone iteration must terminate in a small
	// number of rounds even with pingA ⇄ pingB in the graph. The bound
	// is generous; the point is that it is finite and the test returned.
	if m.Rounds < 1 || m.Rounds > 50 {
		t.Fatalf("summary fixed point took %d rounds; expected 1..50", m.Rounds)
	}

	mayBlock := map[string]bool{
		".pingA":        true,  // direct send at the base case
		".pingB":        true,  // only through mutual recursion with pingA
		"Real).Block":   true,  // direct receive
		"Fake).Block":   false, // empty body
		".dispatch":     true,  // interface dispatch fans out to Real.Block
		".methodValue":  true,  // conservative: referenced method value may be called
		".spawner":      false, // go pingA(...) cannot block the spawner
		".spawnAndCall": true,  // the synchronous pingA(...) beside the launch can
		".pure":         false,
		".lockerCaller": false,
	}
	for suffix, want := range mayBlock {
		if got := mustFunc(t, m, suffix).Summary().MayBlock; got != want {
			t.Errorf("MayBlock(%s) = %v, want %v", suffix, got, want)
		}
	}

	// Transitive lock acquisition: bump locks l.mu directly,
	// lockerCaller inherits the same mutex identity.
	bump := mustFunc(t, m, ".bump")
	caller := mustFunc(t, m, ".lockerCaller")
	if len(bump.Summary().Acquires) != 1 {
		t.Fatalf("bump should acquire exactly one mutex, got %d", len(bump.Summary().Acquires))
	}
	for obj := range bump.Summary().Acquires {
		if !caller.Summary().Acquires[obj] {
			t.Errorf("lockerCaller should inherit acquisition of %v", obj)
		}
	}

	// Interface dispatch edges: dispatch must reach both implementations.
	callees := map[string]bool{}
	for _, c := range mustFunc(t, m, ".dispatch").Callees() {
		callees[c.Name()] = true
	}
	foundReal, foundFake := false, false
	for name := range callees {
		if strings.HasSuffix(name, "Real).Block") || strings.Contains(name, "Real.Block") {
			foundReal = true
		}
		if strings.HasSuffix(name, "Fake).Block") || strings.Contains(name, "Fake.Block") {
			foundFake = true
		}
	}
	if !foundReal || !foundFake {
		t.Errorf("dispatch callees = %v; want both Real.Block and Fake.Block", callees)
	}
}

// TestCallGraphDeterministicRebuild asserts the graph and summaries are
// stable across rebuilds of the same package (guards against map-order
// artifacts inside the engine itself).
func TestCallGraphDeterministicRebuild(t *testing.T) {
	a := buildFixtureModule(t, "callgraph")
	b := buildFixtureModule(t, "callgraph")
	fa, fb := a.Funcs(), b.Funcs()
	if len(fa) != len(fb) {
		t.Fatalf("rebuild changed node count: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Name() != fb[i].Name() {
			t.Fatalf("node %d differs: %s vs %s", i, fa[i].Name(), fb[i].Name())
		}
		sa, sb := fa[i].Summary(), fb[i].Summary()
		if sa.MayBlock != sb.MayBlock || sa.SortsArg != sb.SortsArg {
			t.Errorf("summary of %s differs across rebuilds", fa[i].Name())
		}
	}
}

// SortsArg is the summary bit mapdet consults before accepting an
// unsorted key collection handed to a module helper.
func TestSortsArgSummary(t *testing.T) {
	m := buildFixtureModule(t, "mapdet/internal/ug")
	if !mustFunc(t, m, ".sortRanks").Summary().SortsArg {
		t.Error("sortRanks should have SortsArg set")
	}
}

// The lockblock and tolconst fixtures keep the names of the analyzers
// that were folded into lockhold (its call-summary rules) and floatcmp
// (its literal rule); the tests are named after the fixture directory.
func TestLockBlockFixture(t *testing.T) { checkFixture(t, LockHold, "lockblock/internal/ug") }
func TestTolConstFixture(t *testing.T)  { checkFixture(t, FloatCmp, "tolconst/internal/scip") }

// TestMapDetFixture also pins one finding per position: nestedPick's
// assignment carries the order of both of its map ranges.
func TestMapDetFixture(t *testing.T) {
	checkFixture(t, MapDet, "mapdet/internal/ug")
	seen := map[string]bool{}
	for _, f := range RunPackage(loadFixture(t, "mapdet/internal/ug"), []*Analyzer{MapDet}) {
		key := fmt.Sprintf("%s:%d:%d", f.Pos.Filename, f.Pos.Line, f.Pos.Column)
		if seen[key] {
			t.Errorf("mapdet reported %s twice", key)
		}
		seen[key] = true
	}
}
