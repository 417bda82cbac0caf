package analysis

import (
	"strings"
	"testing"
)

// TestDataflowSummaries probes the taint engine directly: it builds a
// Module over the dataflow fixture and asserts the converged return
// summaries — intrinsic bits, parameter markers, join at control-flow
// merges, sanitizer recognition, and composition through callees.
func TestDataflowSummaries(t *testing.T) {
	pkg := loadFixture(t, "dataflow")
	m := BuildModule([]*Package{pkg})
	ret := func(suffix string) Taint {
		t.Helper()
		n := m.FuncByName(suffix)
		if n == nil {
			t.Fatalf("fixture function %s not found (or ambiguous)", suffix)
		}
		return n.RetTaint()
	}

	if got := ret(".wallRet"); got&TaintWall == 0 {
		t.Errorf("wallRet: return not wall-tainted (got %#x)", got)
	}
	if got := ret(".passthrough"); got&paramBit(0) == 0 {
		t.Errorf("passthrough: param-0 marker missing from return (got %#x)", got)
	} else if got&realTaints != 0 {
		t.Errorf("passthrough: spurious intrinsic taint %#x", got&realTaints)
	}
	if got := ret(".viaIf"); got&TaintWall == 0 {
		t.Errorf("viaIf: taint acquired on one branch lost at the merge (got %#x)", got)
	}
	if got := ret(".viaLoop"); got&TaintWall == 0 {
		t.Errorf("viaLoop: callee taint inside loop body lost (got %#x)", got)
	}
	if got := ret(".keysRaw"); got&TaintMapOrder == 0 {
		t.Errorf("keysRaw: map-iteration-order bit missing (got %#x)", got)
	}
	if got := ret(".keysSorted"); got&TaintMapOrder != 0 {
		t.Errorf("keysSorted: sort.Strings did not sanitize (got %#x)", got)
	}
	if got := ret(".wallWrapped"); got&TaintWall == 0 {
		t.Errorf("wallWrapped: taint lost composing through format+passthrough (got %#x)", got)
	}
}

// TestSinkFlowSummary asserts a param→sink flow at the function
// boundary: walldet's stamp fixture writes its second parameter into a
// checkpoint field, which callers must see in the summary.
func TestSinkFlowSummary(t *testing.T) {
	pkg := loadFixture(t, "walldet/internal/ug")
	m := BuildModule([]*Package{pkg})
	n := m.FuncByName(".stamp")
	if n == nil {
		t.Fatal("fixture function stamp not found")
	}
	for _, sf := range n.SinkFlows() {
		if sf.Param == 1 && sf.Sink == "checkpoint field Note" {
			return
		}
	}
	t.Errorf("stamp: missing param-1 → checkpoint sink flow; got %v", n.SinkFlows())
}

func TestWallDetFixture(t *testing.T)   { checkFixture(t, WallDet, "walldet/internal/ug") }
func TestTraceKindFixture(t *testing.T) { checkFixture(t, TraceKind, "tracekind") }

// TestChanLockFixture runs lockhold over the fixture of the former
// chanlock analyzer: conditional holds, TryLock, network writes.
func TestChanLockFixture(t *testing.T) { checkFixture(t, LockHold, "chanlock/internal/ug") }

// TestTraceKindSuggestedFix pins the suggestion on the misspelled kind:
// exactly one finding, and it names the nearest known kind.
func TestTraceKindSuggestedFix(t *testing.T) {
	pkg := loadFixture(t, "tracekind")
	var hints []string
	for _, f := range RunPackage(pkg, []*Analyzer{TraceKind}) {
		if strings.Contains(f.Message, "did you mean") {
			hints = append(hints, f.Message)
		}
	}
	if len(hints) != 1 || !strings.Contains(hints[0], `did you mean "dispatch"`) {
		t.Fatalf("want one suggestion naming \"dispatch\" (the despatch typo), got %q", hints)
	}
}
