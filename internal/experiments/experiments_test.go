package experiments

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestShiftedGeoMean(t *testing.T) {
	// With shift 0 it is the plain geometric mean.
	if g := ShiftedGeoMean([]float64{4, 9}, 0); math.Abs(g-6) > 1e-12 {
		t.Fatalf("geomean = %v, want 6", g)
	}
	// Shifted: exp(mean(log(t+10)))−10.
	if g := ShiftedGeoMean([]float64{0, 0}, 10); math.Abs(g) > 1e-12 {
		t.Fatalf("shifted geomean of zeros = %v", g)
	}
	if ShiftedGeoMean(nil, 10) != 0 {
		t.Fatal("empty mean should be 0")
	}
	// Order invariance.
	a := ShiftedGeoMean([]float64{1, 5, 20}, 10)
	b := ShiftedGeoMean([]float64{20, 1, 5}, 10)
	if math.Abs(a-b) > 1e-12 {
		t.Fatal("not symmetric")
	}
}

func TestGapPct(t *testing.T) {
	if g := gapPct(100, 99); math.Abs(g-1) > 1e-9 {
		t.Fatalf("gap = %v, want 1", g)
	}
	if !math.IsInf(gapPct(math.Inf(1), 5), 1) {
		t.Fatal("gap with infinite primal should be +Inf")
	}
}

// The Table-1 experiment at tiny scale: the root-dominated instance must
// not use more than a couple of solvers, and the formatted output must
// contain the paper's row labels.
func TestTable1ShapeAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	threads := []int{1, 2}
	rows := RunTable1(Table1Names[:1], threads, 20) // the root-dominated cc3-4p
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if !r.Solved[1] || !r.Solved[2] {
		t.Fatalf("cc3-4p analogue unsolved: %+v", r)
	}
	if r.MaxSolvers > 2 {
		t.Fatalf("root-dominated instance used %d solvers", r.MaxSolvers)
	}
	if r.RootTime <= 0 {
		t.Fatalf("no root time measured: %+v", r)
	}
	out := FormatTable1(rows, threads)
	for _, label := range []string{"# Threads", "root time", "max # solvers", "first max active time"} {
		if !strings.Contains(out, label) {
			t.Fatalf("formatted table missing %q:\n%s", label, out)
		}
	}
}

func TestTable2SeriesCloses(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ckpt := filepath.Join(t.TempDir(), "t2.ckpt")
	rows := RunTable2(Table2Name, 2, 0.3, 10, ckpt)
	if len(rows) == 0 {
		t.Fatal("no runs")
	}
	last := rows[len(rows)-1]
	if !last.Optimal {
		t.Fatalf("series did not close: %+v", last)
	}
	if last.FinalGap > 1e-6 {
		t.Fatalf("final gap %v", last.FinalGap)
	}
	// Dual bounds must not regress across runs.
	for i := 1; i < len(rows); i++ {
		if rows[i].InitialDual < rows[i-1].FinalDual-1e-6 {
			t.Fatalf("dual bound regressed between runs %d and %d", i-1, i)
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "Trans.") {
		t.Fatalf("format missing columns:\n%s", out)
	}
}

func TestTable3RunsAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows := RunTable3(Table3Name, 2, 2, 1.0)
	if len(rows) == 0 {
		t.Fatal("no runs")
	}
	// Primal never worsens across seeded runs.
	for i := 1; i < len(rows); i++ {
		if rows[i].FinalPrimal > rows[i-1].FinalPrimal+1e-6 {
			t.Fatalf("primal worsened: %+v", rows)
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "Primal(out)") {
		t.Fatalf("format wrong:\n%s", out)
	}
}

func TestTable4SmallAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := RunTable4(StandardTestsets(1), []int{1, 2}, 6)
	if len(res.RowNames) != 3 { // sequential + 2 thread counts
		t.Fatalf("rows: %v", res.RowNames)
	}
	for _, row := range res.RowNames {
		total := res.Cells[row]["Total"]
		if total.Solved < 0 || total.Solved > 3 {
			t.Fatalf("row %s solved %d of 3", row, total.Solved)
		}
	}
	out := res.Format()
	for _, fam := range []string{"TTD", "CLS", "Mk-P", "Total"} {
		if !strings.Contains(out, fam) {
			t.Fatalf("format missing %s:\n%s", fam, out)
		}
	}
}

func TestFigure1SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := RunFigure1(StandardTestsets(1), 4, 4, 6)
	total := res.Excluded
	for _, fams := range res.Winners {
		for _, c := range fams {
			total += c
		}
	}
	if total != 3 {
		t.Fatalf("winners+excluded = %d, want 3 instances", total)
	}
	out := res.Format()
	if !strings.Contains(out, "setting") {
		t.Fatalf("format wrong:\n%s", out)
	}
}

func TestStandardTestsetsComposition(t *testing.T) {
	insts := StandardTestsets(4)
	counts := map[string]int{}
	for _, in := range insts {
		counts[in.Family]++
		if in.Build() == nil {
			t.Fatal("nil instance")
		}
	}
	if counts["TTD"] != 4 || counts["CLS"] != 4 || counts["Mk-P"] != 4 {
		t.Fatalf("composition: %v", counts)
	}
}

// Every Table 1 column is as wide as its name: the header names stay
// apart and each row is as long as the header.
func TestFormatTable1FitsLongNames(t *testing.T) {
	var rows []Table1Row
	for _, name := range Table1Names {
		rows = append(rows, Table1Row{Name: name, Times: map[int]float64{1: 123.45}, Solved: map[int]bool{}})
	}
	lines := strings.Split(strings.TrimSuffix(FormatTable1(rows, []int{1}), "\n"), "\n")
	if got := strings.Fields(lines[0])[2:]; strings.Join(got, " ") != strings.Join(Table1Names, " ") {
		t.Fatalf("header names %q, want %q", got, Table1Names)
	}
	for _, l := range lines[1 : len(lines)-1] {
		if len(l) != len(lines[0]) {
			t.Fatalf("row %q is %d wide, the header %d:\n%s", l, len(l), len(lines[0]), strings.Join(lines, "\n"))
		}
	}
}
