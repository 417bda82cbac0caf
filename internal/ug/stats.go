package ug

import (
	"fmt"
	"io"
	"math"
)

// FormatStats renders the full RunStats as an aligned two-column table —
// the paper-style statistics block the CLIs print under -stats. All the
// rich counters the coordinator keeps (and used to keep invisibly) are
// shown; per-worker lines appear when per-rank data exists.
func FormatStats(w io.Writer, st RunStats) error {
	rows := []struct {
		name  string
		value string
	}{
		{"time (s)", fmt.Sprintf("%.3f", st.Time)},
		{"root time (s)", fmt.Sprintf("%.3f", st.RootTime)},
		{"ticks", fmt.Sprintf("%d", st.Ticks)},
		{"total nodes", fmt.Sprintf("%d", st.TotalNodes)},
		{"open at end", fmt.Sprintf("%d", st.OpenAtEnd)},
		{"dispatched", fmt.Sprintf("%d", st.Dispatched)},
		{"collected", fmt.Sprintf("%d", st.Collected)},
		{"transfer bytes", fmt.Sprintf("%d", st.TransferBytes)},
		{"status reports", fmt.Sprintf("%d", st.StatusReports)},
		{"max pool depth", fmt.Sprintf("%d", st.MaxPoolDepth)},
		{"collect phases", fmt.Sprintf("%d", st.CollectPhases)},
		{"max active", fmt.Sprintf("%d (first at %.3fs)", st.MaxActive, st.FirstMaxActiveTime)},
		{"LP iterations", fmt.Sprintf("%d", st.LPIterations)},
		{"cuts added", fmt.Sprintf("%d", st.CutsAdded)},
		{"solutions found", fmt.Sprintf("%d", st.SolsFound)},
		{"prop fixings", fmt.Sprintf("%d", st.PropFixings)},
		{"phase times (s)", fmt.Sprintf("presolve %.3f  LP %.3f  relax %.3f  sepa %.3f  heur %.3f  prop %.3f",
			st.Phases.Presolve, st.Phases.LP, st.Phases.Relax,
			st.Phases.Separation, st.Phases.Heuristics, st.Phases.Propagation)},
		{"initial bounds", fmt.Sprintf("primal %s  dual %s", fmtBound(st.InitialPrimal), fmtBound(st.InitialDual))},
		{"final bounds", fmt.Sprintf("primal %s  dual %s", fmtBound(st.FinalPrimal), fmtBound(st.FinalDual))},
	}
	if st.Restarted {
		rows = append(rows, struct{ name, value string }{
			"restart", fmt.Sprintf("pool at start %d", st.PoolAtStart)})
	}
	if st.CheckpointErrors > 0 {
		rows = append(rows, struct{ name, value string }{
			"checkpoint errors", fmt.Sprintf("%d", st.CheckpointErrors)})
	}
	if st.RacingWinner >= 0 {
		rows = append(rows, struct{ name, value string }{
			"racing winner", fmt.Sprintf("settings %d (%s), solved in racing: %v",
				st.RacingWinner, st.RacingWinnerName, st.SolvedInRacing)})
	}
	for i := range st.PerWorkerNodes {
		idle := ""
		if i < len(st.IdleRatio) {
			idle = fmt.Sprintf(", idle %.1f%%", 100*st.IdleRatio[i])
		}
		rows = append(rows, struct{ name, value string }{
			fmt.Sprintf("worker[%d]", i+1),
			fmt.Sprintf("%d nodes%s", st.PerWorkerNodes[i], idle)})
	}

	nameW := 0
	for _, r := range rows {
		if len(r.name) > nameW {
			nameW = len(r.name)
		}
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-*s  %s\n", nameW, r.name, r.value); err != nil {
			return err
		}
	}
	return nil
}

// fmtBound renders a bound, keeping infinities readable.
func fmtBound(x float64) string {
	if math.IsInf(x, 1) {
		return "+inf"
	}
	if math.IsInf(x, -1) {
		return "-inf"
	}
	return fmt.Sprintf("%.6g", x)
}
