package cli

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/ug"
)

// report prints the run summary — the same layout for every binary and
// every role — and, with -stats, the full statistics and metrics tables.
// Values are mapped from model space (the minimization form every
// scip.Prob is stated in, after presolve) back to the space the user
// posed the problem in: the presolve offset is added and, for a
// maximization problem, the sign flipped and the value marked.
func report(w io.Writer, res *ug.Result, offset float64, maxForm, stats bool, reg *obs.Registry) error {
	sign, note := 1.0, ""
	if maxForm {
		sign, note = -1, " (max form)"
	}
	obj := func(v float64) float64 { return sign * (v + offset) }
	st := res.Stats
	switch {
	case res.Optimal:
		fmt.Fprintf(w, "status   optimal\nobjective %.6g%s\n", obj(res.Obj), note)
	case res.Infeasible:
		fmt.Fprintln(w, "status   infeasible")
	default:
		fmt.Fprintf(w, "status   interrupted\nprimal   %.6g%s\ndual     %.6g%s\n",
			obj(st.FinalPrimal), note, obj(st.FinalDual), note)
	}
	fmt.Fprintf(w, "time     %.2fs (root %.2fs)\n", st.Time, st.RootTime)
	fmt.Fprintf(w, "nodes    %d total, %d open at end, %d transferred, %d collected\n",
		st.TotalNodes, st.OpenAtEnd, st.Dispatched, st.Collected)
	fmt.Fprintf(w, "solvers  max active %d (first at %.2fs)\n", st.MaxActive, st.FirstMaxActiveTime)
	if st.CheckpointErrors > 0 {
		fmt.Fprintf(w, "warning  %d checkpoint save(s) failed; the file on disk may be stale\n",
			st.CheckpointErrors)
	}
	if st.RacingWinner >= 0 {
		fmt.Fprintf(w, "racing   winner settings %d (%s), solved in racing: %v\n",
			st.RacingWinner, st.RacingWinnerName, st.SolvedInRacing)
	}
	for i, r := range st.IdleRatio {
		fmt.Fprintf(w, "idle[%d]  %.1f%%\n", i+1, 100*r)
	}
	if !stats {
		return nil
	}
	fmt.Fprintln(w, "\n--- run statistics ---")
	if err := ug.FormatStats(w, st); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n--- metrics ---")
	return obs.WriteTable(w, reg.Snapshot())
}
