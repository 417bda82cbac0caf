// Command ugtrace renders the JSONL event traces written by ugsteiner
// and ugmisdp under -trace. It validates the stream invariants (dense
// sequence numbers, monotone logical ticks, known event kinds, balanced
// collect-mode intervals) and derives the views the paper's figures are
// built from: the dual/primal bound trajectory, the busy/idle solver
// timeline, collect-mode intervals, and the racing ladder table.
//
// With -merge it joins the per-rank traces of a distributed (-net-procs
// or -net-listen/-net-connect) run into one causally consistent global
// timeline, ordered by the Lamport clocks the transport piggybacks on
// every frame, and checks the cross-rank invariants (every worker event
// inside its dispatch→outcome window, collected nodes only after they
// were shipped).
//
// Usage:
//
//	ugtrace run.trace             # validate + all report sections
//	ugtrace -validate run.trace   # validation only (CI gate); exit 1 on failure
//	ugtrace -bounds run.trace     # bound trajectory only
//	ugtrace -timeline run.trace   # busy/idle solver timeline only
//	ugtrace -collect run.trace    # collect-mode intervals only
//	ugtrace -racing run.trace     # racing ladder table only
//	ugtrace -gantt run.trace      # per-rank busy/idle utilization bars
//	ugtrace -load run.trace       # CSV of in-flight and open nodes over ticks
//	ugtrace -critpath run.trace   # longest dispatch→outcome chain + idle attribution
//
//	ugtrace -postmortem bundle-dir   # validate + summarize a forensics bundle
//
//	ugtrace -merge run.trace run.trace.rank1 run.trace.rank2   # merged JSONL to stdout
//	ugtrace -merge -o merged.trace run.trace run.trace.rank*   # merged JSONL to a file
//	ugtrace -merge -validate run.trace run.trace.rank*         # cross-rank validation only
//	ugtrace -merge -gantt -critpath run.trace run.trace.rank*  # analytics on the merged timeline
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

func main() {
	var (
		validateOnly = flag.Bool("validate", false, "only validate the trace; exit nonzero on malformed or out-of-order events")
		bounds       = flag.Bool("bounds", false, "print the dual/primal bound trajectory")
		timeline     = flag.Bool("timeline", false, "print the busy/idle solver timeline")
		collect      = flag.Bool("collect", false, "print collect-mode intervals")
		racing       = flag.Bool("racing", false, "print the racing ladder table")
		gantt        = flag.Bool("gantt", false, "print per-rank busy/idle utilization bars")
		loadCSV      = flag.Bool("load", false, "print a CSV of in-flight and open node counts over ticks")
		critpath     = flag.Bool("critpath", false, "print the longest dispatch→outcome chain and per-rank idle attribution")
		merge        = flag.Bool("merge", false, "merge multiple per-rank traces into one causal timeline (Lamport-clock order)")
		output       = flag.String("o", "", "with -merge: write the merged JSONL trace to this file")
		frames       = flag.Bool("frames", false, "validate a captured /events SSE frame log: each line (after any 'data: ' prefix) must parse as a schema-known event; stream invariants are not checked")
		postmortem   = flag.Bool("postmortem", false, "validate and summarize a forensics bundle directory (written on panic, stall, run error or failed job)")
	)
	flag.Parse()
	if *postmortem {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: ugtrace -postmortem <bundle-dir>")
			os.Exit(2)
		}
		runPostmortem(flag.Arg(0))
		return
	}
	if *frames {
		runFrames()
		return
	}
	sel := reports{*bounds, *timeline, *collect, *racing, *gantt, *loadCSV, *critpath}
	if *merge {
		runMerge(*validateOnly, *output, sel)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ugtrace [-validate|-bounds|-timeline|-collect|-racing|-gantt|-load|-critpath] trace.jsonl")
		fmt.Fprintln(os.Stderr, "       ugtrace -merge [-o merged.jsonl] [flags] coord.jsonl rank1.jsonl ...")
		os.Exit(2)
	}

	events := readTraceFile(flag.Arg(0))
	if err := obs.ValidateTrace(events); err != nil {
		fatal(fmt.Errorf("invalid trace: %w", err))
	}
	if err := validateComplete(events); err != nil {
		fatal(fmt.Errorf("invalid trace: %w", err))
	}
	if *validateOnly {
		fmt.Printf("ok: %d events, %d kinds, final tick %d\n",
			len(events), countKinds(events), finalTick(events))
		return
	}

	if sel == (reports{}) {
		sel = reports{bounds: true, timeline: true, collect: true, racing: true}
	}
	sel.print(os.Stdout, events)
}

// reports selects the report sections to print, one per report flag.
type reports struct{ bounds, timeline, collect, racing, gantt, load, critpath bool }

// print writes the selected sections of events to w, in flag order.
func (r reports) print(w io.Writer, events []obs.Event) {
	for _, s := range []struct {
		on     bool
		report func(io.Writer, []obs.Event)
	}{
		{r.bounds, reportBounds}, {r.timeline, reportTimeline}, {r.collect, reportCollect},
		{r.racing, reportRacing}, {r.gantt, reportGantt}, {r.load, reportLoad}, {r.critpath, reportCritpath},
	} {
		if s.on {
			s.report(w, events)
		}
	}
}

// runMerge is the -merge mode: read every per-rank trace, validate each
// in isolation, join them into the global Lamport-clock order, validate
// the cross-rank invariants, and either emit the merged JSONL (to -o or
// stdout) or run the requested analytics on the merged timeline.
func runMerge(validateOnly bool, output string, sel reports) {
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: ugtrace -merge [-o merged.jsonl] [flags] coord.jsonl rank1.jsonl ...")
		os.Exit(2)
	}
	traces := make([][]obs.Event, 0, flag.NArg())
	for _, path := range flag.Args() {
		events := readTraceFile(path)
		if err := obs.ValidateTrace(events); err != nil {
			fatal(fmt.Errorf("%s: invalid trace: %w", path, err))
		}
		if err := validateComplete(events); err != nil {
			fatal(fmt.Errorf("%s: invalid trace: %w", path, err))
		}
		traces = append(traces, events)
	}
	merged, err := obs.MergeTraces(traces...)
	if err != nil {
		fatal(err)
	}
	if err := obs.ValidateMergedTrace(merged); err != nil {
		fatal(fmt.Errorf("merged trace: %w", err))
	}
	if validateOnly {
		fmt.Printf("ok: merged %d events from %d traces, %d kinds, final clock %d\n",
			len(merged), len(traces), countKinds(merged), finalTick(merged))
		return
	}
	if output != "" {
		var buf bytes.Buffer
		_ = obs.WriteTrace(&buf, merged) // writes to a bytes.Buffer cannot fail
		if err := os.WriteFile(output, buf.Bytes(), 0o644); err != nil {
			fatal(err)
		}
	}
	if sel == (reports{}) {
		if output == "" {
			if err := obs.WriteTrace(os.Stdout, merged); err != nil {
				fatal(err)
			}
		}
		return
	}
	sel.print(os.Stdout, merged)
}

// runFrames is the -frames mode: validate a log of frames captured from
// the live /events SSE stream. Unlike a trace file, a captured window
// starts at an arbitrary sequence number and may have holes (the bus
// drops oldest on backpressure), so only per-event validity is checked:
// each non-comment line must parse under the trace codec and carry a
// schema-known kind. This is the check the telemetry smoke test applies
// to frames scraped mid-solve.
func runFrames() {
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ugtrace -frames frames.log")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	n, line := 0, 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		raw = strings.TrimPrefix(raw, "data: ")
		if raw == "" || strings.HasPrefix(raw, ":") {
			continue // SSE keepalive comment or frame separator
		}
		ev, err := obs.ParseLine([]byte(raw))
		if err != nil {
			fatal(fmt.Errorf("frame line %d: %w", line, err))
		}
		if !obs.KnownKind(ev.Kind) {
			fatal(fmt.Errorf("frame line %d: unknown event kind %q", line, ev.Kind))
		}
		n++
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if n == 0 {
		fatal(fmt.Errorf("no event frames in %s", flag.Arg(0)))
	}
	fmt.Printf("ok: %d event frames\n", n)
}

// readTraceFile loads one JSONL trace, treating a read error — including
// the partial-trailing-record truncation ReadTrace detects — as fatal.
func readTraceFile(path string) []obs.Event {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	events, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return events
}

// validateComplete checks run-lifecycle completeness on top of
// obs.ValidateTrace: a trace that opens a run (run.start) must close it
// (run.end) — a missing run.end means the writing process died mid-solve
// or the file was cut short. Worker traces have no run lifecycle (they
// open with comm.connect) and pass vacuously.
func validateComplete(events []obs.Event) error {
	started, ended := false, false
	for _, e := range events {
		switch e.Kind {
		case obs.KindRunStart:
			started = true
		case obs.KindRunEnd:
			ended = true
		}
	}
	if started && !ended {
		return fmt.Errorf("run.start without run.end — the run did not finish (process died or trace cut short)")
	}
	return nil
}

func countKinds(events []obs.Event) int {
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
	}
	return len(kinds)
}

func finalTick(events []obs.Event) int64 {
	if len(events) == 0 {
		return 0
	}
	return events[len(events)-1].Tick
}

// reportBounds prints the trajectory of the global dual and primal
// bounds over logical time — the data behind the paper's convergence
// plots. Sequential (scip.node) traces contribute their per-node bounds.
func reportBounds(w io.Writer, events []obs.Event) {
	fmt.Fprintln(w, "=== bound trajectory ===")
	fmt.Fprintf(w, "%8s  %10s  %14s  %14s  %s\n", "tick", "wall(s)", "dual", "primal", "source")
	n := 0
	for _, e := range events {
		var src string
		switch e.Kind {
		case obs.KindDualBound:
			src = "dual-bound change"
		case obs.KindIncumbent:
			src = fmt.Sprintf("incumbent from rank %d", e.Rank)
		case obs.KindRunEnd:
			src = "final"
		case obs.KindScipNode:
			src = fmt.Sprintf("node %d", e.Sub)
		default:
			continue
		}
		fmt.Fprintf(w, "%8d  %10.3f  %14.6g  %14.6g  %s\n", e.Tick, e.Wall, e.Dual, e.Primal, src)
		n++
	}
	if n == 0 {
		fmt.Fprintln(w, "(no bound events)")
	}
	fmt.Fprintln(w)
}

// busySpans reconstructs per-rank busy intervals from the coordinator's
// solver.busy/solver.idle events, closing any interval still open at
// the final tick. Shared by the timeline, gantt, and critpath reports.
func busySpans(events []obs.Event) (map[int][]tickSpan, int64) {
	busySince := map[int]int64{}
	spans := map[int][]tickSpan{}
	end := finalTick(events)
	for _, e := range events {
		switch e.Kind {
		case obs.KindSolverBusy:
			busySince[e.Rank] = e.Tick
		case obs.KindSolverIdle:
			if from, ok := busySince[e.Rank]; ok {
				spans[e.Rank] = append(spans[e.Rank], tickSpan{from, e.Tick})
				delete(busySince, e.Rank)
			}
		}
	}
	for rank, from := range busySince {
		spans[rank] = append(spans[rank], tickSpan{from, end})
	}
	for _, ss := range spans {
		sort.Slice(ss, func(a, b int) bool { return ss[a].from < ss[b].from })
	}
	return spans, end
}

// tickSpan is a half-open [from,to] interval in logical ticks.
type tickSpan struct{ from, to int64 }

// sortedRanks returns the keys of a per-rank map in ascending order, so
// every report walks ranks deterministically.
func sortedRanks[V any](m map[int]V) []int {
	ranks := make([]int, 0, len(m))
	for rank := range m {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	return ranks
}

// reportTimeline prints per-rank busy/idle intervals in logical time,
// plus a per-rank utilization summary. Intervals still open when the
// trace ends are closed at the final tick.
func reportTimeline(w io.Writer, events []obs.Event) {
	fmt.Fprintln(w, "=== solver timeline (logical ticks) ===")
	spans, end := busySpans(events)
	ranks := sortedRanks(spans)
	if len(ranks) == 0 {
		fmt.Fprintln(w, "(no solver busy/idle events)")
		fmt.Fprintln(w)
		return
	}
	for _, rank := range ranks {
		var busy int64
		fmt.Fprintf(w, "rank %d:", rank)
		for _, s := range spans[rank] {
			fmt.Fprintf(w, " [%d,%d]", s.from, s.to)
			busy += s.to - s.from
		}
		if end > 0 {
			fmt.Fprintf(w, "  busy %.1f%% of %d ticks", 100*float64(busy)/float64(end), end)
		}
		fmt.Fprintln(w)
	}
	for _, e := range events {
		if e.Kind == obs.KindWatchdogStall {
			fmt.Fprintf(w, "STALL at tick %d (wall %.1fs): %d rank(s) quiet, stalest rank %d — %s\n",
				e.Tick, e.Wall, e.Open, e.Rank, e.Str)
		}
	}
	fmt.Fprintln(w)
}

// reportGantt renders the busy/idle timeline as fixed-width utilization
// bars — one row per rank, '#' where the rank was solving a subproblem
// and '.' where it sat idle — so a merged distributed trace shows the
// load balance of the whole run at a glance.
func reportGantt(w io.Writer, events []obs.Event) {
	fmt.Fprintln(w, "=== gantt (per-rank busy/idle) ===")
	spans, end := busySpans(events)
	ranks := sortedRanks(spans)
	if len(ranks) == 0 || end <= 0 {
		fmt.Fprintln(w, "(no solver busy/idle events)")
		fmt.Fprintln(w)
		return
	}
	const width = 60
	for _, rank := range ranks {
		bar := make([]byte, width)
		for i := range bar {
			bar[i] = '.'
		}
		var busy int64
		for _, s := range spans[rank] {
			busy += s.to - s.from
			lo := int(s.from * width / end)
			hi := int(s.to * width / end)
			if hi <= lo {
				hi = lo + 1 // a short span still shows one cell
			}
			for i := lo; i < hi && i < width; i++ {
				bar[i] = '#'
			}
		}
		fmt.Fprintf(w, "rank %-3d |%s| busy %5.1f%%\n", rank, bar, 100*float64(busy)/float64(end))
	}
	fmt.Fprintf(w, "ticks 0..%d, one cell = %.1f ticks\n\n", end, float64(end)/width)
}

// reportLoad prints a CSV of the solver load over logical time: one row
// per load-changing event with the number of subproblems in flight
// (dispatched, outcome pending) and the total open nodes last reported
// by the workers. Plot tick against either column for the paper's
// load-over-time figures.
func reportLoad(w io.Writer, events []obs.Event) {
	fmt.Fprintln(w, "tick,inflight,open")
	inflight := 0
	perRankOpen := map[int]int{}
	total := 0
	recompute := func() {
		total = 0
		for _, n := range perRankOpen {
			total += n
		}
	}
	n := 0
	for _, e := range events {
		switch e.Kind {
		case obs.KindDispatch:
			inflight++
		case obs.KindOutcome:
			inflight--
			perRankOpen[e.Rank] = e.Open
			recompute()
		case obs.KindStatus:
			perRankOpen[e.Rank] = e.Open
			recompute()
		default:
			continue
		}
		fmt.Fprintf(w, "%d,%d,%d\n", e.Tick, inflight, total)
		n++
	}
	if n == 0 {
		fmt.Fprintln(os.Stderr, "ugtrace: warning: no dispatch/outcome/status events for -load")
	}
}

// reportCritpath reconstructs the dispatch→outcome intervals (matched
// per rank in FIFO order — the coordinator keeps at most one subproblem
// in flight per rank), finds the longest chain of causally ordered
// intervals by total duration, and attributes idle time per rank. The
// chain is the run's critical path: the sequence of subproblem solves
// that bounded the makespan.
func reportCritpath(w io.Writer, events []obs.Event) {
	fmt.Fprintln(w, "=== critical path (dispatch→outcome chains) ===")
	type interval struct {
		rank     int
		sub      int64
		from, to int64
	}
	pending := map[int][]interval{}
	var ivs []interval
	for _, e := range events {
		switch e.Kind {
		case obs.KindDispatch:
			pending[e.Rank] = append(pending[e.Rank], interval{rank: e.Rank, sub: e.Sub, from: e.Tick})
		case obs.KindOutcome:
			if q := pending[e.Rank]; len(q) > 0 {
				iv := q[0]
				pending[e.Rank] = q[1:]
				iv.to = e.Tick
				ivs = append(ivs, iv)
			}
		}
	}
	if len(ivs) == 0 {
		fmt.Fprintln(w, "(no completed dispatch→outcome intervals)")
		fmt.Fprintln(w)
		return
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].from < ivs[b].from })
	// Longest chain of non-overlapping (causally ordered) intervals by
	// total covered ticks; O(n²) is fine at trace sizes.
	best := make([]int64, len(ivs))
	prev := make([]int, len(ivs))
	argmax := 0
	for i, iv := range ivs {
		best[i] = iv.to - iv.from
		prev[i] = -1
		for j := 0; j < i; j++ {
			if ivs[j].to <= iv.from && best[j]+iv.to-iv.from > best[i] {
				best[i] = best[j] + iv.to - iv.from
				prev[i] = j
			}
		}
		if best[i] > best[argmax] {
			argmax = i
		}
	}
	var chain []interval
	for i := argmax; i >= 0; i = prev[i] {
		chain = append(chain, ivs[i])
	}
	for a, b := 0, len(chain)-1; a < b; a, b = a+1, b-1 {
		chain[a], chain[b] = chain[b], chain[a]
	}
	end := finalTick(events)
	fmt.Fprintf(w, "%d intervals, longest chain %d links covering %d of %d ticks (%.1f%%)\n",
		len(ivs), len(chain), best[argmax], end, pct(best[argmax], end))
	for _, iv := range chain {
		fmt.Fprintf(w, "  rank %-3d sub %-6d ticks [%d,%d] (%d)\n", iv.rank, iv.sub, iv.from, iv.to, iv.to-iv.from)
	}
	// Idle attribution: ticks each rank spent without a subproblem in
	// flight — where extra parallel work could have gone.
	busy := map[int]int64{}
	for _, iv := range ivs {
		busy[iv.rank] += iv.to - iv.from
	}
	fmt.Fprintln(w, "idle attribution:")
	for _, rank := range sortedRanks(busy) {
		fmt.Fprintf(w, "  rank %-3d busy %d ticks, idle %d ticks (%.1f%% idle)\n",
			rank, busy[rank], end-busy[rank], pct(end-busy[rank], end))
	}
	fmt.Fprintln(w)
}

// pct renders a/b as a percentage, tolerating b == 0.
func pct(a, b int64) float64 {
	if b <= 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// reportCollect prints collect-mode intervals (dynamic load balancing
// phases) with the number of nodes collected inside each.
func reportCollect(w io.Writer, events []obs.Event) {
	fmt.Fprintln(w, "=== collect-mode intervals ===")
	open := int64(-1)
	var openDepth, nodes, total int
	n := 0
	for _, e := range events {
		switch e.Kind {
		case obs.KindCollectStart:
			open, openDepth, nodes = e.Tick, e.Open, 0
		case obs.KindCollectNode:
			nodes++
			total++
		case obs.KindCollectStop:
			if open >= 0 {
				fmt.Fprintf(w, "ticks [%d,%d]: pool %d -> %d, %d nodes collected\n",
					open, e.Tick, openDepth, e.Open, nodes)
				n++
				open = -1
			}
		}
	}
	if open >= 0 {
		fmt.Fprintf(w, "ticks [%d,end]: pool %d -> ?, %d nodes collected (unterminated)\n",
			open, openDepth, nodes)
		n++
	}
	if n == 0 {
		fmt.Fprintf(w, "(no collect phases; %d stray collect.node events)\n", total)
	}
	fmt.Fprintln(w)
}

// reportRacing prints the racing ramp-up ladder: which settings ran on
// which rank, and who won.
func reportRacing(w io.Writer, events []obs.Event) {
	fmt.Fprintln(w, "=== racing ladder ===")
	started := false
	byRank := map[int]string{}
	for _, e := range events {
		switch e.Kind {
		case obs.KindRacingStart:
			started = true
			fmt.Fprintf(w, "racing started at tick %d with %d rungs\n", e.Tick, e.Open)
		case obs.KindDispatch:
			if started && e.Str != "" {
				byRank[e.Rank] = e.Str
			}
		case obs.KindRacingWinner:
			for _, rank := range sortedRanks(byRank) {
				marker := " "
				if rank == e.Rank {
					marker = "*"
				}
				fmt.Fprintf(w, "%s rank %-3d %s\n", marker, rank, byRank[rank])
			}
			fmt.Fprintf(w, "winner: rank %d, settings %d (%s) at tick %d\n", e.Rank, e.Sub, e.Str, e.Tick)
		case obs.KindRacingDone:
			fmt.Fprintf(w, "wind-up finished at tick %d\n", e.Tick)
		}
	}
	if !started {
		fmt.Fprintln(w, "(no racing events)")
	}
	fmt.Fprintln(w)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ugtrace:", err)
	os.Exit(1)
}
