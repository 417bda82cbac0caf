// Package experiments contains the harness that regenerates every table
// and figure of the paper's evaluation section (section 4): Table 1
// (shared-memory ug[SCIP-Jack] scaling), Table 2 (checkpoint-restart
// series on a bip instance), Table 3 (incumbent-improvement runs with
// racing), Table 4 (ug[SCIP-SDP] speedups over the CBLIB families) and
// Figure 1 (racing-winner statistics per setting). The same code backs
// bench_test.go (scaled-down) and cmd/benchtables (full runs); instance
// dimensions are reduced versus the paper per DESIGN.md's substitution
// notes, so shapes — not absolute numbers — are the reproduction target.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/scip"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
	"repro/internal/ug"
)

// ShiftedGeoMean computes the shifted geometric mean with shift s, the
// aggregation used throughout the paper's Table 4.
func ShiftedGeoMean(times []float64, shift float64) float64 {
	if len(times) == 0 {
		return 0
	}
	var acc float64
	for _, t := range times {
		acc += math.Log(t + shift)
	}
	return math.Exp(acc/float64(len(times))) - shift
}

// ----------------------------------------------------------------------
// Table 1: shared-memory scaling of ug[SCIP-Jack,C++11].

// The Steiner instances of Tables 1–3, by their puc.Named names; their
// roles are noted beside them in the registry. Table 1 runs from the
// root-dominated cc3-4p to the headline instance that is open
// sequentially but closes in parallel.
var (
	Table1Names = []string{"cc3-4p", "cc3-5u", "hypercubespread-5-16-100-163-19",
		"hypercubespread-5-16-100-165-23", "hypercubespread-6-32-100-168-3"}
	Table2Name = "hypercubespread-5-16-100-163-19"
	Table3Name = "hypercube-5-1-5"
)

// ScalingSettings is the solver configuration used for the Table 1–3
// runs: moderate separation, so the search trees stay large enough to
// exercise the parallelization (the aggressive root-separation default
// collapses the scaled-down instances to a handful of nodes, leaving
// nothing to parallelize).
func ScalingSettings() scip.Settings {
	s := steiner.DefaultSettings()
	s.Name = "stp-scaling"
	s.SepaRounds = 8
	s.MaxCutRows = 150
	return s
}

// scalingLadder is ScalingSettings plus the racing variations.
func scalingLadder() []scip.Settings {
	ladder := append([]scip.Settings{ScalingSettings()}, steiner.RacingLadder(15)...)
	for i := range ladder[1:] {
		ladder[i+1].SepaRounds = 8
		ladder[i+1].MaxCutRows = 150
	}
	return ladder
}

// named builds a registered Steiner instance; an unknown name is a bug
// in the caller.
func named(name string) *steiner.SPG {
	spg := puc.Named(name)
	if spg == nil {
		panic(fmt.Sprintf("experiments: unknown Steiner instance %q", name))
	}
	return spg
}

// Table1Row is one column of the paper's Table 1 (an instance).
type Table1Row struct {
	Name               string
	Times              map[int]float64 // threads → seconds
	Solved             map[int]bool
	RootTime           float64
	MaxSolvers         int
	FirstMaxActiveTime float64
	Objective          float64
}

// RunTable1 solves every named instance at every thread count with
// normal ramp-up, recording the statistics of the paper's Table 1.
func RunTable1(names []string, threads []int, timeLimit float64) []Table1Row {
	var rows []Table1Row
	for _, name := range names {
		row := Table1Row{
			Name:   name,
			Times:  map[int]float64{},
			Solved: map[int]bool{},
		}
		maxThreads := threads[len(threads)-1]
		for _, th := range threads {
			app := steiner.NewAppWithSettings(named(name), scalingLadder())
			res, factory, err := core.SolveParallel(app, ug.Config{
				Workers:        th,
				TimeLimit:      timeLimit,
				StatusInterval: 2e-3,
				ShipInterval:   1e-3,
			})
			if err != nil {
				panic(err)
			}
			row.Times[th] = res.Stats.Time
			row.Solved[th] = res.Optimal
			if res.Optimal {
				row.Objective = res.Obj + factory.ObjOffset()
			}
			if th == maxThreads {
				// Root time, solver utilization measured at max parallelism,
				// as in the paper's bottom rows.
				row.RootTime = res.Stats.RootTime
				row.MaxSolvers = res.Stats.MaxActive
				row.FirstMaxActiveTime = res.Stats.FirstMaxActiveTime
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatTable1 renders rows in the layout of the paper's Table 1, one
// column per instance, each as wide as the longest name needs.
func FormatTable1(rows []Table1Row, threads []int) string {
	w := 12
	for _, r := range rows {
		w = max(w, len(r.Name)+1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "# Threads")
	for _, r := range rows {
		fmt.Fprintf(&b, "%*s", w, r.Name)
	}
	b.WriteByte('\n')
	for _, th := range threads {
		fmt.Fprintf(&b, "%-22d", th)
		for _, r := range rows {
			mark := ""
			if !r.Solved[th] {
				mark = "*"
			}
			fmt.Fprintf(&b, "%*.2f%s", w-1, r.Times[th], orSpace(mark))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-22s", "root time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%*.2f", w, r.RootTime)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-22s", "max # solvers")
	for _, r := range rows {
		fmt.Fprintf(&b, "%*d", w, r.MaxSolvers)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-22s", "first max active time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%*.2f", w, r.FirstMaxActiveTime)
	}
	b.WriteByte('\n')
	b.WriteString("(* = hit the time limit)\n")
	return b.String()
}

func orSpace(s string) string {
	if s == "" {
		return " "
	}
	return s
}

// ----------------------------------------------------------------------
// Table 2: checkpoint-restart series (bip52u).

// Table2Row is one run of the restart series.
type Table2Row struct {
	Run           string
	Cores         int
	TimeSec       float64
	IdleMax       float64
	TransNodes    int64
	InitialPrimal float64
	InitialDual   float64
	FinalPrimal   float64
	FinalDual     float64
	InitialGap    float64
	FinalGap      float64
	Nodes         int64
	OpenStart     int
	OpenEnd       int
	Optimal       bool
}

// RunTable2 reproduces the paper's bip52u experiment on the named
// instance: a series of time-limited runs, each restarted from the
// previous run's checkpoint, with the last run (no limit) closing the
// instance. Bounds are reported with the presolve objective offset.
func RunTable2(name string, workers int, runSeconds float64, maxRuns int, ckptPath string) []Table2Row {
	var rows []Table2Row
	restart := ""
	for runIdx := 1; runIdx <= maxRuns; runIdx++ {
		cfg := ug.Config{
			Workers:         workers,
			TimeLimit:       runSeconds,
			CheckpointPath:  ckptPath,
			CheckpointEvery: runSeconds / 20,
			RestartFrom:     restart,
			StatusInterval:  2e-3,
			ShipInterval:    1e-3,
		}
		if runIdx == maxRuns {
			cfg.TimeLimit = 0 // final run: solve to optimality
		}
		res, factory, err := core.SolveParallel(steiner.NewAppWithSettings(named(name), scalingLadder()), cfg)
		if err != nil {
			panic(err)
		}
		off := factory.ObjOffset()
		st := res.Stats
		maxIdle := 0.0
		for _, r := range st.IdleRatio {
			if r > maxIdle {
				maxIdle = r
			}
		}
		row := Table2Row{
			Run:           fmt.Sprintf("1.%d", runIdx),
			Cores:         workers,
			TimeSec:       st.Time,
			IdleMax:       maxIdle,
			TransNodes:    st.Dispatched,
			InitialPrimal: st.InitialPrimal + off,
			InitialDual:   st.InitialDual + off,
			FinalPrimal:   st.FinalPrimal + off,
			FinalDual:     st.FinalDual + off,
			InitialGap:    gapPct(st.InitialPrimal+off, st.InitialDual+off),
			FinalGap:      gapPct(st.FinalPrimal+off, st.FinalDual+off),
			Nodes:         st.TotalNodes,
			OpenStart:     st.PoolAtStart,
			OpenEnd:       st.OpenAtEnd,
			Optimal:       res.Optimal,
		}
		rows = append(rows, row)
		if res.Optimal {
			break
		}
		restart = ckptPath
	}
	return rows
}

func gapPct(primal, dual float64) float64 {
	if math.IsInf(primal, 1) || math.IsInf(dual, -1) || math.Abs(primal) < 1e-12 {
		return math.Inf(1)
	}
	return 100 * (primal - dual) / math.Abs(primal)
}

// FormatTable2 renders the restart series like the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %6s %9s %7s %9s | %10s %10s %7s | %9s %10s\n",
		"Run", "Cores", "Time(s)", "Idle%", "Trans.",
		"Primal", "Dual", "Gap%", "Nodes", "Open")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %6d %9.2f %7.1f %9d | %10.2f %10.2f %7.2f | %9s %10d\n",
			r.Run, r.Cores, r.TimeSec, 100*r.IdleMax, r.TransNodes,
			r.InitialPrimal, r.InitialDual, r.InitialGap, "0", r.OpenStart)
		fmt.Fprintf(&b, "%-5s %6s %9s %7s %9s | %10.2f %10.2f %7.2f | %9d %10d\n",
			"", "", "", "", "",
			r.FinalPrimal, r.FinalDual, r.FinalGap, r.Nodes, r.OpenEnd)
	}
	return b.String()
}

// ----------------------------------------------------------------------
// Table 3: incumbent-improvement runs with racing ramp-up (hc10p).

// Table3Row is one seeded racing run.
type Table3Row struct {
	Run           int
	TimeSec       float64
	InitialPrimal float64
	FinalPrimal   float64
	FinalDual     float64
	Nodes         int64
	Improved      bool
	Optimal       bool
}

// RunTable3 reproduces the paper's hc10p experiment on the named
// instance: repeated time-limited racing runs, each seeded with the
// previous run's best solution; the interest is whether each run
// improves the incumbent.
func RunTable3(name string, workers, runs int, runSeconds float64) []Table3Row {
	var rows []Table3Row
	var seed *ug.Solution
	for runIdx := 1; runIdx <= runs; runIdx++ {
		// Each run races with freshly seeded settings (the paper's runs
		// differ too — new racing trees are the point of re-running).
		ladder := scalingLadder()
		for i := range ladder {
			ladder[i].Seed += int64(runIdx * 7919)
			ladder[i].PermuteTieBreak = true
		}
		res, factory, err := core.SolveParallel(steiner.NewAppWithSettings(named(name), ladder), ug.Config{
			Workers:         workers,
			TimeLimit:       runSeconds,
			RampUp:          ug.RampUpRacing,
			RacingTime:      runSeconds / 5,
			InitialSolution: seed,
			StatusInterval:  2e-3,
			ShipInterval:    1e-3,
		})
		if err != nil {
			panic(err)
		}
		off := factory.ObjOffset()
		st := res.Stats
		row := Table3Row{
			Run:           runIdx,
			TimeSec:       st.Time,
			InitialPrimal: st.InitialPrimal + off,
			FinalPrimal:   st.FinalPrimal + off,
			FinalDual:     st.FinalDual + off,
			Nodes:         st.TotalNodes,
			Improved:      st.FinalPrimal < st.InitialPrimal-1e-9,
			Optimal:       res.Optimal,
		}
		rows = append(rows, row)
		if res.Sol != nil {
			seed = res.Sol
		}
		if res.Optimal {
			break
		}
	}
	return rows
}

// FormatTable3 renders the run series like the paper's Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %9s | %12s %12s %10s | %9s %9s %8s\n",
		"Run", "Time(s)", "Primal(in)", "Primal(out)", "Dual", "Nodes", "Improved", "Optimal")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d %9.2f | %12.2f %12.2f %10.2f | %9d %9v %8v\n",
			r.Run, r.TimeSec, r.InitialPrimal, r.FinalPrimal, r.FinalDual,
			r.Nodes, r.Improved, r.Optimal)
	}
	return b.String()
}

// ----------------------------------------------------------------------
// Table 4: ug[SCIP-SDP,C++11] over the CBLIB families.

// MISDPInstance names one Table-4 instance.
type MISDPInstance struct {
	Family string // "TTD", "CLS", "Mk-P"
	Build  func() *misdp.MISDP
}

// Table4Cell aggregates one (solver, family) cell.
type Table4Cell struct {
	Solved int
	Time   float64 // shifted geometric mean, s=10
}

// Table4Result holds the full table: rows are solver configurations
// ("SCIP-SDP" sequential + "ug [...] N thr."), columns are the families
// plus "Total".
type Table4Result struct {
	RowNames []string
	Families []string
	Cells    map[string]map[string]Table4Cell // row → family → cell
}

// StandardTestsets builds the scaled-down CBLIB families: truss topology
// design, cardinality-constrained least squares, min k-partitioning.
func StandardTestsets(perFamily int) []MISDPInstance {
	var out []MISDPInstance
	// Sizes chosen at each family's characteristic regime: TTD with a
	// moderate ground structure (SDP relaxations strong), CLS with big-M
	// support selection (LP cutting planes excel), Mk-P at a block order
	// where eigenvector-cut LPs start struggling while the SDP
	// relaxation stays cheap — the contrast racing ramp-up exploits.
	for i := 0; i < perFamily; i++ {
		seed := int64(i + 1)
		out = append(out, MISDPInstance{Family: "TTD", Build: func() *misdp.MISDP {
			return testsets.TTD(5, 14, 3, seed)
		}})
	}
	for i := 0; i < perFamily; i++ {
		seed := int64(i + 1)
		out = append(out, MISDPInstance{Family: "CLS", Build: func() *misdp.MISDP {
			return testsets.CLS(8, 11, 3, seed)
		}})
	}
	for i := 0; i < perFamily; i++ {
		seed := int64(i + 1)
		out = append(out, MISDPInstance{Family: "Mk-P", Build: func() *misdp.MISDP {
			return testsets.MkP(11, 3, seed)
		}})
	}
	return out
}

// RunTable4 runs the sequential SCIP-SDP baseline plus ug[SCIP-SDP] at
// each thread count over all instances.
func RunTable4(instances []MISDPInstance, threadCounts []int, timeLimit float64) *Table4Result {
	res := &Table4Result{
		Families: []string{"TTD", "CLS", "Mk-P"},
		Cells:    map[string]map[string]Table4Cell{},
	}
	type obs struct {
		family string
		time   float64
		solved bool
	}
	collect := func(rowName string, run func(inst MISDPInstance) (float64, bool)) {
		res.RowNames = append(res.RowNames, rowName)
		var all []obs
		for _, inst := range instances {
			t, ok := run(inst)
			all = append(all, obs{inst.Family, t, ok})
		}
		cells := map[string]Table4Cell{}
		for _, fam := range append([]string{"Total"}, res.Families...) {
			var times []float64
			solved := 0
			for _, o := range all {
				if fam != "Total" && o.family != fam {
					continue
				}
				times = append(times, o.time)
				if o.solved {
					solved++
				}
			}
			cells[fam] = Table4Cell{Solved: solved, Time: ShiftedGeoMean(times, 10)}
		}
		res.Cells[rowName] = cells
	}

	// Sequential SCIP-SDP (default SDP-based configuration).
	collect("SCIP-SDP", func(inst MISDPInstance) (float64, bool) {
		set := misdp.SDPSettings()
		set.TimeLimit = timeLimit
		solver, st, _ := core.SolveSequential(misdp.NewApp(inst.Build(), 4), set)
		_ = solver
		return math.Min(elapsedOf(solver), timeLimit), st == scip.StatusOptimal
	})
	for _, th := range threadCounts {
		th := th
		collect(fmt.Sprintf("ug [SCIP-SDP] %d thr.", th), func(inst MISDPInstance) (float64, bool) {
			cfg := ug.Config{
				Workers:        th,
				TimeLimit:      timeLimit,
				StatusInterval: 2e-3,
				ShipInterval:   1e-3,
			}
			if th > 1 {
				cfg.RampUp = ug.RampUpRacing
				cfg.RacingTime = math.Min(0.2, timeLimit/10)
			}
			r, _, err := core.SolveParallel(misdp.NewApp(inst.Build(), 2*th), cfg)
			if err != nil {
				panic(err)
			}
			return math.Min(r.Stats.Time, timeLimit), r.Optimal
		})
	}
	return res
}

func elapsedOf(s *scip.Solver) float64 { return s.Elapsed() }

// FormatTable4 renders the table like the paper's Table 4.
func (t *Table4Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s", "solver")
	for _, fam := range append(t.Families, "Total") {
		fmt.Fprintf(&b, " | %6s %8s", fam, "time")
	}
	b.WriteByte('\n')
	for _, row := range t.RowNames {
		fmt.Fprintf(&b, "%-24s", row)
		for _, fam := range append(t.Families, "Total") {
			c := t.Cells[row][fam]
			fmt.Fprintf(&b, " | %6d %8.2f", c.Solved, c.Time)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ----------------------------------------------------------------------
// Figure 1: racing-winner statistics per setting.

// Figure1Result counts racing winners per settings name, per family.
type Figure1Result struct {
	// Winners[settingsName][family] = count
	Winners map[string]map[string]int
	// Excluded counts instances solved during racing (the paper excludes
	// them from the figure).
	Excluded int
}

// RunFigure1 races the full settings ladder on every instance and
// records which setting wins, per family, mirroring the paper's
// Figure 1 (odd settings = SDP-based, even = LP-based).
func RunFigure1(instances []MISDPInstance, workers, ladder int, timeLimit float64) *Figure1Result {
	out := &Figure1Result{Winners: map[string]map[string]int{}}
	for _, inst := range instances {
		app := core.App{
			Name:        "SCIP-SDP",
			Def:         &misdp.Def{},
			Data:        inst.Build(),
			MakePlugins: func() *scip.Plugins { return misdp.NewPlugins() },
			Settings:    misdp.SettingsLadder(ladder),
		}
		res, _, err := core.SolveParallel(app, ug.Config{
			Workers:        workers,
			RampUp:         ug.RampUpRacing,
			RacingTime:     math.Min(0.25, timeLimit/4),
			TimeLimit:      timeLimit,
			StatusInterval: 2e-3,
			ShipInterval:   1e-3,
		})
		if err != nil {
			panic(err)
		}
		if res.Stats.SolvedInRacing {
			// Still attributed in the paper's sense? No: instances solved
			// during racing are excluded from Figure 1.
			out.Excluded++
			continue
		}
		if res.Stats.RacingWinner < 0 {
			continue
		}
		name := res.Stats.RacingWinnerName
		if out.Winners[name] == nil {
			out.Winners[name] = map[string]int{}
		}
		out.Winners[name][inst.Family]++
	}
	return out
}

// Format renders the histogram (settings sorted by name).
func (f *Figure1Result) Format() string {
	var names []string
	for n := range f.Winners {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %6s %6s %6s %6s\n", "setting", "TTD", "CLS", "Mk-P", "total")
	for _, n := range names {
		w := f.Winners[n]
		fmt.Fprintf(&b, "%-22s %6d %6d %6d %6d\n", n, w["TTD"], w["CLS"], w["Mk-P"],
			w["TTD"]+w["CLS"]+w["Mk-P"])
	}
	fmt.Fprintf(&b, "(%d instances solved during racing, excluded as in the paper)\n", f.Excluded)
	return b.String()
}
