package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/misdp"
	"repro/internal/steiner"
	"repro/internal/ug"
)

// Calibration solves every candidate of a generator sweep in a child
// process under a kill deadline (scip tests its TimeLimit only between
// nodes, and a root LP can run for minutes), keeps the candidates whose
// time on this commit lies in a workload's band, verifies each optimum
// against something other than the solve being timed, and writes the
// catalogue. It takes about ten minutes.

// band is a workload's admissible seed-commit time per instance and the
// length of its Main list; Holdout has the same length.
type band struct {
	lo, hi float64
	n      int
}

var bands = map[string]band{
	"stp_seq":   {0.2, 2, 8},
	"stp_ug":    {0.2, 2, 8},
	"misdp_sdp": {0.05, 2, 8},
	"misdp_lp":  {0.05, 2, 8},
	"serve_mix": {0.01, 0.2, 12}, // 7 Steiner and 5 MISDP specs
}

const (
	// probeDeadline kills a candidate solve; it is past every band's top.
	probeDeadline = 6 * time.Second
	// oracleDeadline kills a Dreyfus–Wagner run: 3^t·n work at t = 16.
	oracleDeadline = 90 * time.Second
	serveSTPSpecs  = 7
	// unstableRatio is how far apart the slowest and quickest of three
	// parallel solves may be before the instance is unfit for a workload.
	unstableRatio = 1.4
	// serveMaxNodes keeps served jobs to (nearly) root solves. Through ug
	// a tree's shape follows message timing, and with both lanes busy
	// that timing follows whatever else the machine is doing: a 20-node
	// job then takes 0.13 s or 0.35 s, and serve_mix would measure the
	// neighbours instead of the serving layer.
	serveMaxNodes = 3
)

// probeResult is what a probe child prints.
type probeResult struct {
	Seconds float64 `json:"seconds"`
	Obj     float64 `json:"obj"`
	Optimal bool    `json:"optimal"`
	Nodes   int64   `json:"nodes"`
	Size    [3]int  `json:"size"`
	Sum     float64 `json:"sum"`
}

// probe runs in the child: one solve of e. Modes are the sequential
// workloads, stp_ug (two ParaSolvers), serve_mix (ug with one ParaSolver
// and the App's default settings, which is what a served job runs) and
// dw (the Dreyfus–Wagner oracle).
func probe(e *Entry, mode string) (probeResult, error) {
	var pr probeResult
	var ugApp core.App // what ug.Run and a served job solve
	if e.IsSTP() {
		g, err := e.BuildSTP()
		if err != nil {
			return pr, err
		}
		pr.Size, pr.Sum = stpSize(g)
		ugApp = steiner.NewApp(g)
		if mode == "dw" {
			t0 := time.Now()
			pr.Obj, pr.Optimal = g.SolveDW(), true
			pr.Seconds = time.Since(t0).Seconds()
			return pr, nil
		}
	} else {
		p, err := e.BuildMISDP()
		if err != nil {
			return pr, err
		}
		pr.Size, pr.Sum = misdpSize(p)
		ugApp = misdp.NewApp(p, 16)
	}
	switch mode {
	case "stp_seq", "misdp_sdp", "misdp_lp":
		app, set, mod, err := seqApp(mode, e)
		if err != nil {
			return pr, err
		}
		r := solveSeq(e, app, set, mod, nil)
		// There is no reference to match yet, only the solver's verdict.
		pr.Seconds, pr.Obj, pr.Optimal, pr.Nodes = r.Seconds, r.Obj, r.Proven, r.Nodes
	case "stp_ug", "serve_mix":
		workers := 2
		if mode == "serve_mix" {
			workers = 1
		}
		run, err := runUG(e.Name, ugApp, ug.Config{Workers: workers}, nil, nil)
		if err != nil {
			return pr, err
		}
		pr.Seconds, pr.Obj, pr.Optimal, pr.Nodes = run.seconds, run.obj, run.res.Optimal, run.res.Stats.TotalNodes
	default:
		return pr, fmt.Errorf("unknown probe mode %q", mode)
	}
	return pr, nil
}

// probeChild runs `bench -probe <entry> -mode <mode>` under a kill
// deadline; ok is false when the child was killed or failed.
func probeChild(e *Entry, mode string, deadline time.Duration) (pr probeResult, ok bool) {
	spec, err := json.Marshal(e)
	if err != nil {
		return pr, false
	}
	exe, err := os.Executable()
	if err != nil {
		return pr, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	out, err := exec.CommandContext(ctx, exe, "-probe", string(spec), "-mode", mode).Output()
	if err != nil {
		return pr, false
	}
	return pr, json.Unmarshal(out, &pr) == nil
}

// probeRepeated probes once in a sequential mode, whose search is
// deterministic, and three times in a mode that runs through ug, where
// message timing decides which ParaSolver finds what first: some
// instances solve in 0.2 s or 2.8 s from one run to the next. It returns
// the run of median time, carrying the largest node count of any run,
// and the quickest and slowest times; ok is false if any run was killed
// or not optimal. A serve_mix probe runs two
// solves side by side, as the server's two lanes do: a tree that is
// steady alone can triple when a neighbour shifts its message timing.
func probeRepeated(e *Entry, mode string) (med probeResult, lo, hi float64, ok bool) {
	reps, lanes := 1, 1
	switch mode {
	case "stp_ug":
		reps = 3
	case "serve_mix":
		reps, lanes = 3, 2
	}
	runs := make([]probeResult, reps*lanes)
	oks := make([]bool, len(runs))
	for rep := 0; rep < reps; rep++ {
		var wg sync.WaitGroup
		for lane := 0; lane < lanes; lane++ {
			i := rep*lanes + lane
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[i], oks[i] = probeChild(e, mode, probeDeadline)
			}()
		}
		wg.Wait()
	}
	for i := range runs {
		if !oks[i] || !runs[i].Optimal {
			return med, 0, 0, false
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Seconds < runs[j].Seconds })
	med = runs[len(runs)/2]
	for _, r := range runs {
		med.Nodes = max(med.Nodes, r.Nodes) // the largest tree any run grew
	}
	return med, runs[0].Seconds, runs[len(runs)-1].Seconds, true
}

// candidates is the generator sweep. Steiner candidates stay at or
// under 16 terminals so the Dreyfus–Wagner oracle can verify them.
func candidates() []*Entry {
	var out []*Entry
	add := func(fn string, args ...int64) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = fmt.Sprint(a)
		}
		short := strings.ToLower(fn[strings.Index(fn, ".")+1:])
		out = append(out, &Entry{Name: short + "-" + strings.Join(parts, "-"), Fn: fn, Args: args, Band: map[string]float64{}})
	}
	for seed := int64(1); seed <= 14; seed++ {
		// The hc5 transition band: the only family here whose trees
		// reach ten nodes, so stp_ug draws on it.
		for _, hi := range []int64{160, 163, 165, 170} {
			add("puc.HypercubeSpread", 5, 16, 100, hi, seed)
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		for _, t := range []int64{12, 16} {
			add("puc.HypercubeSpread", 6, t, 100, 200, seed)
		}
		for _, p := range []int64{0, 1} {
			add("puc.CodeCover", 3, 4, 10, p, seed)
			add("puc.CodeCover", 4, 3, 10, p, seed)
			add("puc.CodeCover", 3, 5, 12, p, seed)
			add("puc.Bipartite", 14, 40, 3, p, seed)
			add("puc.Bipartite", 16, 60, 3, p, seed)
		}
		// Small ones for the served mix.
		add("puc.HypercubeT", 4, 8, 1, seed)
		add("puc.HypercubeSpread", 5, 8, 100, 200, seed)
		add("puc.CodeCover", 3, 3, 8, 1, seed)
		add("puc.Bipartite", 8, 20, 3, 1, seed)
	}
	for seed := int64(1); seed <= 8; seed++ {
		// TTD(4,n,2), CLS(n,n+2,k) and MkP are the forms the serve API
		// can express; the larger ones are for the sequential workloads.
		for _, bars := range []int64{8, 10, 12} {
			add("testsets.TTD", 4, bars, 2, seed)
		}
		add("testsets.TTD", 5, 14, 3, seed)
		add("testsets.TTD", 5, 16, 3, seed)
		add("testsets.TTD", 6, 16, 3, seed)
		for _, f := range []int64{6, 8, 10} {
			add("testsets.CLS", f, f+2, 3, seed)
		}
		add("testsets.CLS", 9, 12, 4, seed)
		for _, v := range []int64{7, 8, 9, 10} {
			add("testsets.MkP", v, 3, seed)
		}
	}
	for seed := int64(1); seed <= 16; seed++ {
		// Of the MISDP families only Mk-P has instances the root SDP
		// relaxation solves, which is what the served mix wants; about
		// one seed in four does.
		if seed > 8 {
			add("testsets.MkP", 9, 3, seed)
			add("testsets.MkP", 10, 3, seed)
		}
		add("testsets.MkP", 10, 4, seed)
	}
	return out
}

// family groups candidates by generator call without the seed.
func (e *Entry) family() string { return fmt.Sprint(e.Fn, e.Args[:len(e.Args)-1]) }

func calibrate(path string) error {
	qualified := map[string][]*Entry{}
	cands := candidates()
	for _, e := range cands {
		modes := []string{"misdp_sdp", "misdp_lp", "serve_mix"}
		if e.IsSTP() {
			modes = []string{"stp_seq", "stp_ug", "serve_mix"}
		}
		nodes := map[string]int64{}
		agree := true
		for i, m := range modes {
			pr, lo, hi, ok := probeRepeated(e, m)
			if !ok {
				fmt.Fprintf(os.Stderr, "%-36s %-10s killed or unsolved\n", e.Name, m)
				if i == 0 {
					break // past the cliff: the other modes would only burn deadlines
				}
				continue
			}
			fmt.Fprintf(os.Stderr, "%-36s %-10s %7.3fs nodes %5d obj %.9g\n", e.Name, m, pr.Seconds, pr.Nodes, pr.Obj)
			if i == 0 {
				e.Size, e.Sum, e.Opt = pr.Size, pr.Sum, pr.Obj
			}
			agree = agree && e.matchesOpt(pr.Obj)
			if hi > unstableRatio*lo+0.02 { // 20 ms: process start-up noise on the smallest
				fmt.Fprintf(os.Stderr, "%-36s %-10s unstable: %.3fs to %.3fs\n", e.Name, m, lo, hi)
				continue
			}
			e.Band[m], nodes[m] = pr.Seconds, pr.Nodes
		}
		switch {
		case !agree:
			fmt.Fprintf(os.Stderr, "%-36s modes disagree beyond 1e-6: dropped\n", e.Name)
			continue
		case e.IsSTP() && (len(e.Band) == 0 || e.Size[2] > 16):
			continue
		case e.IsSTP():
			e.Oracle = "dw"
		case e.Band["misdp_sdp"] == 0 || e.Band["misdp_lp"] == 0:
			continue // one mode alone vouches for nothing
		default:
			e.Oracle = "sdp=lp"
		}
		for w, b := range bands {
			sec, ok := e.Band[w]
			switch {
			case !ok || sec < b.lo || sec > b.hi:
			case w == "stp_seq" && (e.Size[0] < 32 || e.Size[0] > 125):
			case w == "stp_ug" && nodes["stp_seq"] < 10: // nothing to parallelize
			case w == "serve_mix" && !servable(e):
			case w == "serve_mix" && nodes[w] > serveMaxNodes:
			default:
				qualified[w] = append(qualified[w], e)
			}
		}
	}

	cat := &Catalog{Calibrated: envStamp().String(), Workloads: map[string]Pool{}}
	verified := map[*Entry]bool{}
	confirm := func(es []*Entry) []*Entry {
		var out []*Entry
		for _, e := range es {
			if e.Oracle == "dw" && !verified[e] {
				pr, ok := probeChild(e, "dw", oracleDeadline)
				if !ok || !e.matchesOpt(pr.Obj) {
					fmt.Fprintf(os.Stderr, "%-36s Dreyfus–Wagner does not confirm %.9g (finished %v, got %.9g): dropped\n", e.Name, e.Opt, ok, pr.Obj)
					continue
				}
			}
			verified[e] = true
			out = append(out, e)
		}
		return out
	}
	isSTP := func(e *Entry) bool { return e.IsSTP() }
	isMISDP := func(e *Entry) bool { return !e.IsSTP() }

	ugMain, ugHold := split(confirm(pickSpread(qualified["stp_ug"], "stp_ug", 2*bands["stp_ug"].n)))
	cat.Workloads["stp_ug"] = Pool{names(ugMain), names(ugHold)}

	// stp_seq runs up to three of the stp_ug instances of the same set,
	// so ug.speedup_vs_seq compares like with like; the other families
	// fill the rest.
	n := bands["stp_seq"].n
	inSeq, inUG, ugFamily := map[*Entry]bool{}, map[*Entry]bool{}, map[string]bool{}
	for _, e := range qualified["stp_seq"] {
		inSeq[e] = true
	}
	for _, e := range append(append([]*Entry(nil), ugMain...), ugHold...) {
		inUG[e], ugFamily[e.family()] = true, true
	}
	sharedMain := filter(ugMain, func(e *Entry) bool { return inSeq[e] }, 3)
	sharedHold := filter(ugHold, func(e *Entry) bool { return inSeq[e] }, 3)
	rest := filter(qualified["stp_seq"], func(e *Entry) bool { return !inUG[e] && !ugFamily[e.family()] }, -1)
	restMain, restHold := split(confirm(pickSpread(rest, "stp_seq", 2*n-len(sharedMain)-len(sharedHold))))
	cat.Workloads["stp_seq"] = Pool{names(append(sharedMain, restMain...)), names(append(sharedHold, restHold...))}

	for _, w := range []string{"misdp_sdp", "misdp_lp"} {
		main, hold := split(confirm(pickSpread(qualified[w], w, 2*bands[w].n)))
		cat.Workloads[w] = Pool{names(main), names(hold)}
	}

	stpMain, stpHold := split(confirm(pickSpread(filter(qualified["serve_mix"], isSTP, -1), "serve_mix", 2*serveSTPSpecs)))
	sdpMain, sdpHold := split(confirm(pickSpread(filter(qualified["serve_mix"], isMISDP, -1), "serve_mix", 2*(bands["serve_mix"].n-serveSTPSpecs))))
	cat.Workloads["serve_mix"] = Pool{names(append(stpMain, sdpMain...)), names(append(stpHold, sdpHold...))}

	for _, e := range cands { // sweep order, so a re-run diffs cleanly
		if verified[e] {
			cat.Instances = append(cat.Instances, e)
		}
	}
	for w, p := range cat.Workloads {
		fmt.Fprintf(os.Stderr, "%-10s main %d, holdout %d of %d qualified\n", w, len(p.Main), len(p.Holdout), len(qualified[w]))
	}
	data, err := json.MarshalIndent(cat, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// servable reports whether the serve API can express e.
func servable(e *Entry) bool {
	_, err := serveSpec(e, 0)
	return err == nil
}

func names(es []*Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	return out
}

// filter keeps up to limit entries that satisfy keep (limit < 0: all).
func filter(es []*Entry, keep func(*Entry) bool, limit int) []*Entry {
	var out []*Entry
	for _, e := range es {
		if keep(e) && (limit < 0 || len(out) < limit) {
			out = append(out, e)
		}
	}
	return out
}

// split deals a list sorted by time alternately into Main and Holdout,
// so the two sets are about equally hard.
func split(es []*Entry) (main, holdout []*Entry) {
	for i, e := range es {
		if i%2 == 0 {
			main = append(main, e)
		} else {
			holdout = append(holdout, e)
		}
	}
	return main, holdout
}

// pickSpread picks up to n entries, families in turn, and returns them
// sorted by time. Within a family it takes from the middle of the band
// outwards: the band's edges are where a later commit drifts out first.
func pickSpread(es []*Entry, w string, n int) []*Entry {
	byFam := map[string][]*Entry{}
	var fams []string
	for _, e := range es {
		f := e.family()
		if byFam[f] == nil {
			fams = append(fams, f)
		}
		byFam[f] = append(byFam[f], e)
	}
	sort.Strings(fams)
	for _, l := range byFam {
		sort.Slice(l, func(i, j int) bool { return l[i].Band[w] < l[j].Band[w] })
	}
	var out []*Entry
	for took := true; took && len(out) < n; {
		took = false
		for _, f := range fams {
			if l := byFam[f]; len(l) > 0 && len(out) < n {
				mid := len(l) / 2
				out = append(out, l[mid])
				byFam[f] = append(l[:mid:mid], l[mid+1:]...)
				took = true
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Band[w] < out[j].Band[w] })
	return out
}
