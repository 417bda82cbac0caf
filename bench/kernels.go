package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/maxflow"
	"repro/internal/obs"
	"repro/internal/scip"
	"repro/internal/sdp"
	"repro/internal/steiner"
	"repro/internal/ug"
	"repro/internal/ug/comm"
	netcomm "repro/internal/ug/comm/net"
)

// The kernels phase calls single layers directly, outside any solve, so
// a change to one layer has a number of its own: the sparse and dense
// cut-loop LPs, max-flow, the Steiner reductions and heuristics, the SDP
// barrier, the dense linear algebra, the subproblem codec, the TCP
// transport and the tracer's sinks. It is the same for every workload.

// medianTime runs fn reps times and returns the median seconds.
func medianTime(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// runKernels fills m with every kernel metric.
func runKernels(cat *Catalog, seed int64, m map[string]float64) error {
	stp, err := cat.pick("stp_seq", "main", seed)
	if err != nil {
		return err
	}
	var graphs []*steiner.SPG
	for _, e := range stp {
		g, err := e.BuildSTP()
		if err != nil {
			return err
		}
		graphs = append(graphs, g)
	}
	// The cut loop runs on the smallest catalogue graph: with 200 cut
	// rows its LP has about 300 rows, the size the solves spend their
	// time at, and the dense basis inverse makes larger ones take minutes.
	smallest := graphs[0]
	for _, g := range graphs {
		if g.G.NumEdges() < smallest.G.NumEdges() {
			smallest = g
		}
	}
	sparseCutLoop(smallest, m)
	steinerKernels(graphs, m)

	sdpEntries, err := cat.pick("misdp_sdp", "main", seed)
	if err != nil {
		return err
	}
	var solveMS []float64
	for _, e := range sdpEntries {
		p, err := e.BuildMISDP()
		if err != nil {
			return err
		}
		root := &sdp.Problem{M: p.M, B: p.B, Lo: p.Lo, Up: p.Up, Blocks: p.Blocks, Rows: p.Rows}
		var res *sdp.Result
		solveMS = append(solveMS, 1e3*medianTime(3, func() { res = sdp.Solve(root, sdp.Options{}) }))
		m["sdp.iters"] += float64(res.Iters)
		if e.Fn == "testsets.MkP" && m["lp.dense_kernel_rows"] == 0 {
			denseCutLoop(root, m)
		}
	}
	m["sdp.solve_ms"] = mean(solveMS)
	linalgKernels(seed, m)
	if err := obsKernels(m); err != nil {
		return err
	}

	ugEntries, err := cat.pick("stp_ug", "main", seed)
	if err != nil {
		return err
	}
	// The parallel kernels re-solve the quickest stp_ug instance.
	quick := ugEntries[0]
	for _, e := range ugEntries {
		if e.Band["stp_ug"] < quick.Band["stp_ug"] {
			quick = e
		}
	}
	return ugKernels(quick, m)
}

// sparseCutLoop is the benchmark's own Steiner cutting-plane loop: the
// directed-cut LP of the steiner.FromSPG model, violated cuts found by
// max-flow from the root to each terminal, rows added until the LP has
// 200 cut rows or no cut is violated.
func sparseCutLoop(g *steiner.SPG, m map[string]float64) {
	sap := steiner.FromSPG(g)
	prob := (&steiner.SAPDef{}).BuildModel(sap)
	lpp := lp.NewProblem()
	for _, v := range prob.Vars {
		lpp.AddVar(v.Lo, v.Up, v.Obj)
	}
	for _, r := range prob.Rows {
		lpp.AddRow(r.Sense, r.RHS, r.Coefs)
	}
	s := lp.NewSolver(lpp)
	base := s.NumRows()
	t0 := time.Now()
	sol := s.Solve()
	m["lp.cold_solve_ms"] = 1e3 * time.Since(t0).Seconds()

	var resolve, flow []float64
	for s.NumRows()-base < 200 && sol.Status == lp.Optimal {
		added := 0
		for _, t := range sap.Terminals() {
			if t == sap.Root {
				continue
			}
			f0 := time.Now()
			nw := maxflow.New(sap.N)
			for a, arc := range sap.Arcs {
				if sol.X[a] > 1e-9 {
					nw.AddArc(arc.Tail, arc.Head, sol.X[a])
				}
			}
			value := nw.MaxFlow(sap.Root, t)
			flow = append(flow, time.Since(f0).Seconds())
			if value > 1-1e-6 {
				continue
			}
			src := nw.MinCutSource(sap.Root)
			var coefs []lp.Nonzero
			for a, arc := range sap.Arcs {
				if src[arc.Tail] && !src[arc.Head] {
					coefs = append(coefs, lp.Nonzero{Col: a, Val: 1})
				}
			}
			s.AddRow(lp.GE, 1, coefs)
			added++
		}
		if added == 0 {
			break
		}
		t0 = time.Now()
		sol = s.Solve()
		resolve = append(resolve, time.Since(t0).Seconds())
	}
	m["lp.kernel_rows"] = float64(s.NumRows())
	m["lp.addrow_resolve_ms"] = 1e3 * median(resolve)
	m["maxflow.calls"] = float64(len(flow))
	m["maxflow.solve_us"] = 1e6 * median(flow)

	// Branching-style re-solves: fix a fractional arc to 1, re-solve,
	// release it, re-solve.
	var bound []float64
	for a := range sap.Arcs {
		if len(bound) >= 20 || sol.Status != lp.Optimal {
			break
		}
		if x := sol.X[a]; x > 1e-6 && x < 1-1e-6 {
			for _, lo := range []float64{1, 0} {
				s.SetBound(a, lo, 1)
				t0 = time.Now()
				sol = s.Solve()
				bound = append(bound, time.Since(t0).Seconds())
			}
		}
	}
	m["lp.bound_resolve_ms"] = 1e3 * median(bound)
}

// denseCutLoop is the eigenvector-cut loop on the LP relaxation of a
// min-k-partition root: every cut row is dense in all variables, the
// opposite row shape to the Steiner cuts.
func denseCutLoop(p *sdp.Problem, m map[string]float64) {
	lpp := lp.NewProblem()
	for i := 0; i < p.M; i++ {
		lpp.AddVar(p.Lo[i], p.Up[i], -p.B[i])
	}
	s := lp.NewSolver(lpp)
	sol := s.Solve()
	var resolve []float64
	for s.NumRows() < 100 && sol.Status == lp.Optimal {
		added := 0
		for _, blk := range p.Blocks {
			lam, v := linalg.MinEigen(blk.Z(sol.X))
			if lam > -1e-6 {
				continue
			}
			// vᵀ(C − Σ A_i y_i)v ≥ 0
			var coefs []lp.Nonzero
			for i, a := range blk.A {
				if a != nil {
					if c := linalg.Dot(v, a.MulVec(v)); c != 0 {
						coefs = append(coefs, lp.Nonzero{Col: i, Val: c})
					}
				}
			}
			s.AddRow(lp.LE, linalg.Dot(v, blk.C.MulVec(v)), coefs)
			added++
		}
		if added == 0 {
			break
		}
		t0 := time.Now()
		sol = s.Solve()
		resolve = append(resolve, time.Since(t0).Seconds())
	}
	m["lp.dense_kernel_rows"] = float64(s.NumRows())
	m["lp.dense_addrow_resolve_ms"] = 1e3 * median(resolve)
}

func steinerKernels(graphs []*steiner.SPG, m map[string]float64) {
	var reduce, ascent, sph, local, gain []float64
	for _, g := range graphs {
		reduce = append(reduce, medianTime(3, func() { steiner.Reduce(g.Clone(), 0) }))
		ascent = append(ascent, medianTime(3, func() { steiner.DualAscent(g, g.Root()) }))
		var (
			edges []int
			cost  float64
		)
		sph = append(sph, medianTime(3, func() { edges, cost, _ = steiner.ShortestPathHeuristic(g, g.Root(), nil) }))
		var after float64
		local = append(local, medianTime(3, func() { _, after = steiner.VertexInsertionImprove(g, edges, 0) }))
		if after > 0 {
			gain = append(gain, cost/after)
		}
	}
	m["steiner.reduce_ms"] = 1e3 * mean(reduce)
	m["steiner.dualascent_ms"] = 1e3 * mean(ascent)
	m["steiner.sph_ms"] = 1e3 * mean(sph)
	m["steiner.localsearch_ms"] = 1e3 * mean(local)
	m["steiner.localsearch_gain"] = mean(gain)
}

func linalgKernels(seed int64, m map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	for _, n := range []int{8, 16, 32} {
		// BᵀB + I: symmetric positive definite, so Cholesky succeeds.
		b := make([]float64, n*n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		s := linalg.Identity(n, 1)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var acc float64
				for k := 0; k < n; k++ {
					acc += b[k*n+i] * b[k*n+j]
				}
				s.A[i*n+j] += acc
			}
		}
		reps := 4096 / (n * n)
		m[fmt.Sprintf("linalg.eigen_n%d_us", n)] = 1e6 * medianTime(reps, func() { linalg.Eigen(s) })
		m[fmt.Sprintf("linalg.chol_n%d_us", n)] = 1e6 * medianTime(8*reps, func() { _, _ = linalg.Cholesky(s) })
		if n == 16 {
			m["linalg.mineigen_n16_us"] = 1e6 * medianTime(reps, func() { linalg.MinEigen(s) })
		}
	}
}

// obsKernels times Tracer.Emit per sink chain.
func obsKernels(m map[string]float64) error {
	const n = 20000
	ev := obs.Event{Kind: obs.KindStatus, Rank: 1, Dual: 1.5, Open: 3, Nodes: 4}
	per := func(t *obs.Tracer) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t.Emit(ev)
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	}
	m["obs.emit_ns_nil"] = per(nil)
	m["obs.emit_ns_recorder"] = per(obs.NewTracer(obs.NewRecorder(nil, 256)))
	bus := obs.NewBus(obs.NewRecorder(nil, 256), nil)
	m["obs.emit_ns_recorder_bus"] = per(obs.NewTracer(bus))
	_ = bus.Close()
	// A file sink inside the checkout, removed afterwards.
	path := filepath.Join(outDir(), "emit-kernel.jsonl")
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	sink, err := obs.NewFileSink(path)
	if err != nil {
		return err
	}
	t := obs.NewTracer(sink)
	m["obs.emit_ns_file"] = per(t)
	if err := t.Close(); err != nil {
		return err
	}
	return os.Remove(path)
}

// ugKernels solves one stp_ug instance three ways — over ChannelComm,
// the same with ug.Config.Trace feeding a recorder, and over loopback
// comm/net endpoints — and times the codec and the TCP transport on the
// payloads the first solve put on the wire.
func ugKernels(e *Entry, m map[string]float64) error {
	g, err := e.BuildSTP()
	if err != nil {
		return err
	}
	// One decorated solve to capture payloads, then three rounds of the
	// three undecorated ways.
	captured, err := runUG(e.Name, steiner.NewApp(g), ug.Config{Workers: 2}, nil, newTrace())
	if err != nil {
		return err
	}
	tap := captured.tap
	var plain, traced, overNet []float64
	for i := 0; i < 3; i++ {
		run, err := runUG(e.Name, steiner.NewApp(g), ug.Config{Workers: 2}, nil, nil)
		if err != nil {
			return err
		}
		plain = append(plain, run.seconds)

		tr := obs.NewTracer(obs.NewRecorder(nil, 256))
		if run, err = runUG(e.Name, steiner.NewApp(g), ug.Config{Workers: 2, Trace: tr}, nil, nil); err != nil {
			return err
		}
		traced = append(traced, run.seconds)

		sec, err := solveOverNet(e, g)
		if err != nil {
			return err
		}
		overNet = append(overNet, sec)
	}
	m["obs.trace_cost_frac"] = median(traced)/median(plain) - 1
	m["comm_net.solve_ratio"] = median(overNet) / median(plain)

	// Codec: decode and re-encode what crossed the wire.
	var enc, dec, size []float64
	for _, p := range tap.subs {
		var sub *scip.Subprob
		dec = append(dec, medianTime(5, func() { sub, _ = scip.DecodeSubprob(p) }))
		if sub != nil {
			enc = append(enc, medianTime(5, func() { _, _ = scip.EncodeSubprob(sub) }))
		}
		size = append(size, float64(len(p)))
	}
	for _, p := range tap.sols {
		var sol *scip.Sol
		dec = append(dec, medianTime(5, func() { sol, _ = scip.DecodeSol(p) }))
		if sol != nil {
			enc = append(enc, medianTime(5, func() { _, _ = scip.EncodeSol(sol) }))
		}
	}
	m["scip.encode_us"] = 1e6 * mean(enc)
	m["scip.decode_us"] = 1e6 * mean(dec)
	m["scip.subprob_bytes"] = mean(size)

	payload := []byte("ping")
	if len(tap.subs) > 0 {
		payload = tap.subs[len(tap.subs)-1]
	}
	return pingPong(payload, m)
}

func netOptions() netcomm.Options {
	return netcomm.Options{RendezvousTimeout: 10 * time.Second, RetryBase: 2 * time.Millisecond, CloseTimeout: 2 * time.Second}
}

// solveOverNet is the multi-process wiring inside one process: the
// coordinator and each ParaSolver own a TCP endpoint and each side
// presolves its own copy of the instance.
func solveOverNet(e *Entry, g *steiner.SPG) (float64, error) {
	const workers = 2
	t0 := time.Now()
	ln, err := netcomm.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for rank := 1; rank <= workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			f := core.NewFactory(steiner.NewApp(g))
			if _, _, err := f.GlobalPresolve(); err != nil {
				errs <- err
				return
			}
			wc, err := netcomm.Dial(ln.Addr(), rank, netOptions())
			if err != nil {
				errs <- err
				return
			}
			defer wc.Close()
			ug.RunWorker(rank, wc, f, nil)
		}(rank)
	}
	c, err := ln.Rendezvous(workers+1, netOptions())
	if err != nil {
		return 0, err
	}
	run, err := runUG(e.Name, steiner.NewApp(g), ug.Config{Workers: workers, RemoteWorkers: true}, c, nil)
	_ = c.Close()
	wg.Wait()
	select {
	case werr := <-errs:
		return 0, werr
	default:
	}
	if err != nil {
		return 0, err
	}
	if !run.res.Optimal || !e.matchesOpt(run.obj) {
		return 0, fmt.Errorf("%s over comm/net: optimal=%v objective %g, reference %g", e.Name, run.res.Optimal, run.obj, e.Opt)
	}
	return time.Since(t0).Seconds(), nil
}

// pingPong bounces one captured payload between two TCP endpoints.
func pingPong(payload []byte, m map[string]float64) error {
	const rounds = 2000
	ln, err := netcomm.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		wc, err := netcomm.Dial(ln.Addr(), 1, netOptions())
		if err != nil {
			done <- err
			return
		}
		defer wc.Close()
		for i := 0; i < rounds; i++ {
			msg := wc.Recv(1)
			wc.Send(0, comm.Message{From: 1, Tag: msg.Tag, Payload: msg.Payload})
		}
		done <- nil
	}()
	c, err := ln.Rendezvous(2, netOptions())
	if err != nil {
		return err
	}
	defer c.Close()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		c.Send(1, comm.Message{From: 0, Tag: comm.TagNode, Payload: payload})
		c.Recv(0)
	}
	sec := time.Since(t0).Seconds()
	if err := <-done; err != nil {
		return err
	}
	m["comm_net.rtt_us"] = 1e6 * sec / rounds
	m["comm_net.frames_per_s"] = 2 * rounds / sec
	return nil
}
