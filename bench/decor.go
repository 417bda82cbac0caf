package main

import (
	"bytes"
	"encoding/gob"
	"sync"
	"time"

	"repro/internal/scip"
	"repro/internal/ug"
	"repro/internal/ug/comm"
)

// Every layer is measured from outside: the decorators below wrap the
// public interfaces the solver already accepts (scip.Plugins,
// ug.SolverFactory/WorkerSolver, comm.Comm) and record a span around
// each call. They pass arguments and results through untouched, so a
// decorated solve visits the same nodes as a bare one (bench_test.go
// holds it to bit-identical counters).

// pluginSpans names the spans of one plugin set: "<mod>.<kind>" under
// one parent span of one operation.
type pluginSpans struct {
	t      *Trace
	op     string
	parent int
	names  map[string]string // kind → "<mod>.<kind>", built once per plugin set
}

func newPluginSpans(t *Trace, mod, op string, parent int) *pluginSpans {
	ps := &pluginSpans{t: t, op: op, parent: parent, names: map[string]string{}}
	for _, kind := range []string{"data", "prop", "sepa", "heur", "cons", "branch", "relax"} {
		ps.names[kind] = mod + "." + kind
	}
	return ps
}

func (p *pluginSpans) begin(kind string) int { return p.t.Begin(p.parent, p.op, p.names[kind]) }

type tracedDef struct {
	scip.ProblemDef
	*pluginSpans
}

func (d tracedDef) CloneData(data any) any {
	defer d.t.End(d.begin("data"))
	return d.ProblemDef.CloneData(data)
}

func (d tracedDef) ApplyDecision(data any, dec scip.Decision) {
	defer d.t.End(d.begin("data"))
	d.ProblemDef.ApplyDecision(data, dec)
}

type tracedProp struct {
	scip.Propagator
	*pluginSpans
}

func (p tracedProp) Propagate(ctx *scip.Ctx) scip.Result {
	defer p.t.End(p.begin("prop"))
	return p.Propagator.Propagate(ctx)
}

type tracedSepa struct {
	scip.Separator
	*pluginSpans
}

func (s tracedSepa) Separate(ctx *scip.Ctx) scip.Result {
	defer s.t.End(s.begin("sepa"))
	return s.Separator.Separate(ctx)
}

type tracedHeur struct {
	scip.Heuristic
	*pluginSpans
}

func (h tracedHeur) Search(ctx *scip.Ctx) scip.Result {
	defer h.t.End(h.begin("heur"))
	return h.Heuristic.Search(ctx)
}

type tracedCons struct {
	scip.Conshdlr
	*pluginSpans
}

func (c tracedCons) Check(ctx *scip.Ctx, x []float64) bool {
	defer c.t.End(c.begin("cons"))
	return c.Conshdlr.Check(ctx, x)
}

func (c tracedCons) Enforce(ctx *scip.Ctx, x []float64) scip.Result {
	defer c.t.End(c.begin("cons"))
	return c.Conshdlr.Enforce(ctx, x)
}

type tracedBranch struct {
	scip.Brancher
	*pluginSpans
}

func (b tracedBranch) Branch(ctx *scip.Ctx) ([]scip.Child, scip.Result) {
	defer b.t.End(b.begin("branch"))
	return b.Brancher.Branch(ctx)
}

type tracedRelax struct {
	scip.Relaxator
	*pluginSpans
}

func (r tracedRelax) Relax(ctx *scip.Ctx) (float64, []float64, scip.Result) {
	defer r.t.End(r.begin("relax"))
	return r.Relaxator.Relax(ctx)
}

// wrapPlugins decorates every plugin of p. On a nil trace it returns p.
func (t *Trace) wrapPlugins(p *scip.Plugins, mod, op string, parent int) *scip.Plugins {
	if t == nil {
		return p
	}
	ps := newPluginSpans(t, mod, op, parent)
	out := &scip.Plugins{}
	if p.Def != nil {
		out.Def = tracedDef{p.Def, ps}
	}
	for _, x := range p.Propagators {
		out.Propagators = append(out.Propagators, tracedProp{x, ps})
	}
	for _, x := range p.Separators {
		out.Separators = append(out.Separators, tracedSepa{x, ps})
	}
	for _, x := range p.Heuristics {
		out.Heuristics = append(out.Heuristics, tracedHeur{x, ps})
	}
	for _, x := range p.Conshdlrs {
		out.Conshdlrs = append(out.Conshdlrs, tracedCons{x, ps})
	}
	for _, x := range p.Branchers {
		out.Branchers = append(out.Branchers, tracedBranch{x, ps})
	}
	for _, x := range p.Relaxators {
		out.Relaxators = append(out.Relaxators, tracedRelax{x, ps})
	}
	return out
}

// primalSampler is the scip.Solver.Poll hook behind primal_integral_s:
// at every node boundary it notes the incumbent objective if it has
// improved. It always lets the solve continue and reads nothing but the
// incumbent, so counters do not change.
type primalSampler struct {
	t0   time.Time
	last float64
	at   []float64 // seconds since t0
	obj  []float64
}

func newPrimalSampler(t0 time.Time) *primalSampler {
	return &primalSampler{t0: t0, last: scip.Infinity}
}

func (p *primalSampler) note(obj float64) {
	if obj < p.last {
		p.last = obj
		p.at = append(p.at, time.Since(p.t0).Seconds())
		p.obj = append(p.obj, obj)
	}
}

func (p *primalSampler) poll(s *scip.Solver) bool {
	if inc := s.Incumbent(); inc != nil {
		p.note(inc.Obj)
	}
	return true
}

// tracedFactory decorates the ug.SolverFactory: every WorkerSolver it
// hands out records a worker.solve span, and the plugin set that solve
// creates hangs its spans under it.
type tracedFactory struct {
	ug.SolverFactory
	t      *Trace
	op     string
	parent int

	// core's worker builds its plugin set inside Solve, on the same
	// goroutine, exactly once. handoff is held from the start of a
	// Solve until that call, so concurrent ranks cannot take each
	// other's parent span.
	handoff sync.Mutex
	current *tracedWorker
}

type tracedWorker struct {
	inner ug.WorkerSolver
	f     *tracedFactory
	span  int
	taken bool
}

func (f *tracedFactory) GlobalPresolve() ([]byte, *ug.Solution, error) {
	defer f.t.End(f.t.Begin(f.parent, f.op, "steiner.presolve"))
	return f.SolverFactory.GlobalPresolve()
}

func (f *tracedFactory) CreateWorker(idx int) ug.WorkerSolver {
	return &tracedWorker{inner: f.SolverFactory.CreateWorker(idx), f: f}
}

func (w *tracedWorker) Solve(sub *ug.Subproblem, sess *ug.Session) ug.Outcome {
	f := w.f
	w.span = f.t.Begin(f.parent, f.op, "worker.solve")
	f.handoff.Lock()
	f.current = w
	out := w.inner.Solve(sub, sess)
	if !w.taken {
		f.handoff.Unlock()
	}
	f.t.End(w.span)
	f.t.Count("ug.subproblems", 1)
	return out
}

// pluginParent is called from the App's MakePlugins during a Solve.
func (f *tracedFactory) pluginParent() int {
	w := f.current
	w.taken = true
	f.handoff.Unlock()
	return w.span
}

// tapComm decorates a comm.Comm. It always notes the objective and time
// of every solution a ParaSolver reports to the coordinator (the primal
// integral of a parallel solve); with a trace it also counts messages,
// bytes, send time and receive wait per tag and keeps sample payloads
// for the codec kernels.
type tapComm struct {
	comm.Comm
	t      *Trace
	primal *primalSampler
	mu     sync.Mutex
	subs   [][]byte // base-solver subproblem payloads seen on the wire
	sols   [][]byte // base-solver solution payloads
}

// tapKeep is how many payloads of a kind a tapComm keeps.
const tapKeep = 64

func newTapComm(inner comm.Comm, t *Trace, t0 time.Time) *tapComm {
	return &tapComm{Comm: inner, t: t, primal: newPrimalSampler(t0)}
}

// dispatchMsg mirrors the exported fields of ug's private work message;
// gob matches struct fields by name.
type dispatchMsg struct{ Sub ug.Subproblem }

func gobDecode(b []byte, out any) bool {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(out) == nil
}

func (c *tapComm) Send(to int, m comm.Message) {
	if m.Tag == comm.TagSolution && to == 0 {
		var sol ug.Solution
		if gobDecode(m.Payload, &sol) {
			c.mu.Lock()
			c.primal.note(sol.Obj)
			if c.t != nil && len(c.sols) < tapKeep {
				c.sols = append(c.sols, sol.Payload)
			}
			c.mu.Unlock()
		}
	}
	if c.t == nil {
		c.Comm.Send(to, m)
		return
	}
	switch m.Tag {
	case comm.TagNode:
		var sub ug.Subproblem
		if gobDecode(m.Payload, &sub) {
			c.keepSub(sub.Payload)
		}
	case comm.TagSubproblem, comm.TagRacing:
		var d dispatchMsg
		if gobDecode(m.Payload, &d) {
			c.keepSub(d.Sub.Payload)
		}
	}
	start := time.Now()
	c.Comm.Send(to, m)
	c.t.Count("comm.send_ns", float64(time.Since(start).Nanoseconds()))
	c.t.Count("comm.msgs", 1)
	c.t.Count("comm.msgs."+m.Tag.String(), 1)
	c.t.Count("comm.bytes", float64(len(m.Payload)))
	c.t.Count("comm.bytes."+m.Tag.String(), float64(len(m.Payload)))
}

func (c *tapComm) keepSub(p []byte) {
	c.mu.Lock()
	if len(c.subs) < tapKeep {
		c.subs = append(c.subs, p)
	}
	c.mu.Unlock()
}

func (c *tapComm) Recv(rank int) comm.Message {
	if c.t == nil {
		return c.Comm.Recv(rank)
	}
	start := time.Now()
	m := c.Comm.Recv(rank)
	if rank > 0 {
		c.t.Count("comm.recv_wait_ns", float64(time.Since(start).Nanoseconds()))
	}
	return m
}

// Closed forwards the optional transport-closed probe ug makes.
func (c *tapComm) Closed() bool {
	cc, ok := c.Comm.(interface{ Closed() bool })
	return ok && cc.Closed()
}
