package scip

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/lp"
	"repro/internal/num"
	"repro/internal/obs"
)

// Status is the final state of a Solve call.
type Status int8

// Solve outcomes.
const (
	StatusUnknown Status = iota
	StatusOptimal
	StatusInfeasible
	StatusInterrupted
	StatusNodeLimit
	StatusTimeLimit
)

// String renders the status for result tables and messages.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusInterrupted:
		return "interrupted"
	case StatusNodeLimit:
		return "nodelimit"
	case StatusTimeLimit:
		return "timelimit"
	}
	return "unknown"
}

// Stats collects solver statistics; UG's status reports and the paper's
// tables are assembled from these.
type Stats struct {
	Nodes        int64
	LPIterations int64
	CutsAdded    int64
	SolsFound    int64
	MaxDepth     int
	RootTime     float64 // seconds spent on the root node
	RootBound    float64
	DeadEnds     int64 // nodes abandoned without proof (should stay 0)
	PropFixings  int64
	Phases       PhaseTimes
}

// PhaseTimes is the wall-clock seconds a solve spent per solver phase —
// the breakdown behind the paper's "where does the time go" analyses.
// Phase times are diagnostics only: the solver writes them but never
// reads them, so recording wall time here cannot perturb deterministic
// replay (the same contract obs.Event.Wall follows).
type PhaseTimes struct {
	Presolve    float64
	LP          float64
	Relax       float64 // relaxators (e.g. the SDP relaxation)
	Separation  float64
	Heuristics  float64
	Propagation float64
}

// Add accumulates q into p.
func (p *PhaseTimes) Add(q PhaseTimes) {
	p.Presolve += q.Presolve
	p.LP += q.LP
	p.Relax += q.Relax
	p.Separation += q.Separation
	p.Heuristics += q.Heuristics
	p.Propagation += q.Propagation
}

// phaseAdd accumulates the wall time since start into *acc; used as
// `defer phaseAdd(&s.Stats.Phases.X, time.Now())` around a phase block.
func phaseAdd(acc *float64, start time.Time) { *acc += time.Since(start).Seconds() }

// Solver is one branch-and-bound solver instance over a presolved Prob.
type Solver struct {
	Prob *Prob
	Set  Settings
	Plug *Plugins

	// Poll, when set, is invoked between nodes; returning false interrupts
	// the solve (used by the UG ParaSolver wrapper to service messages).
	Poll func(s *Solver) bool

	// Trace, when set, receives one scip.node event per processed node
	// with the node counter as logical tick. Nil (the default) disables
	// tracing: processNode then pays a single nil-check and no
	// allocations, preserving the deterministic-replay guarantees.
	Trace *obs.Tracer

	lps       *lp.Solver
	lastNode  int64   // ID of the node whose LP was set up last, −1 for none
	baseRows  int     // LP rows that are no cut of this subproblem: model rows, then earlier subproblems' global cuts
	cutOrigin []int64 // origin node ID per cut row (-1 = globally valid)
	cutKeys   map[string]bool
	cutSort   cutSorter
	cutBuf    []byte

	tree       *tree
	nextNodeID int64
	incumbent  *Sol
	curBound   float64 // bound of node being processed (for GlobalLB)

	localLo, localUp []float64

	// Per-node scratch, reused across processNode calls so the steady
	// state allocates nothing (see TestProcessNodeZeroAlloc).
	pathScratch []*Node
	decScratch  []Decision
	ancScratch  map[int64]bool
	nodeCtx     Ctx
	freeNodes   []*Node // recycled Node pool (see finishNode)

	// snaps holds the LP bases of nodes whose children have not all
	// started (Node.snap indexes it); freeSnaps lists the entries free
	// for reuse, buffers kept; snapBytes is what all their buffers hold.
	snaps     []lp.Basis
	freeSnaps []int32
	snapBytes int

	Stats   Stats
	start   time.Time
	rng     *rand.Rand
	jitter  []float64
	pcUp    []float64 // pseudocost sums per variable
	pcDown  []float64
	pcUpN   []float64
	pcDownN []float64
}

// NewSolver builds a solver over prob with the given settings/plugins.
// prob must already be presolved (see ProblemDef.Presolve); the solver
// never rebuilds the model.
func NewSolver(prob *Prob, set Settings, plug *Plugins) *Solver {
	set.apply()
	if plug == nil {
		plug = &Plugins{}
	}
	s := &Solver{
		Prob:     prob,
		Set:      set,
		Plug:     plug,
		tree:     newTree(set.NodeSel),
		rng:      rand.New(rand.NewSource(set.Seed*2654435761 + 12345)),
		lastNode: -1,
	}
	n := len(prob.Vars)
	s.localLo = make([]float64, n)
	s.localUp = make([]float64, n)
	s.jitter = make([]float64, n)
	s.pcUp = make([]float64, n)
	s.pcDown = make([]float64, n)
	s.pcUpN = make([]float64, n)
	s.pcDownN = make([]float64, n)
	if set.PermuteTieBreak {
		for j := range s.jitter {
			s.jitter[j] = s.rng.Float64() * 1e-4
		}
	}
	if set.UseLP {
		lpProb := lp.NewProblem()
		for _, v := range prob.Vars {
			lpProb.AddVar(v.Lo, v.Up, v.Obj)
		}
		for _, r := range prob.Rows {
			lpProb.AddRow(r.Sense, r.RHS, r.Coefs)
		}
		s.lps = lp.NewSolver(lpProb)
		s.baseRows = s.lps.NumRows()
	}
	return s
}

// Reset readies the solver for another subproblem of the same model
// with a new plugin set, as a ParaSolver does between dispatches. Open
// nodes left by an interrupt go back to the node pool; statistics, the
// node counter and the Poll hook start over. The incumbent, the
// pseudocosts, scratch buffers and the global-cut fingerprints stay.
// The LP stays too, with its basis: the rows of the previous
// subproblem's local cuts are deleted, and its global cuts become base
// rows, so the next subproblem's first LP re-solves from the last basis
// instead of from the all-slack one.
//
//ugo:coldpath once per dispatched subproblem
func (s *Solver) Reset(plug *Plugins) {
	if plug == nil {
		plug = &Plugins{}
	}
	s.Plug = plug
	s.Poll = nil
	for _, n := range s.tree.drain() {
		s.finishNode(n)
	}
	s.Stats = Stats{}
	s.curBound = 0
	s.nextNodeID = 0
	s.lastNode = -1
	if s.Set.UseLP {
		del := make([]bool, s.lps.NumRows())
		for k, origin := range s.cutOrigin {
			del[s.baseRows+k] = origin >= 0
		}
		s.lps.DeleteRows(del)
		s.baseRows = s.lps.NumRows()
		s.cutOrigin = s.cutOrigin[:0]
	}
}

// addCut appends a cutting-plane row; origin < 0 marks it globally
// valid. Duplicate global cuts are skipped (returns false). Row
// installation allocates by design (the LP grows); the dedup
// fingerprint itself runs out of reused buffers.
//
//ugo:coldpath one row install per accepted cut, bounded by the cut budget
func (s *Solver) addCut(sense lp.Sense, rhs float64, coefs []lp.Nonzero, origin int64) bool {
	if !s.Set.UseLP {
		return false
	}
	if origin < 0 {
		key := s.cutKey(sense, rhs, coefs)
		if s.cutKeys == nil {
			s.cutKeys = map[string]bool{}
		}
		if s.cutKeys[string(key)] { // no-copy map probe
			return false
		}
		s.cutKeys[string(key)] = true
	}
	s.lps.AddRow(sense, rhs, coefs)
	s.cutOrigin = append(s.cutOrigin, origin)
	s.Stats.CutsAdded++
	return true
}

// cutSorter orders coefficient indices by column; a concrete
// sort.Interface kept on the solver so fingerprinting does not rebuild
// closures per cut.
type cutSorter struct {
	idx   []int
	coefs []lp.Nonzero
}

func (c *cutSorter) Len() int           { return len(c.idx) }
func (c *cutSorter) Less(a, b int) bool { return c.coefs[c.idx[a]].Col < c.coefs[c.idx[b]].Col }
func (c *cutSorter) Swap(a, b int)      { c.idx[a], c.idx[b] = c.idx[b], c.idx[a] }

// cutKey builds a canonical fingerprint of a row for deduplication.
// The returned bytes alias s.cutBuf and are valid until the next call.
func (s *Solver) cutKey(sense lp.Sense, rhs float64, coefs []lp.Nonzero) []byte {
	if cap(s.cutSort.idx) < len(coefs) {
		s.cutSort.idx = make([]int, len(coefs))
	}
	s.cutSort.idx = s.cutSort.idx[:len(coefs)]
	for i := range s.cutSort.idx {
		s.cutSort.idx[i] = i
	}
	s.cutSort.coefs = coefs
	sort.Sort(&s.cutSort)
	b := s.cutBuf[:0]
	b = strconv.AppendInt(b, int64(sense), 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, rhs, 'g', 9, 64)
	for _, i := range s.cutSort.idx {
		b = append(b, ';')
		b = strconv.AppendInt(b, int64(coefs[i].Col), 10)
		b = append(b, ':')
		b = strconv.AppendFloat(b, coefs[i].Val, 'g', 9, 64)
	}
	s.cutBuf = b
	s.cutSort.coefs = nil
	return b
}

// cutoffValue returns the pruning threshold derived from the incumbent.
func (s *Solver) cutoffValue() float64 {
	if s.incumbent == nil {
		return Infinity
	}
	if s.Prob.IntegralObj {
		return s.incumbent.Obj - 1 + 1e-6
	}
	return s.incumbent.Obj - 1e-9*(1+math.Abs(s.incumbent.Obj))
}

// Incumbent returns the best solution found so far (model space).
func (s *Solver) Incumbent() *Sol { return s.incumbent }

// BestBound returns the global dual (lower) bound.
func (s *Solver) BestBound() float64 {
	lb := s.tree.best()
	if s.curBound < lb {
		lb = s.curBound
	}
	if lb == Infinity {
		// Tree empty: the incumbent (if any) is proven optimal.
		if s.incumbent != nil {
			return s.incumbent.Obj
		}
	}
	return lb
}

// NumOpen returns the number of open nodes.
func (s *Solver) NumOpen() int { return s.tree.size() }

// Gap returns the relative primal-dual gap (Inf when unbounded above).
func (s *Solver) Gap() float64 {
	if s.incumbent == nil {
		return Infinity
	}
	lb := s.BestBound()
	if math.IsInf(lb, -1) {
		return Infinity
	}
	ub := s.incumbent.Obj
	if num.IsZero(ub, num.ZeroTol) {
		return math.Abs(ub - lb)
	}
	return (ub - lb) / math.Abs(ub)
}

// InjectSolution installs an externally found solution (from a sibling
// ParaSolver) after verifying feasibility. Returns true when installed.
func (s *Solver) InjectSolution(sol *Sol) bool {
	if sol == nil {
		return false
	}
	return s.submitSolution(sol.X, true)
}

// verifyGlobal checks integrality, linear rows and constraint handlers on
// the global (presolved) problem.
func (s *Solver) verifyGlobal(x []float64) bool {
	if len(x) != len(s.Prob.Vars) {
		return false
	}
	for j, v := range s.Prob.Vars {
		if num.Lt(x[j], v.Lo, num.FeasTol) || num.Gt(x[j], v.Up, num.FeasTol) {
			return false
		}
		if v.Type != Continuous && !num.Integral(x[j], num.FeasTol) {
			return false
		}
	}
	for _, r := range s.Prob.Rows {
		var ax float64
		for _, nz := range r.Coefs {
			ax += nz.Val * x[nz.Col]
		}
		switch r.Sense {
		case lp.LE:
			if num.Gt(ax, r.RHS, num.FeasTol) {
				return false
			}
		case lp.GE:
			if num.Lt(ax, r.RHS, num.FeasTol) {
				return false
			}
		case lp.EQ:
			if !num.Eq(ax, r.RHS, num.FeasTol) {
				return false
			}
		}
	}
	if len(s.Plug.Conshdlrs) > 0 {
		gctx := &Ctx{S: s, Data: s.Prob.Data, rng: s.rng,
			Node: &Node{Bound: math.Inf(-1)}}
		for _, h := range s.Plug.Conshdlrs {
			if !h.Check(gctx, x) {
				return false
			}
		}
	}
	return true
}

// submitSolution validates and possibly installs a new incumbent.
//
//ugo:coldpath runs once per improving incumbent, off the steady-state path
func (s *Solver) submitSolution(x []float64, verify bool) bool {
	var obj float64
	for j := range s.Prob.Vars {
		obj += s.Prob.Vars[j].Obj * x[j]
	}
	if s.incumbent != nil && obj >= s.cutoffValue() {
		return false
	}
	if verify && !s.verifyGlobal(x) {
		return false
	}
	xr := append([]float64(nil), x...)
	// Round integral variables exactly.
	for j, v := range s.Prob.Vars {
		if v.Type != Continuous {
			xr[j] = math.Round(xr[j])
		}
	}
	s.incumbent = &Sol{Obj: obj, X: xr}
	s.Stats.SolsFound++
	for _, m := range s.tree.prune(s.cutoffValue()) {
		s.finishNode(m)
	}
	return true
}

// effectiveBoundsInto computes the bounds at node n by walking the
// root path, writing every entry of lo/up (len == number of vars).
func (s *Solver) effectiveBoundsInto(n *Node, lo, up []float64) {
	for j := range s.Prob.Vars {
		lo[j] = s.Prob.Vars[j].Lo
		up[j] = s.Prob.Vars[j].Up
	}
	s.pathScratch = n.pathInto(s.pathScratch)
	for _, nd := range s.pathScratch {
		for _, bc := range nd.BoundChgs {
			if bc.Lo > lo[bc.Var] {
				lo[bc.Var] = bc.Lo
			}
			if bc.Up < up[bc.Var] {
				up[bc.Var] = bc.Up
			}
		}
	}
}

// effectiveBounds is the allocating variant of effectiveBoundsInto,
// used off the solve loop (subproblem encoding) where the caller keeps
// the slices.
func (s *Solver) effectiveBounds(n *Node) (lo, up []float64) {
	nv := len(s.Prob.Vars)
	lo = make([]float64, nv)
	up = make([]float64, nv)
	s.effectiveBoundsInto(n, lo, up)
	return lo, up
}

// activate prepares LP bounds, local cut rows and node data for n. The
// returned context points at solver-owned scratch reused across nodes.
func (s *Solver) activate(n *Node) *Ctx {
	s.effectiveBoundsInto(n, s.localLo, s.localUp)
	if s.Set.UseLP {
		for j := range s.localLo {
			s.lps.SetBound(j, s.localLo[j], s.localUp[j])
		}
		// Toggle local cuts by ancestry.
		if len(s.cutOrigin) > 0 {
			if s.ancScratch == nil {
				s.ancScratch = make(map[int64]bool, n.Depth+1)
			}
			clear(s.ancScratch)
			for cur := n; cur != nil; cur = cur.Parent {
				s.ancScratch[cur.ID] = true
			}
			for k, origin := range s.cutOrigin {
				s.lps.SetRowEnabled(s.baseRows+k, origin < 0 || s.ancScratch[origin])
			}
		}
		// A child right after its parent starts from the LP as the parent
		// left it; after a jump, from the parent's snapshot.
		if p := n.Parent; p != nil && p.snap > 0 {
			if p.ID != s.lastNode {
				s.lps.SetBasis(&s.snaps[p.snap-1])
			}
			if p.unstarted--; p.unstarted == 0 {
				s.dropSnap(p)
			}
		}
		s.lastNode = n.ID
	}
	ctx := &s.nodeCtx
	*ctx = Ctx{S: s, Node: n, rng: s.rng, children: s.nodeCtx.children[:0]}
	if s.Plug.Def != nil {
		ctx.Data = s.Plug.Def.CloneData(s.Prob.Data)
		s.decScratch = s.appendDecisions(s.decScratch[:0], n)
		for _, d := range s.decScratch {
			s.Plug.Def.ApplyDecision(ctx.Data, d)
		}
	} else {
		ctx.Data = s.Prob.Data
	}
	return ctx
}

// appendDecisions appends the root-path branching decisions of n to buf.
func (s *Solver) appendDecisions(buf []Decision, n *Node) []Decision {
	s.pathScratch = n.pathInto(s.pathScratch)
	for _, nd := range s.pathScratch {
		buf = append(buf, nd.Decisions...)
	}
	return buf
}

// getNode returns a zeroed node from the pool, or a fresh one when the
// pool is empty.
func (s *Solver) getNode() *Node {
	if k := len(s.freeNodes); k > 0 {
		n := s.freeNodes[k-1]
		s.freeNodes[k-1] = nil
		s.freeNodes = s.freeNodes[:k-1]
		return n
	}
	//lint:ignore hotalloc pool miss: grows the node pool once per open-node high-water mark
	return &Node{}
}

// releaseNode returns n to the pool. External slices (plugin-owned
// bound changes and decisions) are dropped, never reused.
func (s *Solver) releaseNode(n *Node) {
	n.ID = 0
	n.Depth = 0
	n.Bound = 0
	n.Parent = nil
	n.BoundChgs = nil
	n.Decisions = nil
	n.kids = 0
	n.done = false
	s.dropSnap(n)
	s.freeNodes = append(s.freeNodes, n)
}

// snapBudget bounds the bytes the LP snapshots of open subtrees hold.
// Past it, a node takes a snapshot only into a freed entry, and the
// children of one that finds none start from whatever basis the LP has.
// A reused entry's buffers still grow with the LP's rows, so the bound
// is on the number of entries more than on their bytes.
// On a perturbed d=6 hypercube (384 columns, about 1 100 rows) some
// 1 700 snapshots fit, the open subtrees of its first ten seconds.
const snapBudget = 8 << 20

// takeSnap stores the LP basis n ended with, for its children: in a
// free entry of s.snaps, reusing its buffers, or in a new one while
// the budget allows.
func (s *Solver) takeSnap(n *Node) {
	if k := len(s.freeSnaps); k > 0 {
		n.snap = s.freeSnaps[k-1] + 1
		s.freeSnaps = s.freeSnaps[:k-1]
	} else if s.snapBytes < snapBudget {
		s.snaps = append(s.snaps, lp.Basis{})
		n.snap = int32(len(s.snaps))
	} else {
		return
	}
	b := &s.snaps[n.snap-1]
	s.snapBytes -= b.Bytes()
	s.lps.Basis(b)
	s.snapBytes += b.Bytes()
	n.unstarted = n.kids
}

// dropSnap frees n's snapshot entry, if it has one.
func (s *Solver) dropSnap(n *Node) {
	if n.snap > 0 {
		s.freeSnaps = append(s.freeSnaps, n.snap-1)
		n.snap, n.unstarted = 0, 0
	}
}

// finishNode marks n fully explored (processed, pruned, or handed off)
// and recycles every node on its root path whose subtree is complete.
func (s *Solver) finishNode(n *Node) {
	n.done = true
	for cur := n; cur != nil && cur.done && cur.kids == 0; {
		p := cur.Parent
		s.releaseNode(cur)
		cur = p
		if p != nil {
			p.kids--
		}
	}
}

// newChildNode builds a child of parent from a plugin Child, reusing a
// pooled node.
func (s *Solver) newChildNode(parent *Node, ch Child) *Node {
	s.nextNodeID++
	n := s.getNode()
	n.ID = s.nextNodeID
	n.Depth = parent.Depth + 1
	n.Bound = parent.Bound
	n.Parent = parent
	n.BoundChgs = ch.Bounds
	n.Decisions = ch.Decisions
	parent.kids++
	return n
}

// newChildBound is newChildNode for the builtin brancher's single
// bound change, stored in the node's inline buffer: a steady-state
// branch allocates nothing.
func (s *Solver) newChildBound(parent *Node, bc BoundChg) *Node {
	s.nextNodeID++
	n := s.getNode()
	n.ID = s.nextNodeID
	n.Depth = parent.Depth + 1
	n.Bound = parent.Bound
	n.Parent = parent
	n.ownChg[0] = bc
	n.BoundChgs = n.ownChg[:1]
	parent.kids++
	return n
}

// Solve runs branch and bound from the root of the presolved problem.
func (s *Solver) Solve() Status {
	root := s.getNode()
	root.Bound = math.Inf(-1)
	s.nextNodeID = 0
	s.tree.push(root)
	return s.loop()
}

// SolveSubprob runs branch and bound on a received UG subproblem: its
// bound changes and decisions seed the root node (the ParaSolver path).
func (s *Solver) SolveSubprob(sub *Subprob) Status {
	root := s.getNode()
	root.Bound = sub.Bound
	root.Depth = sub.Depth
	for _, bc := range sub.Bounds {
		root.BoundChgs = append(root.BoundChgs, bc)
	}
	root.Decisions = append(root.Decisions, sub.Decisions...)
	s.nextNodeID = 0
	s.tree.push(root)
	return s.loop()
}

// loop is the solve driver: pop, bound-check, process, repeat.
//
//ugo:hotpath driver
func (s *Solver) loop() Status {
	s.start = time.Now()
	if s.lps != nil {
		// The LP stops at the limit too: one root solve can outlast it. A
		// limit beyond what a Duration holds (≈ 292 years, +Inf) is none.
		s.lps.Deadline = time.Time{}
		if tl := s.Set.TimeLimit; tl > 0 && tl < float64(math.MaxInt64)/float64(time.Second) {
			s.lps.Deadline = s.start.Add(time.Duration(tl * float64(time.Second)))
		}
	}
	for {
		if s.Poll != nil && !s.Poll(s) {
			s.curBound = Infinity
			return StatusInterrupted
		}
		if s.Set.NodeLimit > 0 && s.Stats.Nodes >= s.Set.NodeLimit {
			s.curBound = Infinity
			return StatusNodeLimit
		}
		if s.timeUp() {
			s.curBound = Infinity
			return StatusTimeLimit
		}
		n := s.tree.pop()
		if n == nil {
			s.curBound = Infinity
			if s.incumbent != nil {
				return StatusOptimal
			}
			return StatusInfeasible
		}
		if n.Bound >= s.cutoffValue() {
			s.finishNode(n)
			continue
		}
		s.processNode(n)
		if n.kids > 0 && s.Set.UseLP {
			s.takeSnap(n)
		}
		s.finishNode(n)
		s.curBound = Infinity
	}
}

// timeUp reports whether the solve has run past Settings.TimeLimit.
func (s *Solver) timeUp() bool {
	return s.Set.TimeLimit > 0 && time.Since(s.start).Seconds() > s.Set.TimeLimit
}

// processNode runs propagation, relaxation, enforcement, heuristics and
// branching for one node.
//
//ugo:hotpath
func (s *Solver) processNode(n *Node) {
	isRoot := s.Stats.Nodes == 0
	var rootStart time.Time
	if isRoot {
		rootStart = time.Now()
	}
	s.Stats.Nodes++
	if n.Depth > s.Stats.MaxDepth {
		s.Stats.MaxDepth = n.Depth
	}
	s.curBound = n.Bound
	if s.Trace.Enabled() {
		primal := Infinity
		if s.incumbent != nil {
			primal = s.incumbent.Obj
		}
		s.Trace.SetTick(s.Stats.Nodes)
		s.Trace.Emit(obs.Event{Kind: obs.KindScipNode, Sub: n.ID, Open: s.tree.size(),
			Nodes: s.Stats.Nodes, Dual: n.Bound, Primal: primal})
	}
	ctx := s.activate(n)

	finishRoot := func() {
		if isRoot {
			s.Stats.RootTime = time.Since(rootStart).Seconds()
			s.Stats.RootBound = n.Bound
		}
	}

	// Domain propagation rounds.
	if len(s.Plug.Propagators) > 0 {
		infeasible := func() bool {
			defer phaseAdd(&s.Stats.Phases.Propagation, time.Now())
			for round := 0; round < s.Set.PropRounds; round++ {
				changed := false
				for _, prop := range s.Plug.Propagators {
					res := prop.Propagate(ctx)
					if ctx.infeasible {
						return true
					}
					if res == Reduced {
						changed = true
						s.Stats.PropFixings++
					}
				}
				if !changed {
					break
				}
			}
			return false
		}()
		if infeasible {
			finishRoot()
			return
		}
	}

	// Relaxation + separation + enforcement loop.
	var cand []float64
	candRelaxOptimal := false
	enforceRounds := 0
	maxEnforce := 200 + 20*len(s.Prob.Vars)
	for {
		cand = nil
		candRelaxOptimal = false
		ctx.LPSol = nil
		if s.Set.UseLP {
			st := s.solveLPWithSeparation(ctx, n)
			switch st {
			case lpInfeasible:
				finishRoot()
				return
			case lpCutoff:
				finishRoot()
				return
			case lpOK:
				cand = ctx.LPSol.X
				candRelaxOptimal = true
			case lpLimit:
				if ctx.LPSol != nil {
					cand = ctx.LPSol.X
				}
			}
		}
		// Relaxators (e.g. the SDP relaxation) may improve the bound and
		// produce their own candidate.
		relaxCut := false
		if len(s.Plug.Relaxators) > 0 {
			cutoff := func() bool {
				defer phaseAdd(&s.Stats.Phases.Relax, time.Now())
				for _, rel := range s.Plug.Relaxators {
					rb, x, res := rel.Relax(ctx)
					if res == Cutoff || ctx.infeasible {
						return true
					}
					if rb > n.Bound {
						n.Bound = rb
					}
					if x != nil {
						ctx.RelaxX = x
						cand = x
						candRelaxOptimal = true
					}
					if res == Separated {
						relaxCut = true
					}
				}
				return false
			}()
			if cutoff {
				finishRoot()
				return
			}
		}
		if n.Bound >= s.cutoffValue() {
			finishRoot()
			return
		}
		if relaxCut && enforceRounds < maxEnforce && !s.timeUp() {
			enforceRounds++
			continue
		}
		if cand == nil || !ctx.IsIntegral(cand) {
			break // go branch
		}
		// Integral candidate: constraint handlers decide.
		violated := Conshdlr(nil)
		for _, h := range s.Plug.Conshdlrs {
			if !h.Check(ctx, cand) {
				violated = h
				break
			}
		}
		if violated == nil {
			if candRelaxOptimal {
				// Relaxation-optimal and feasible: node solved.
				s.submitSolution(cand, false)
				finishRoot()
				return
			}
			s.submitSolution(cand, true)
			break
		}
		res := violated.Enforce(ctx, cand)
		if ctx.infeasible || res == Cutoff {
			finishRoot()
			return
		}
		switch res {
		case Separated:
			if s.timeUp() {
				break // stop cutting: branch, so the node stays open for loop to report the limit
			}
			enforceRounds++
			if enforceRounds >= maxEnforce {
				s.Stats.DeadEnds++
				finishRoot()
				return
			}
			continue
		case Branched:
			for _, ch := range ctx.children {
				s.tree.push(s.newChildNode(n, ch))
			}
			finishRoot()
			return
		default:
			// Handler could not make progress; fall through to branching.
		}
		break
	}
	finishRoot()

	// Heuristics.
	runHeur := func() {
		defer phaseAdd(&s.Stats.Phases.Heuristics, time.Now())
		for _, h := range s.Plug.Heuristics {
			h.Search(ctx)
		}
	}
	if s.Set.HeurFreq > 0 && (isRoot || s.Stats.Nodes%int64(s.Set.HeurFreq) == 0) {
		runHeur()
	} else if isRoot {
		runHeur()
	}
	if n.Bound >= s.cutoffValue() {
		return
	}

	// Branching.
	for _, br := range s.Plug.Branchers {
		children, res := br.Branch(ctx)
		if ctx.infeasible {
			return
		}
		if res == Branched || len(children) > 0 {
			for _, ch := range children {
				s.tree.push(s.newChildNode(n, ch))
			}
			for _, ch := range ctx.children {
				s.tree.push(s.newChildNode(n, ch))
			}
			return
		}
	}
	if len(ctx.children) > 0 {
		for _, ch := range ctx.children {
			s.tree.push(s.newChildNode(n, ch))
		}
		return
	}
	if s.branchBuiltin(ctx, n, cand) {
		return
	}
	// Nothing to branch on and the node was not proven: record dead end
	// (tests assert this never fires on the supported problem classes).
	s.Stats.DeadEnds++
}

type lpStatus int8

const (
	lpOK lpStatus = iota
	lpInfeasible
	lpCutoff
	lpLimit
)

// solveLPWithSeparation solves the node LP and runs the cutting-plane
// loop; n.Bound is raised to the final LP value.
func (s *Solver) solveLPWithSeparation(ctx *Ctx, n *Node) lpStatus {
	maxRounds := s.Set.SepaRounds
	if n.Depth > 0 {
		maxRounds = s.Set.SepaRoundsLocal
		if maxRounds <= 0 {
			maxRounds = 1
		}
	}
	for round := 0; ; round++ {
		lpStart := time.Now()
		sol := s.lps.Solve()
		phaseAdd(&s.Stats.Phases.LP, lpStart)
		s.Stats.LPIterations += int64(sol.Iters)
		switch sol.Status {
		case lp.Infeasible:
			return lpInfeasible
		case lp.Unbounded:
			// Relaxation unbounded: no usable LP information.
			return lpLimit
		case lp.IterLimit:
			// sol carries no point: ctx.LPSol stays what the last
			// completed round left, or nil.
			return lpLimit
		}
		ctx.LPSol = sol
		if sol.Obj > n.Bound {
			n.Bound = sol.Obj
		}
		if n.Bound >= s.cutoffValue() {
			return lpCutoff
		}
		if round >= maxRounds {
			return lpOK
		}
		if s.timeUp() {
			// Out of time between separation rounds: the node keeps the
			// bound reached so far and goes on to branching, so its
			// children hold the tree's dual bound when loop stops.
			return lpLimit
		}
		before := ctx.ncuts
		infeasible := func() bool {
			defer phaseAdd(&s.Stats.Phases.Separation, time.Now())
			for _, sep := range s.Plug.Separators {
				sep.Separate(ctx)
				if ctx.infeasible {
					return true
				}
			}
			return false
		}()
		if infeasible {
			return lpInfeasible
		}
		if ctx.ncuts == before {
			return lpOK
		}
	}
}

// branchBuiltin branches on a fractional integer variable (most
// fractional, pseudocost, or random per settings); if the candidate is
// integral or absent it bisects the widest unfixed integer domain.
// Returns false when no branching is possible.
func (s *Solver) branchBuiltin(ctx *Ctx, n *Node, cand []float64) bool {
	bestJ := -1
	var bestScore float64
	if cand != nil {
		for j, v := range s.Prob.Vars {
			if v.Type == Continuous {
				continue
			}
			f := cand[j] - math.Floor(cand[j])
			frac := math.Min(f, 1-f)
			if frac < num.FeasTol {
				continue
			}
			var score float64
			switch s.Set.Branching {
			case BranchPseudoCost:
				up := s.pseudo(j, true)
				down := s.pseudo(j, false)
				score = (1-f)*down + f*up + 0.1*frac
			case BranchRandom:
				score = s.rng.Float64()
			default:
				score = frac
			}
			score += s.jitter[j]
			if score > bestScore {
				bestScore = score
				bestJ = j
			}
		}
	}
	if bestJ >= 0 {
		v := cand[bestJ]
		floor := math.Floor(v)
		down := BoundChg{Var: bestJ, Lo: s.localLo[bestJ], Up: floor}
		up := BoundChg{Var: bestJ, Lo: floor + 1, Up: s.localUp[bestJ]}
		// Push the more promising child last so DFS/plunge pops it first.
		if v-floor > 0.5 {
			s.tree.push(s.newChildBound(n, down))
			s.tree.push(s.newChildBound(n, up))
		} else {
			s.tree.push(s.newChildBound(n, up))
			s.tree.push(s.newChildBound(n, down))
		}
		s.recordPseudo(bestJ, v)
		return true
	}
	// Fallback: bisect the widest unfixed integral domain.
	widest, width := -1, 0.999
	for j, v := range s.Prob.Vars {
		if v.Type == Continuous {
			continue
		}
		if w := s.localUp[j] - s.localLo[j]; w > width {
			width = w
			widest = j
		}
	}
	if widest < 0 {
		return false
	}
	mid := math.Floor((s.localLo[widest] + s.localUp[widest]) / 2)
	s.tree.push(s.newChildBound(n, BoundChg{Var: widest, Lo: s.localLo[widest], Up: mid}))
	s.tree.push(s.newChildBound(n, BoundChg{Var: widest, Lo: mid + 1, Up: s.localUp[widest]}))
	return true
}

// pseudo returns the average objective degradation per unit for branching
// j up/down, with an objective-based prior.
func (s *Solver) pseudo(j int, up bool) float64 {
	prior := math.Abs(s.Prob.Vars[j].Obj) + 1e-3
	if up {
		if num.ExactZero(s.pcUpN[j]) { // no observations yet
			return prior
		}
		return s.pcUp[j] / s.pcUpN[j]
	}
	if num.ExactZero(s.pcDownN[j]) { // no observations yet
		return prior
	}
	return s.pcDown[j] / s.pcDownN[j]
}

// recordPseudo updates pseudocosts with the fractionality at branch time
// (a light-weight stand-in for SCIP's LP-gain bookkeeping).
func (s *Solver) recordPseudo(j int, v float64) {
	f := v - math.Floor(v)
	s.pcDown[j] += f
	s.pcDownN[j]++
	s.pcUp[j] += 1 - f
	s.pcUpN[j]++
}

// Elapsed returns the wall-clock time since Solve started.
func (s *Solver) Elapsed() float64 { return time.Since(s.start).Seconds() }
