package steiner

import (
	"math"

	"repro/internal/scip"
)

// This file contains the SCIP-Jack plugins: the Steiner-cut constraint
// handler and separator, the reduced-cost/reduction propagator, the
// shortest-path primal heuristic and the vertex brancher.

// Conshdlr enforces Steiner connectivity on integral candidates.
type Conshdlr struct{}

// Name implements scip.Conshdlr.
func (*Conshdlr) Name() string { return "stp" }

// Check implements scip.Conshdlr: the support of x must connect the root
// to every (node-local) terminal.
//
//ugo:coldpath connectivity check runs once per candidate incumbent, not per node
func (*Conshdlr) Check(ctx *scip.Ctx, x []float64) bool {
	inst := ctx.Data.(*Instance)
	return inst.check(x)
}

// Enforce implements scip.Conshdlr: add a violated Steiner cut for an
// unreached terminal. Cuts for original terminals are globally valid;
// cuts for branching-added terminals are local to the subtree.
//
//ugo:coldpath cut synthesis walks the support graph once per enforcement round; its working sets are instance-sized and audited separately from the node loop
func (*Conshdlr) Enforce(ctx *scip.Ctx, x []float64) scip.Result {
	inst := ctx.Data.(*Instance)
	return inst.enforce(ctx, x)
}

// Separator finds violated directed Steiner cuts on fractional LP
// solutions via max-flow (the branch-and-cut engine of SCIP-Jack) and
// performs LP reduced-cost fixing as a side effect.
type Separator struct{}

// Name implements scip.Separator.
func (*Separator) Name() string { return "stpcuts" }

// Separate implements scip.Separator.
//
//ugo:coldpath min-cut separation is budget-capped by the solver and dominated by the max-flow solve, not by its allocations
func (sep *Separator) Separate(ctx *scip.Ctx) scip.Result {
	if ctx.LPSol == nil {
		return scip.DidNotRun
	}
	inst := ctx.Data.(*Instance)
	sep.redCostFixing(ctx, inst)
	if inst.Root < 0 || !inst.SPG.G.VertexAlive(inst.Root) {
		return scip.DidNotRun
	}
	return inst.separate(ctx)
}

// redCostFixing fixes arc variables using LP reduced costs against the
// incumbent (SCIP-Jack's reduced-cost domain propagation).
func (sep *Separator) redCostFixing(ctx *scip.Ctx, inst *Instance) {
	ub := ctx.UpperBound()
	if math.IsInf(ub, 1) || ctx.LPSol == nil {
		return
	}
	lpObj := ctx.LPSol.Obj
	slack := ub - lpObj
	if ctx.S.Prob.IntegralObj {
		slack = ub - 1 + 1e-6 - lpObj
	}
	for j := range inst.VarArc {
		d := ctx.LPSol.RedCosts[j]
		xj := ctx.LPSol.X[j]
		if xj < 1e-9 && d > slack+1e-9 {
			ctx.TightenUp(j, 0)
		} else if xj > 1-1e-9 && -d > slack+1e-9 {
			ctx.TightenLo(j, 1)
		}
	}
}

// Propagator syncs branching decisions and local reductions into
// variable bounds: arcs of deleted edges are fixed to zero, and the
// deletion-only reduction layer (including the restricted extended
// reductions) runs on the node-local graph — the in-tree effect the
// paper credits for solving bip52u.
type Propagator struct {
	ReductionBudget int // max edges/vertices examined per node (0 = all)
	MinDepth        int // only run full reductions at depth ≥ MinDepth
}

// Name implements scip.Propagator.
func (*Propagator) Name() string { return "stpprop" }

// Propagate implements scip.Propagator.
//
//ugo:coldpath reduction-based domain propagation reduces the node-local graph in place, in rounds until the per-node fixpoint; ReduceLocal's search workspace and the connectivity mask are allocated once per round
func (p *Propagator) Propagate(ctx *scip.Ctx) scip.Result {
	inst := ctx.Data.(*Instance)
	local := inst.SPG
	changed := false
	// Remove edges whose two arcs are both fixed to zero, making the
	// local graph consistent with the bound state.
	for e := 0; e < local.G.NumEdges(); e++ {
		if !local.G.EdgeAlive(e) {
			continue
		}
		j1, j2 := inst.ArcVar[2*e], inst.ArcVar[2*e+1]
		fixed0 := func(j int) bool { return j >= 0 && ctx.LocalUp(j) < 0.5 }
		if (j1 < 0 || fixed0(j1)) && (j2 < 0 || fixed0(j2)) {
			local.G.DeleteEdge(e)
		}
	}
	// Run the deletion-only reduction layer.
	if ctx.Node.Depth >= p.MinDepth {
		if ReduceLocal(local, p.ReductionBudget) > 0 {
			changed = true
		}
	}
	// Sync graph state back into bounds: dead edges and dead vertices fix
	// their arcs to zero.
	for e := 0; e < local.G.NumEdges(); e++ {
		alive := local.G.EdgeAlive(e)
		if alive {
			continue
		}
		for o := 0; o < 2; o++ {
			if j := inst.ArcVar[2*e+o]; j >= 0 && ctx.LocalUp(j) > 0.5 {
				ctx.TightenUp(j, 0)
				changed = true
			}
		}
	}
	// Infeasibility: some local terminal disconnected from the root.
	if root := inst.Root; root >= 0 {
		if !local.G.VertexAlive(root) {
			ctx.MarkInfeasible()
			return scip.Cutoff
		}
		comp := local.G.ConnectedComponent(root)
		for _, t := range local.Terminals() {
			if !comp[t] {
				ctx.MarkInfeasible()
				return scip.Cutoff
			}
		}
	}
	if changed {
		return scip.Reduced
	}
	return scip.DidNothing
}

// Heuristic is the shortest-path (TM) construction with LP bias and
// MST-prune improvement.
type Heuristic struct{}

// Name implements scip.Heuristic.
func (*Heuristic) Name() string { return "stpheur" }

// Search implements scip.Heuristic.
//
//ugo:coldpath primal heuristic is frequency-gated by the solver; its shortest-path scratch is proportional to the instance, not the tree
func (h *Heuristic) Search(ctx *scip.Ctx) scip.Result {
	inst := ctx.Data.(*Instance)
	local := inst.SPG
	root := inst.Root
	if root < 0 || !local.G.VertexAlive(root) {
		return scip.DidNotRun
	}
	// LP-biased costs: edges carrying LP flow become cheaper.
	var costs []float64
	if ctx.LPSol != nil {
		costs = make([]float64, local.G.NumEdges())
		for e := range costs {
			costs[e] = local.G.Cost(e)
			var y float64
			for o := 0; o < 2; o++ {
				if j := inst.ArcVar[2*e+o]; j >= 0 {
					y += ctx.LPSol.X[j]
				}
			}
			if y > 1 {
				y = 1
			}
			costs[e] *= 1 - 0.75*y
		}
	}
	edges, _, ok := ShortestPathHeuristic(local, root, costs)
	if !ok {
		return scip.DidNothing
	}
	edges, _ = MSTPruneImprove(local, edges)
	edges, _ = VertexInsertionImprove(local, edges, 2)
	x := inst.OrientTree(edges)
	if ctx.SubmitSol(x) {
		return scip.FoundSol
	}
	return scip.DidNothing
}

// Brancher implements SCIP-Jack's vertex branching: the chosen
// non-terminal either becomes a terminal (must be spanned) or is deleted.
// Both children are described by solver-independent Decisions, which is
// what lets UG transfer them between ParaSolvers.
type Brancher struct{}

// Name implements scip.Brancher.
func (*Brancher) Name() string { return "stpvertex" }

// Branch implements scip.Brancher.
//
//ugo:coldpath runs once per branched node and must allocate the Child bound sets it hands to the tree
func (b *Brancher) Branch(ctx *scip.Ctx) ([]scip.Child, scip.Result) {
	if ctx.LPSol == nil {
		return nil, scip.DidNotRun
	}
	inst := ctx.Data.(*Instance)
	local := inst.SPG
	x := ctx.LPSol.X
	best, bestScore := -1, 1e-5
	for v := 0; v < local.G.NumVertices(); v++ {
		if !local.G.VertexAlive(v) || local.Terminal[v] {
			continue
		}
		var inflow float64
		local.G.Adj(v, func(e, w int) bool {
			a := 2 * e
			if local.ArcHead(a) != v {
				a = 2*e + 1
			}
			if j := inst.ArcVar[a]; j >= 0 {
				inflow += x[j]
			}
			return true
		})
		score := math.Min(inflow, 1-inflow)
		if score > bestScore {
			bestScore = score
			best = v
		}
	}
	if best < 0 {
		return nil, scip.DidNotRun // fall back to arc-variable branching
	}
	// Child A: vertex becomes a terminal. Child B: vertex deleted, all
	// its arc variables fixed to zero (explicit bounds so the fixings
	// travel with the UG subproblem encoding).
	var zeroBounds []scip.BoundChg
	local.G.Adj(best, func(e, w int) bool {
		for o := 0; o < 2; o++ {
			if j := inst.ArcVar[2*e+o]; j >= 0 {
				zeroBounds = append(zeroBounds, scip.BoundChg{Var: j, Lo: 0, Up: 0})
			}
		}
		return true
	})
	children := []scip.Child{
		{Decisions: []scip.Decision{{Kind: DecisionKind, V: best, Flag: true}}},
		{Decisions: []scip.Decision{{Kind: DecisionKind, V: best, Flag: false}}, Bounds: zeroBounds},
	}
	return children, scip.Branched
}

// NewPlugins assembles the full SCIP-Jack plugin set.
func NewPlugins() *scip.Plugins {
	return &scip.Plugins{
		Def:         &Def{},
		Propagators: []scip.Propagator{&Propagator{ReductionBudget: 400, MinDepth: 1}},
		Separators:  []scip.Separator{&Separator{}},
		Heuristics:  []scip.Heuristic{&Heuristic{}},
		Conshdlrs:   []scip.Conshdlr{&Conshdlr{}},
		Branchers:   []scip.Brancher{&Brancher{}},
	}
}
