package steiner

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
	"repro/internal/num"
	"repro/internal/scip"
)

// SAPInstance is the model-level data for a SAP (the variant pipeline):
// the instance is immutable during the search — variants branch on arc
// variables, not on graph structure — so node clones share the pointer.
// Column j is arc j of S.
type SAPInstance struct {
	S   *SAP
	arb *arborescence
}

// colAlive implements arcModel: every arc exists at every node.
func (*SAPInstance) colAlive(int) bool { return true }

// globalCut implements arcModel: variants have no branching-added
// terminals, so every cut is global.
func (*SAPInstance) globalCut(int) bool { return true }

// SAPDef implements scip.ProblemDef for Steiner arborescence variants.
type SAPDef struct{}

// Presolve implements scip.ProblemDef (variants skip graph reductions —
// those are SPG-specific in this reproduction).
func (d *SAPDef) Presolve(data any, _ float64) (any, float64) { return data, 0 }

// BuildModel implements scip.ProblemDef: one binary variable per arc,
// the flow-balance/in-degree strengthening rows of Formulation 1, and
// the root-degree side constraint of the unrooted transformations.
func (d *SAPDef) BuildModel(data any) *scip.Prob {
	s := data.(*SAP)
	if err := s.validate(); err != nil {
		panic(err)
	}
	inst := &SAPInstance{S: s, arb: newArborescence(s.N, s.Root)}
	integral := true
	for _, a := range s.Arcs {
		if !num.Integral(a.Cost, 0) { // exact data integrality gates bound rounding
			integral = false
		}
	}
	prob := &scip.Prob{Name: "sap:" + s.Name, Data: inst, IntegralObj: integral}
	for a, arc := range s.Arcs {
		inst.arb.addArc(prob, fmt.Sprintf("a_%d", a), arc.Tail, arc.Head, arc.Cost)
	}
	inst.arb.addRows(prob, s.Terminal, func(v int) bool { return len(inst.arb.in[v]) > 0 })
	if s.RootDegreeOne {
		var coefs []lp.Nonzero
		for a, arc := range s.Arcs {
			if arc.Anchor {
				coefs = append(coefs, lp.Nonzero{Col: a, Val: 1})
			}
		}
		prob.AddRow("rootdeg", lp.EQ, 1, coefs)
	}
	return prob
}

// CloneData implements scip.ProblemDef; SAP data is immutable.
func (d *SAPDef) CloneData(data any) any { return data }

// ApplyDecision implements scip.ProblemDef; variants branch on
// variables only.
func (d *SAPDef) ApplyDecision(any, scip.Decision) {}

// SAPConshdlr enforces arborescence connectivity.
type SAPConshdlr struct{}

// Name implements scip.Conshdlr.
func (*SAPConshdlr) Name() string { return "sap" }

// Check implements scip.Conshdlr.
//
//ugo:coldpath reachability check runs once per candidate incumbent, not per node
func (*SAPConshdlr) Check(ctx *scip.Ctx, x []float64) bool {
	inst := ctx.Data.(*SAPInstance)
	return inst.arb.check(inst, inst.S.Terminals(), x)
}

// Enforce implements scip.Conshdlr: add the cut of an unreached
// terminal's component.
//
//ugo:coldpath cut synthesis walks the arc support once per enforcement round; working sets are instance-sized and audited separately
func (*SAPConshdlr) Enforce(ctx *scip.Ctx, x []float64) scip.Result {
	inst := ctx.Data.(*SAPInstance)
	return inst.arb.enforce(ctx, inst, inst.S.Terminals(), x)
}

// SAPSeparator separates directed cuts on fractional points via
// max-flow, exactly as the SPG separator does.
type SAPSeparator struct{}

// Name implements scip.Separator.
func (*SAPSeparator) Name() string { return "sapcuts" }

// Separate implements scip.Separator.
//
//ugo:coldpath fractional-support separation is budget-capped by the solver and dominated by the max-flow solves
func (sep *SAPSeparator) Separate(ctx *scip.Ctx) scip.Result {
	if ctx.LPSol == nil {
		return scip.DidNotRun
	}
	inst := ctx.Data.(*SAPInstance)
	return inst.arb.separate(ctx, inst, inst.S.Terminals())
}

// SAPHeuristic builds an arborescence by repeated shortest paths from
// the already-connected set, honoring the root-degree side constraint.
type SAPHeuristic struct{}

// Name implements scip.Heuristic.
func (*SAPHeuristic) Name() string { return "sapheur" }

// Search implements scip.Heuristic.
//
//ugo:coldpath primal heuristic is frequency-gated; its Dijkstra scratch scales with the instance, not the tree
func (h *SAPHeuristic) Search(ctx *scip.Ctx) scip.Result {
	inst := ctx.Data.(*SAPInstance)
	s := inst.S
	// Arc costs biased by the LP solution when available.
	cost := make([]float64, len(s.Arcs))
	for a, arc := range s.Arcs {
		cost[a] = arc.Cost
		if ctx.LPSol != nil {
			cost[a] *= 1 - 0.75*math.Min(1, ctx.LPSol.X[a])
		}
	}
	x := make([]float64, len(s.Arcs))
	inTree := make([]bool, s.N)
	inTree[s.Root] = true
	anchorUsed := false
	var remaining []int // ascending, so ties go to the lowest vertex
	for _, t := range s.Terminals() {
		if t != s.Root {
			remaining = append(remaining, t)
		}
	}
	for len(remaining) > 0 {
		// Dijkstra over arcs from the tree; anchors blocked after the
		// first one is committed (the side constraint allows only one).
		dist := make([]float64, s.N)
		pred := make([]int, s.N)
		for i := range dist {
			dist[i] = math.Inf(1)
			pred[i] = -1
		}
		pq := &bndHeap{}
		for v := 0; v < s.N; v++ {
			if inTree[v] {
				dist[v] = 0
				heap.Push(pq, bndItem{v, 0})
			}
		}
		for pq.Len() > 0 {
			it := heap.Pop(pq).(bndItem)
			if it.d > dist[it.v]+1e-15 {
				continue
			}
			for _, a := range inst.arb.out[it.v] {
				arc := s.Arcs[a]
				// x is this heuristic's own 0/1 arc indicator (assigned,
				// never computed), so the exact test is sound.
				if arc.Anchor && anchorUsed && num.ExactZero(x[a]) {
					continue
				}
				if nd := it.d + cost[a]; nd < dist[arc.Head]-1e-15 {
					dist[arc.Head] = nd
					pred[arc.Head] = a
					heap.Push(pq, bndItem{arc.Head, nd})
				}
			}
		}
		bi := 0
		for i, t := range remaining {
			if dist[t] < dist[remaining[bi]] {
				bi = i
			}
		}
		best := remaining[bi]
		if math.IsInf(dist[best], 1) {
			return scip.DidNothing
		}
		for v := best; !inTree[v]; {
			a := pred[v]
			if a < 0 {
				break
			}
			x[a] = 1
			if s.Arcs[a].Anchor {
				anchorUsed = true
			}
			inTree[v] = true
			v = s.Arcs[a].Tail
		}
		remaining = slices.Delete(remaining, bi, bi+1)
	}
	// Prune arcs not on a root→terminal path: repeatedly drop leaves.
	pruneArborescence(inst, x)
	if ctx.SubmitSol(x) {
		return scip.FoundSol
	}
	return scip.DidNothing
}

// pruneArborescence removes arcs into non-terminal leaves.
func pruneArborescence(inst *SAPInstance, x []float64) {
	s := inst.S
	for changed := true; changed; {
		changed = false
		for v := 0; v < s.N; v++ {
			if v == s.Root || s.Terminal[v] {
				continue
			}
			outUsed := false
			for _, a := range inst.arb.out[v] {
				if x[a] > 0.5 {
					outUsed = true
					break
				}
			}
			if outUsed {
				continue
			}
			for _, a := range inst.arb.in[v] {
				if x[a] > 0.5 {
					x[a] = 0
					changed = true
				}
			}
		}
	}
}

// NewSAPPlugins assembles the variant solver's plugin set.
func NewSAPPlugins() *scip.Plugins {
	return &scip.Plugins{
		Def:        &SAPDef{},
		Separators: []scip.Separator{&SAPSeparator{}},
		Heuristics: []scip.Heuristic{&SAPHeuristic{}},
		Conshdlrs:  []scip.Conshdlr{&SAPConshdlr{}},
	}
}

// SolveSAP runs the variant pipeline sequentially and returns the
// objective in the variant's own scale.
func SolveSAP(s *SAP, set scip.Settings) (float64, scip.Status, *scip.Solver) {
	def := &SAPDef{}
	prob := def.BuildModel(s)
	plug := NewSAPPlugins()
	solver := scip.NewSolver(prob, set, plug)
	st := solver.Solve()
	if st == scip.StatusOptimal {
		return s.Value(solver.Incumbent().Obj), st, solver
	}
	return math.NaN(), st, solver
}
