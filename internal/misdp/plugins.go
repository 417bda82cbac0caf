package misdp

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/num"
	"repro/internal/scip"
	"repro/internal/sdp"
)

const psdTol = 1e-6

// nodeSDP is the SDP memory of one plugin set, which its Relaxator and
// Heuristic share: one sdp.Solver and the node problem with its bound
// buffers. core.App.MakePlugins builds a plugin set per solve, so no
// nodeSDP is used by two goroutines.
type nodeSDP struct {
	solver sdp.Solver
	prob   sdp.Problem
}

// localProblem builds the continuous SDP of the current node: the MISDP
// with the node-local bounds, over n's buffers, which the next call
// overwrites.
func (n *nodeSDP) localProblem(ctx *scip.Ctx, p *MISDP) *sdp.Problem {
	q := &n.prob
	q.Lo, q.Up = q.Lo[:0], q.Up[:0]
	for i := 0; i < p.M; i++ {
		q.Lo = append(q.Lo, ctx.LocalLo(i))
		q.Up = append(q.Up, ctx.LocalUp(i))
	}
	q.M, q.B, q.Blocks, q.Rows = p.M, p.B, p.Blocks, p.Rows
	return q
}

// eigCutCoefs derives the Sherali–Fraticelli eigenvector cut
// Σ (vᵀA_i v)·y_i ≤ vᵀC v from eigenvector v of a block.
func eigCutCoefs(blk *sdp.Block, v []float64) (coefs []lp.Nonzero, rhs float64) {
	for i, a := range blk.A {
		if a == nil {
			continue
		}
		if w := a.QuadForm(v); math.Abs(w) > 1e-12 {
			coefs = append(coefs, lp.Nonzero{Col: i, Val: w})
		}
	}
	return coefs, blk.C.QuadForm(v)
}

// Conshdlr enforces the SDP cones. NewPlugins builds it.
type Conshdlr struct{ z zScratch }

// Name implements scip.Conshdlr.
func (*Conshdlr) Name() string { return "sdpcone" }

// Check implements scip.Conshdlr.
//
//ugo:coldpath cone feasibility check runs once per candidate incumbent and is dominated by the eigensolve
func (c *Conshdlr) Check(ctx *scip.Ctx, x []float64) bool {
	p := ctx.Data.(*Instance).P
	for _, blk := range p.Blocks {
		if c.z.minEigenvalue(blk, x) < -psdTol {
			return false
		}
	}
	return true
}

// Enforce implements scip.Conshdlr: in LP mode it adds an eigenvector
// cut for the most violated block (the cutting-plane approach); in SDP
// mode the relaxator already guarantees cone feasibility, so reaching
// this point defers to branching.
//
//ugo:coldpath eigenvector-cut synthesis is dominated by the dense eigensolve; its matrix scratch is block-sized and audited with the linalg kernels
func (c *Conshdlr) Enforce(ctx *scip.Ctx, x []float64) scip.Result {
	if !ctx.Settings().UseLP {
		return scip.DidNothing
	}
	p := ctx.Data.(*Instance).P
	added := false
	for _, blk := range p.Blocks {
		lam, v := linalg.MinEigen(c.z.at(blk, x))
		if lam >= -psdTol {
			continue
		}
		coefs, rhs := eigCutCoefs(blk, v)
		if len(coefs) == 0 {
			ctx.MarkInfeasible()
			return scip.Cutoff
		}
		if ctx.AddCut(lp.LE, rhs, coefs) {
			added = true
		}
	}
	if added {
		return scip.Separated
	}
	return scip.DidNothing
}

// Separator adds eigenvector cuts for fractional LP solutions (LP mode).
type Separator struct {
	MaxPerBlock int
	z           zScratch
}

// Name implements scip.Separator.
func (*Separator) Name() string { return "eigcut" }

// Separate implements scip.Separator.
//
//ugo:coldpath eigencut separation is budget-capped by the solver and dominated by the eigensolve, not by its allocations
func (s *Separator) Separate(ctx *scip.Ctx) scip.Result {
	if ctx.LPSol == nil || !ctx.Settings().UseLP {
		return scip.DidNotRun
	}
	if ctx.CutBudgetLeft() <= 0 {
		return scip.DidNothing
	}
	p := ctx.Data.(*Instance).P
	maxPer := s.MaxPerBlock
	if maxPer <= 0 {
		maxPer = 2
	}
	added := 0
	for _, blk := range p.Blocks {
		eig := linalg.Eigen(s.z.at(blk, ctx.LPSol.X))
		for k := 0; k < maxPer && k < blk.N; k++ {
			if eig.Values[k] >= -psdTol {
				break
			}
			coefs, rhs := eigCutCoefs(blk, eig.Vectors[k])
			if len(coefs) == 0 {
				continue
			}
			if ctx.AddCut(lp.LE, rhs, coefs) {
				added++
			}
		}
	}
	if added > 0 {
		return scip.Separated
	}
	return scip.DidNothing
}

// Relaxator solves the continuous SDP relaxation at every node — the
// nonlinear branch-and-bound mode, with the penalty formulation handled
// inside the sdp package. NewPlugins builds it.
type Relaxator struct {
	node *nodeSDP
}

// Name implements scip.Relaxator.
func (*Relaxator) Name() string { return "sdprelax" }

// Relax implements scip.Relaxator.
//
//ugo:coldpath each relaxation is a full interior-point SDP solve: the plugin set's sdp.Solver folds the node's fixings into the instance's compiled Blocks in buffers it keeps, allocating the Result and the iterate, and the Newton steps under it are a //ugo:hotpath root of their own, pinned at 0 allocs
func (r *Relaxator) Relax(ctx *scip.Ctx) (float64, []float64, scip.Result) {
	if ctx.Settings().UseLP {
		return math.Inf(-1), nil, scip.DidNotRun
	}
	p := ctx.Data.(*Instance).P
	res := r.node.solver.Solve(r.node.localProblem(ctx, p), sdp.Options{})
	switch res.Status {
	case sdp.Infeasible:
		return math.Inf(1), nil, scip.Cutoff
	case sdp.NumericTrouble:
		// No trustworthy bound; provide the point (if interior) for
		// branching but claim nothing.
		return math.Inf(-1), res.Y, scip.DidNothing
	}
	// scip minimizes −Bᵀy, so the node lower bound is −UpperBound.
	bound := -res.UpperBound
	return bound, res.Y, scip.DidNothing
}

// Heuristic is SCIP-SDP's randomized rounding: round the relaxation's
// integer values (nearest and randomized), fix them, re-solve the
// continuous SDP over the remaining variables, and submit the result.
// NewPlugins builds it.
type Heuristic struct {
	node *nodeSDP
}

// Name implements scip.Heuristic.
func (*Heuristic) Name() string { return "fixround" }

// Search implements scip.Heuristic.
//
//ugo:coldpath rounding heuristic is frequency-gated and copies one candidate vector per attempt
func (h *Heuristic) Search(ctx *scip.Ctx) scip.Result {
	var base []float64
	if ctx.RelaxX != nil {
		base = ctx.RelaxX
	} else if ctx.LPSol != nil {
		base = ctx.LPSol.X
	} else {
		return scip.DidNotRun
	}
	p := ctx.Data.(*Instance).P
	found := scip.DidNothing
	for attempt := 0; attempt < 2; attempt++ {
		prob := h.node.localProblem(ctx, p)
		anyCont := false
		for i := 0; i < p.M; i++ {
			if !p.IsInt[i] {
				anyCont = true
				continue
			}
			v := base[i]
			var rounded float64
			if attempt == 0 {
				rounded = math.Round(v)
			} else {
				f := v - math.Floor(v)
				if ctx.Rand().Float64() < f {
					rounded = math.Ceil(v)
				} else {
					rounded = math.Floor(v)
				}
			}
			rounded = math.Max(prob.Lo[i], math.Min(prob.Up[i], rounded))
			rounded = math.Round(rounded)
			prob.Lo[i], prob.Up[i] = rounded, rounded
		}
		var y []float64
		if anyCont {
			res := h.node.solver.Solve(prob, sdp.Options{})
			if res.Status != sdp.Solved {
				continue
			}
			y = res.Y
			for i := 0; i < p.M; i++ {
				if p.IsInt[i] {
					y[i] = prob.Lo[i]
				}
			}
		} else {
			y = make([]float64, p.M)
			for i := 0; i < p.M; i++ {
				y[i] = prob.Lo[i]
			}
		}
		if !p.Feasible(y, psdTol) {
			continue
		}
		if ctx.SubmitSol(y) {
			found = scip.FoundSol
		}
	}
	return found
}

// NewPlugins assembles the SCIP-SDP plugin set (shared by the LP and
// SDP modes; mode selection happens via Settings.UseLP). Its Relaxator
// and Heuristic solve on one sdp.Solver.
func NewPlugins() *scip.Plugins {
	node := new(nodeSDP)
	return &scip.Plugins{
		Def:         &Def{},
		Propagators: []scip.Propagator{&Propagator{}},
		Separators:  []scip.Separator{&Separator{}},
		Heuristics:  []scip.Heuristic{&Heuristic{node: node}},
		Conshdlrs:   []scip.Conshdlr{&Conshdlr{}},
		Relaxators:  []scip.Relaxator{&Relaxator{node: node}},
	}
}

// LPSettings returns the cutting-plane configuration.
func LPSettings() scip.Settings {
	s := scip.DefaultSettings()
	s.Name = "lp-default"
	s.UseLP = true
	s.MaxCutRows = 600
	return s
}

// SDPSettings returns the nonlinear branch-and-bound configuration.
func SDPSettings() scip.Settings {
	s := scip.DefaultSettings()
	s.Name = "sdp-default"
	s.UseLP = false
	return s
}

// SettingsLadder builds the racing settings for ug[SCIP-SDP,*]: odd
// setting numbers (1-based, as in the paper's Figure 1) are SDP-based,
// even numbers LP-based, with emphasis/branching/seed variations.
func SettingsLadder(n int) []scip.Settings {
	emph := []scip.Emphasis{scip.EmphDefault, scip.EmphEasyCIP, scip.EmphAggressive, scip.EmphFeasibility}
	branch := []scip.BranchRule{scip.BranchPseudoCost, scip.BranchMostFractional, scip.BranchRandom}
	var out []scip.Settings
	for idx := 0; idx < n; idx++ {
		number := idx + 1
		var s scip.Settings
		if number%2 == 1 {
			s = SDPSettings()
			s.Name = fmt.Sprintf("%d:sdp", number)
		} else {
			s = LPSettings()
			s.Name = fmt.Sprintf("%d:lp", number)
		}
		if number <= 2 {
			// Settings 1 and 2 are the unmodified default configurations,
			// so a single-threaded ug run reproduces the sequential solver
			// plus coordination overhead (the paper's Table 4 baseline).
			out = append(out, s)
			continue
		}
		e := emph[(number/2)%len(emph)]
		s.Emphasis = e
		if e != scip.EmphDefault {
			s.Name += "-" + e.String()
		}
		s.Branching = branch[(number/3)%len(branch)]
		s.Seed = int64(number * 131)
		s.PermuteTieBreak = true
		out = append(out, s)
	}
	return out
}

// Propagator performs interval propagation on the linear rows (the
// linear-constraint domain propagation every SCIP build ships): bounds
// implied by a row's residual activity are tightened, so variables that
// the rows pin — e.g. |x_j| ≤ M·z_j once branching fixes z_j = 0 —
// become fixed bounds. This matters doubly in SDP mode: the fixed
// variables are eliminated before the barrier solve, which restores the
// strict interior the interior-point method needs.
type Propagator struct{}

// Name implements scip.Propagator.
func (*Propagator) Name() string { return "linprop" }

// Propagate implements scip.Propagator.
//
//ugo:coldpath linear-row propagation mutates bounds in place; runs only until the per-node fixpoint
func (*Propagator) Propagate(ctx *scip.Ctx) scip.Result {
	p := ctx.Data.(*Instance).P
	changed := false
	for _, row := range p.Rows {
		// Minimum activity over the box and its infinity count.
		minAct := 0.0
		infCount := 0
		for i, a := range row.Coef {
			if num.ExactZero(a) {
				continue
			}
			var contrib float64
			if a > 0 {
				contrib = a * ctx.LocalLo(i)
			} else {
				contrib = a * ctx.LocalUp(i)
			}
			if math.IsInf(contrib, -1) {
				infCount++
				continue
			}
			minAct += contrib
		}
		for i, a := range row.Coef {
			if num.ExactZero(a) {
				continue
			}
			// Residual minimum activity excluding i.
			var own float64
			if a > 0 {
				own = a * ctx.LocalLo(i)
			} else {
				own = a * ctx.LocalUp(i)
			}
			rest := minAct
			restInf := infCount
			if math.IsInf(own, -1) {
				restInf--
			} else {
				rest -= own
			}
			if restInf > 0 {
				continue // residual activity unbounded below: nothing to infer
			}
			limit := (row.RHS - rest) / a
			if a > 0 {
				if p.IsInt[i] {
					limit = math.Floor(limit + 1e-9)
				}
				if ctx.TightenUp(i, limit) {
					changed = true
				}
			} else {
				if p.IsInt[i] {
					limit = math.Ceil(limit - 1e-9)
				}
				if ctx.TightenLo(i, limit) {
					changed = true
				}
			}
		}
	}
	if changed {
		return scip.Reduced
	}
	return scip.DidNothing
}
