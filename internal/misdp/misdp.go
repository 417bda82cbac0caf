// Package misdp is the SCIP-SDP analogue: a mixed-integer semidefinite
// programming solver built as plugins on the scip framework. It supports
// the same two solution approaches as SCIP-SDP — an LP-based
// cutting-plane approach using Sherali–Fraticelli eigenvector cuts, and
// a nonlinear branch-and-bound approach solving a continuous SDP
// relaxation (with penalty formulation) at every node — plus dual
// fixing, randomized fix-and-solve rounding, and the LP/SDP racing
// settings ladder that ug[SCIP-SDP,*] uses for its hybrid solver.
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

// MISDP is a mixed-integer SDP in the paper's dual form (8):
//
//	sup  Bᵀy
//	s.t. C_k − Σ_i A_{k,i} y_i ⪰ 0  for every block k,
//	     Rowᵀy ≤ rhs, Lo ≤ y ≤ Up, y_i ∈ Z for i ∈ I.
type MISDP struct {
	Name   string
	M      int
	B      []float64
	Lo, Up []float64
	IsInt  []bool
	Blocks []*sdp.Block
	Rows   []sdp.Row
}

// AddVar appends a variable and returns its index.
func (p *MISDP) AddVar(b, lo, up float64, isInt bool) int {
	p.B = append(p.B, b)
	p.Lo = append(p.Lo, lo)
	p.Up = append(p.Up, up)
	p.IsInt = append(p.IsInt, isInt)
	p.M++
	return p.M - 1
}

// Eval returns Bᵀy.
func (p *MISDP) Eval(y []float64) float64 {
	var acc float64
	for i := 0; i < p.M; i++ {
		acc += p.B[i] * y[i]
	}
	return acc
}

// Feasible checks integrality, bounds, rows and PSD blocks at y.
func (p *MISDP) Feasible(y []float64, tol float64) bool {
	for i := 0; i < p.M; i++ {
		if y[i] < p.Lo[i]-tol || y[i] > p.Up[i]+tol {
			return false
		}
		if p.IsInt[i] && math.Abs(y[i]-math.Round(y[i])) > tol {
			return false
		}
	}
	for _, r := range p.Rows {
		var ax float64
		for i, a := range r.Coef {
			ax += a * y[i]
		}
		if ax > r.RHS+tol {
			return false
		}
	}
	for _, blk := range p.Blocks {
		if linalg.MinEigenvalue(blk.Z(y), nil) < -tol {
			return false
		}
	}
	return true
}

// Instance is the model-level problem data shared by all nodes; it is
// immutable during the search (MISDP branching is plain variable
// branching), so clones share the pointer.
type Instance struct {
	P *MISDP
}

// Def implements scip.ProblemDef for MISDP.
type Def struct {
	// SkipDualFix disables the dual-fixing presolve (for ablations).
	SkipDualFix bool
	FixedOut    int // variables fixed by the last Presolve call
}

// Presolve implements scip.ProblemDef: SCIP-SDP's dual fixing. A
// variable whose objective cannot improve by moving up and whose
// coefficient matrices only shrink every block when increased (A_{k,i}
// PSD, row coefficients ≥ 0) is fixed to its lower bound; symmetrically
// for the upper bound.
func (d *Def) Presolve(data any, _ float64) (any, float64) {
	p := data.(*MISDP)
	d.FixedOut = 0
	if d.SkipDualFix {
		return p, 0
	}
	maxN := 0
	for _, blk := range p.Blocks {
		maxN = max(maxN, blk.N)
	}
	scratch := make([]float64, maxN*maxN) // the eigenvalue tests' copy
	for i := 0; i < p.M; i++ {
		if math.IsInf(p.Lo[i], -1) || math.IsInf(p.Up[i], 1) || p.Up[i]-p.Lo[i] < 1e-12 {
			continue
		}
		psd, nsd := true, true
		for _, blk := range p.Blocks {
			a := blk.A[i]
			if a == nil {
				continue
			}
			if linalg.MinEigenvalue(a, scratch) < -1e-9 {
				psd = false
			}
			neg := a.Clone()
			neg.Scale(-1)
			if linalg.MinEigenvalue(neg, scratch) < -1e-9 {
				nsd = false
			}
			if !psd && !nsd {
				break
			}
		}
		posRows, negRows := true, true
		for _, r := range p.Rows {
			if r.Coef[i] < 0 {
				posRows = false
			}
			if r.Coef[i] > 0 {
				negRows = false
			}
		}
		if p.B[i] <= 0 && psd && posRows {
			p.Up[i] = p.Lo[i]
			d.FixedOut++
		} else if p.B[i] >= 0 && nsd && negRows {
			p.Lo[i] = p.Up[i]
			d.FixedOut++
		}
	}
	return p, 0
}

// BuildModel implements scip.ProblemDef: variables carry −B (scip
// minimizes), linear rows become model rows, and the SDP cones live in
// the constraint handler / relaxator.
func (d *Def) BuildModel(data any) *scip.Prob {
	p := data.(*MISDP)
	integral := true
	prob := &scip.Prob{Name: "misdp:" + p.Name, Data: &Instance{P: p}}
	for i := 0; i < p.M; i++ {
		vt := scip.Continuous
		if p.IsInt[i] {
			if p.Lo[i] >= 0 && p.Up[i] <= 1 {
				vt = scip.Binary
			} else {
				vt = scip.Integer
			}
		} else {
			integral = false
		}
		if !num.Integral(p.B[i], 0) { // exact data integrality: only then may bounds be rounded
			integral = false
		}
		prob.AddVar(fmt.Sprintf("y_%d", i), p.Lo[i], p.Up[i], -p.B[i], vt)
	}
	for r, row := range p.Rows {
		var coefs []lp.Nonzero
		for i, a := range row.Coef {
			if num.Nonzero(a) {
				coefs = append(coefs, lp.Nonzero{Col: i, Val: a})
			}
		}
		prob.AddRow(fmt.Sprintf("lin_%d", r), lp.LE, row.RHS, coefs)
	}
	prob.IntegralObj = integral
	return prob
}

// CloneData implements scip.ProblemDef; MISDP data is immutable.
func (d *Def) CloneData(data any) any { return data }

// ApplyDecision implements scip.ProblemDef; MISDP uses variable
// branching only, so there are no problem-specific decisions.
func (d *Def) ApplyDecision(any, scip.Decision) {}
