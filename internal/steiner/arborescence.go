package steiner

import (
	"fmt"

	"repro/internal/lp"
	"repro/internal/maxflow"
	"repro/internal/scip"
)

// maxCutsPerRound caps the directed Steiner cuts one separation round
// adds.
const maxCutsPerRound = 6

// arborescence is the directed-cut branch-and-cut core of the SPG model
// (an antiparallel arc pair per alive edge): it builds Formulation 1's
// rows, checks connectivity and separates max-flow cuts. SAPDef builds
// the same columns and rows for the benchmark's cut loop.
//
// LP column j is the arc tail[j]→head[j]; in[v] and out[v] list the
// columns entering and leaving v, in column order. The core is built
// once per model and shared by every node; reach, check, enforce and
// separate are methods of the node's Instance, which holds the
// node-local graph and terminals.
type arborescence struct {
	root       int
	tail, head []int
	in, out    [][]int
}

func newArborescence(n, root int) *arborescence {
	return &arborescence{root: root, in: make([][]int, n), out: make([][]int, n)}
}

// addArc appends the binary column for the arc tail→head with the given
// cost and returns its index. Arcs into the root are fixed to zero.
func (ar *arborescence) addArc(prob *scip.Prob, name string, tail, head int, cost float64) int {
	up := 1.0
	if head == ar.root {
		up = 0
	}
	j := prob.AddVar(name, 0, up, cost, scip.Binary)
	ar.tail = append(ar.tail, tail)
	ar.head = append(ar.head, head)
	ar.out[tail] = append(ar.out[tail], j)
	ar.in[head] = append(ar.in[head], j)
	return j
}

// addRows adds Formulation 1's per-vertex rows for every non-root vertex
// keep admits: y(δ−(t)) = 1 for a terminal t; for any other vertex v the
// in-degree bound y(δ−(v)) ≤ 1, flow balance (5) y(δ−(v)) − y(δ+(v)) ≤ 0
// and (6) y(a) ≤ y(δ−(v)) for every arc a leaving v. The exponential
// family of directed cuts (4) is separated lazily.
func (ar *arborescence) addRows(prob *scip.Prob, terminal []bool, keep func(v int) bool) {
	for v := range ar.in {
		if v == ar.root || !keep(v) {
			continue
		}
		inCoefs := make([]lp.Nonzero, len(ar.in[v]))
		for i, j := range ar.in[v] {
			inCoefs[i] = lp.Nonzero{Col: j, Val: 1}
		}
		if terminal[v] {
			prob.AddRow(fmt.Sprintf("indeg_t%d", v), lp.EQ, 1, inCoefs)
			continue
		}
		prob.AddRow(fmt.Sprintf("indeg_%d", v), lp.LE, 1, inCoefs)
		coefs := append([]lp.Nonzero(nil), inCoefs...)
		for _, j := range ar.out[v] {
			coefs = append(coefs, lp.Nonzero{Col: j, Val: -1})
		}
		prob.AddRow(fmt.Sprintf("fb_%d", v), lp.LE, 0, coefs)
		for _, j := range ar.out[v] {
			coefs := []lp.Nonzero{{Col: j, Val: 1}}
			for _, i := range ar.in[v] {
				coefs = append(coefs, lp.Nonzero{Col: i, Val: -1})
			}
			prob.AddRow(fmt.Sprintf("fb6_%d_%d", v, j), lp.LE, 0, coefs)
		}
	}
}

// reach returns the vertices reachable from the root over alive columns
// with x > 0.5.
func (in *Instance) reach(x []float64) []bool {
	ar := in.arb
	seen := make([]bool, len(ar.in))
	if ar.root < 0 {
		return seen
	}
	// Each vertex is pushed once, when first seen.
	stack := make([]int, len(ar.in))
	stack[0], seen[ar.root] = ar.root, true
	for top := 1; top > 0; {
		top--
		for _, j := range ar.out[stack[top]] {
			if w := ar.head[j]; x[j] > 0.5 && !seen[w] && in.colAlive(j) {
				seen[w] = true
				stack[top] = w
				top++
			}
		}
	}
	return seen
}

// cutRow is the Steiner cut y(δ−(W)) ≥ 1 for W the vertices outside src.
// It spans every column, alive or not, so it holds whatever a node
// deleted.
func (ar *arborescence) cutRow(src []bool) []lp.Nonzero {
	var coefs []lp.Nonzero
	for j, t := range ar.tail {
		if src[t] && !src[ar.head[j]] {
			coefs = append(coefs, lp.Nonzero{Col: j, Val: 1})
		}
	}
	return coefs
}

// addCut adds the cut separating terminal t: globally for an original
// terminal, only to the node's subtree for one that branching added.
func (in *Instance) addCut(ctx *scip.Ctx, t int, coefs []lp.Nonzero) bool {
	if in.OrigTerminal[t] {
		return ctx.AddCut(lp.GE, 1, coefs)
	}
	return ctx.AddLocalCut(lp.GE, 1, coefs)
}

// check reports whether the support of x connects the root to every
// node-local terminal.
func (in *Instance) check(x []float64) bool {
	reach := in.reach(x)
	for _, t := range in.SPG.Terminals() {
		if !reach[t] {
			return false
		}
	}
	return true
}

// enforce adds the cut around the support's unreached part for the first
// unreached terminal whose cut is new, and cuts the node off when no
// column crosses it.
func (in *Instance) enforce(ctx *scip.Ctx, x []float64) scip.Result {
	reach := in.reach(x)
	var coefs []lp.Nonzero
	for _, t := range in.SPG.Terminals() {
		if reach[t] {
			continue
		}
		if coefs == nil {
			if coefs = in.arb.cutRow(reach); len(coefs) == 0 {
				ctx.MarkInfeasible()
				return scip.Cutoff
			}
		}
		if in.addCut(ctx, t, coefs) {
			return scip.Separated
		}
	}
	return scip.DidNothing
}

// separate adds up to maxCutsPerRound violated directed cuts on the
// fractional LP point: a max-flow from the root to each terminal over
// the alive columns, capacities x, and the minimum cut of any flow
// below 1. The support network is built once per call and its flow
// reset before each terminal.
func (in *Instance) separate(ctx *scip.Ctx) scip.Result {
	ar, x := in.arb, ctx.LPSol.X
	maxCuts := min(maxCutsPerRound, ctx.CutBudgetLeft())
	added := 0
	var nw *maxflow.Network
	for _, t := range in.SPG.Terminals() {
		if t == ar.root || added >= maxCuts {
			continue
		}
		if nw == nil {
			nw = maxflow.New(len(ar.in))
			for j, tl := range ar.tail {
				if x[j] > 1e-9 && in.colAlive(j) {
					nw.AddArc(tl, ar.head[j], x[j])
				}
			}
		} else {
			nw.ResetFlow()
		}
		if nw.MaxFlow(ar.root, t) >= 1-1e-6 {
			continue
		}
		coefs := ar.cutRow(nw.MinCutSource(ar.root))
		// Skip a cut that is not violated after all (numerical safety).
		var lhs float64
		for _, nz := range coefs {
			lhs += x[nz.Col]
		}
		if len(coefs) == 0 || lhs >= 1-1e-6 {
			continue
		}
		if in.addCut(ctx, t, coefs) {
			added++
		}
	}
	if added > 0 {
		return scip.Separated
	}
	return scip.DidNothing
}
