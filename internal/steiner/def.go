package steiner

import (
	"fmt"

	"repro/internal/lp"
	"repro/internal/num"
	"repro/internal/scip"
)

// Instance is the model-level problem data: the (presolved) SPG plus the
// static arc↔variable mapping shared by all branch-and-bound nodes and
// all ParaSolvers. Node-local clones share the mapping and the original
// terminal mask; only the SPG is deep-copied.
type Instance struct {
	SPG    *SPG
	Root   int
	VarArc []int // variable j ↔ arc VarArc[j]
	ArcVar []int // arc a → variable index, −1 if no variable
	// OrigTerminal marks terminals of the presolved instance; cuts for
	// these are globally valid, cuts for branching-added terminals only
	// locally.
	OrigTerminal []bool
	arb          *arborescence
}

// clone deep-copies the node-local mutable part.
func (in *Instance) clone() *Instance {
	return &Instance{
		SPG:          in.SPG.Clone(),
		Root:         in.Root,
		VarArc:       in.VarArc,
		ArcVar:       in.ArcVar,
		OrigTerminal: in.OrigTerminal,
		arb:          in.arb,
	}
}

// colAlive reports whether column j's arc exists in the node-local
// graph: a column lives while its edge does.
func (in *Instance) colAlive(j int) bool { return in.SPG.G.EdgeAlive(in.VarArc[j] / 2) }

// DecisionKind is the Decision.Kind for Steiner vertex branching.
const DecisionKind = "stp-vertex"

// Def implements scip.ProblemDef for the Steiner tree problem. It also
// retains the presolve trace for retransforming solutions to the
// original graph.
type Def struct {
	TraceOut *Trace
	StatsOut *ReduceStats
	NoReduce bool // disable presolve reductions (for ablations)
}

// Presolve implements scip.ProblemDef: graph reductions with
// contractions; the cost of mandatory (contracted) edges becomes the
// objective offset.
func (d *Def) Presolve(data any, _ float64) (any, float64) {
	spg := data.(*SPG)
	if d.NoReduce {
		d.TraceOut = &Trace{Parent: map[int][2]int{}}
		d.StatsOut = &ReduceStats{}
		return spg, 0
	}
	tr, st := Reduce(spg, 0)
	d.TraceOut = tr
	d.StatsOut = st
	return spg, tr.Offset
}

// BuildModel implements scip.ProblemDef: the flow-balance directed-cut
// formulation (Formulation 1 of the paper) over an antiparallel arc
// pair per alive edge, each carrying the edge cost, with the rows of
// arborescence.addRows for every alive vertex. The LP is seeded with the
// cuts of Wong's dual ascent; the rest are separated lazily.
func (d *Def) BuildModel(data any) *scip.Prob {
	spg := data.(*SPG)
	root := spg.Root()
	inst := &Instance{
		SPG:          spg,
		Root:         root,
		ArcVar:       make([]int, 2*spg.G.NumEdges()),
		OrigTerminal: append([]bool(nil), spg.Terminal...),
		arb:          newArborescence(spg.G.NumVertices(), root),
	}
	prob := &scip.Prob{Name: "stp:" + spg.Name, IntegralObj: integralCosts(spg), Data: inst}
	for a := range inst.ArcVar {
		inst.ArcVar[a] = -1
	}
	if root < 0 {
		return prob // no terminals: empty model
	}
	for e := 0; e < spg.G.NumEdges(); e++ {
		if !spg.G.EdgeAlive(e) {
			continue
		}
		for o := 0; o < 2; o++ {
			a := 2*e + o
			j := inst.arb.addArc(prob, fmt.Sprintf("y_%d", a), spg.ArcTail(a), spg.ArcHead(a), spg.G.Cost(e))
			inst.VarArc = append(inst.VarArc, a)
			inst.ArcVar[a] = j
		}
	}
	// Seed the LP with the cuts raised by Wong's dual ascent — the
	// initial-row selection SCIP-Jack performs after presolving.
	if spg.NumTerminals() > 1 {
		da := DualAscent(spg, root)
		maxInit := 400
		for i := len(da.Cuts) - 1; i >= 0 && maxInit > 0; i-- {
			var coefs []lp.Nonzero
			for _, a := range da.Cuts[i] {
				if j := inst.ArcVar[a]; j >= 0 {
					coefs = append(coefs, lp.Nonzero{Col: j, Val: 1})
				}
			}
			if len(coefs) > 0 {
				prob.AddRow(fmt.Sprintf("dacut_%d", i), lp.GE, 1, coefs)
				maxInit--
			}
		}
	}
	inst.arb.addRows(prob, spg.Terminal, spg.G.VertexAlive)
	return prob
}

// CloneData implements scip.ProblemDef.
//
//ugo:coldpath deep-copies the graph once per node, whose decisions are then replayed on the copy — copy-per-node is the ownership model
func (d *Def) CloneData(data any) any {
	switch v := data.(type) {
	case *Instance:
		return v.clone()
	case *SPG:
		return v.Clone()
	default:
		panic(fmt.Sprintf("steiner: CloneData on %T", data))
	}
}

// ApplyDecision implements scip.ProblemDef: vertex branching either
// promotes a vertex to a terminal or deletes it.
func (d *Def) ApplyDecision(data any, dec scip.Decision) {
	if dec.Kind != DecisionKind {
		return
	}
	inst := data.(*Instance)
	if !inst.SPG.G.VertexAlive(dec.V) {
		return
	}
	if dec.Flag {
		inst.SPG.Terminal[dec.V] = true
	} else {
		inst.SPG.G.DeleteVertex(dec.V)
	}
}

// integralCosts reports whether all edge costs are integral.
func integralCosts(s *SPG) bool {
	for e := 0; e < s.G.NumEdges(); e++ {
		if !s.G.EdgeAlive(e) {
			continue
		}
		if c := s.G.Cost(e); !num.Integral(c, 0) { // exact data integrality gates bound rounding
			return false
		}
	}
	return true
}

// OrientTree converts an (undirected) tree edge set into an arc solution
// vector rooted at in.Root: BFS orientation away from the root.
func (in *Instance) OrientTree(edges []int) []float64 {
	x := make([]float64, len(in.VarArc))
	adj := map[int][]int{}
	for _, e := range edges {
		ed := in.SPG.G.Edges[e]
		adj[ed.U] = append(adj[ed.U], e)
		adj[ed.V] = append(adj[ed.V], e)
	}
	visited := map[int]bool{in.Root: true}
	queue := []int{in.Root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range adj[v] {
			w := in.SPG.G.Other(e, v)
			if visited[w] {
				continue
			}
			visited[w] = true
			queue = append(queue, w)
			// Arc v→w.
			a := 2 * e
			if in.SPG.ArcTail(a) != v {
				a = 2*e + 1
			}
			if j := in.ArcVar[a]; j >= 0 {
				x[j] = 1
			}
		}
	}
	return x
}
