package steiner

// SAP is a Steiner arborescence problem: a directed graph with arc
// costs, a root and a terminal set; the task is a minimum-cost directed
// tree containing a root→t path for every terminal t. Only FromSPG
// builds one, for the benchmark's LP kernel; the solver and the LP
// tests run the SPG model (Def), whose Formulation 1 rows are the same.
type SAP struct {
	Name     string
	N        int
	Arcs     []SAPArc
	Terminal []bool
	Root     int
}

// SAPArc is one directed arc.
type SAPArc struct {
	Tail, Head int
	Cost       float64
}

// Terminals lists the terminal vertices.
func (s *SAP) Terminals() []int {
	var out []int
	for v, t := range s.Terminal {
		if t {
			out = append(out, v)
		}
	}
	return out
}

// FromSPG is the identity transformation: each undirected edge becomes
// an antiparallel arc pair, rooted at the canonical terminal.
func FromSPG(g *SPG) *SAP {
	sap := &SAP{
		Name:     "sap:" + g.Name,
		N:        g.G.NumVertices(),
		Terminal: append([]bool(nil), g.Terminal...),
		Root:     g.Root(),
	}
	for e := 0; e < g.G.NumEdges(); e++ {
		if !g.G.EdgeAlive(e) {
			continue
		}
		ed := g.G.Edges[e]
		sap.Arcs = append(sap.Arcs,
			SAPArc{Tail: ed.U, Head: ed.V, Cost: ed.Cost},
			SAPArc{Tail: ed.V, Head: ed.U, Cost: ed.Cost})
	}
	return sap
}
