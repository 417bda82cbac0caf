package steiner

import (
	"fmt"

	"repro/internal/scip"
)

// SAPDef builds the Formulation 1 model of a SAP: the model the
// benchmark's LP kernel solves by hand.
type SAPDef struct{}

// BuildModel emits one binary variable per arc and the per-vertex rows
// of arborescence.addRows; on FromSPG of a presolved SPG these are the
// SPG model's columns and rows without its dual-ascent seed cuts.
func (d *SAPDef) BuildModel(data any) *scip.Prob {
	s := data.(*SAP)
	arb := newArborescence(s.N, s.Root)
	prob := &scip.Prob{Name: "sap:" + s.Name}
	for a, arc := range s.Arcs {
		arb.addArc(prob, fmt.Sprintf("a_%d", a), arc.Tail, arc.Head, arc.Cost)
	}
	arb.addRows(prob, s.Terminal, func(v int) bool { return len(arb.in[v]) > 0 })
	return prob
}
