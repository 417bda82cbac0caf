package puc

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/scip"
	"repro/internal/steiner"
)

// The SPG model is the SAP model of the SPG's bidirected graph plus the
// rows seeded from dual ascent: on presolved instances both emit the
// same columns and the same Formulation 1 rows, coefficient for
// coefficient, in the same order.
func TestSPGModelIsSAPModel(t *testing.T) {
	for _, g := range []*steiner.SPG{
		HypercubeSpread(5, 16, 100, 170, 4),
		Hypercube(5, true, 51),
		Named("cc3-4p"),
	} {
		def := &steiner.Def{}
		pre, _ := def.Presolve(g, 0)
		spg := def.BuildModel(pre)
		sap := (&steiner.SAPDef{}).BuildModel(steiner.FromSPG(pre.(*steiner.SPG)))
		if len(spg.Vars) != len(sap.Vars) {
			t.Fatalf("%s: %d SPG columns, %d SAP columns", g.Name, len(spg.Vars), len(sap.Vars))
		}
		for j, v := range spg.Vars {
			w := sap.Vars[j]
			if v.Lo != w.Lo || v.Up != w.Up || v.Obj != w.Obj || v.Type != w.Type {
				t.Fatalf("%s: column %d: SPG %+v, SAP %+v", g.Name, j, v, w)
			}
		}
		var rows []scip.LinRow
		for _, r := range spg.Rows {
			if !strings.HasPrefix(r.Name, "dacut_") {
				rows = append(rows, r)
			}
		}
		if len(rows) == 0 || !reflect.DeepEqual(rows, sap.Rows) {
			t.Fatalf("%s: Formulation 1 rows differ: %d SPG rows, %d SAP rows", g.Name, len(rows), len(sap.Rows))
		}
	}
}
