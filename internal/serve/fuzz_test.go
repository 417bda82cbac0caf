package serve

import (
	"encoding/json"
	"testing"
)

// FuzzSpec feeds outside JSON through the path a submission takes to an
// instance: decode, Validate, and buildApp for a spec Validate accepts.
// Neither may panic, and an accepted spec either builds or says why not.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"stp","stp":` + jsonString(tinySTP) + `}`,
		`{"kind":"stp","instance":"cc3-4p","workers":2}`,
		`{"kind":"stp","gen":{"family":"hc","d":4,"terminals":5,"perturbed":true}}`,
		`{"kind":"misdp","family":"mkp","n":6,"mode":"lp"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if json.Unmarshal(data, &sp) != nil || sp.Validate() != nil {
			return
		}
		key, _, err := buildApp(&sp)
		if err == nil && key == "" {
			t.Fatalf("%s: built with an empty cache key", data)
		}
	})
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
