package obs

import (
	"reflect"
	"sort"
	"testing"
)

// TestKnownKindsClosed pins that KnownKinds returns the schema's kinds
// sorted, in a caller-owned copy.
func TestKnownKindsClosed(t *testing.T) {
	kinds := KnownKinds()
	if !sort.StringsAreSorted(kinds) {
		t.Errorf("KnownKinds not sorted: %v", kinds)
	}
	// Mutating the returned slice must not corrupt the schema.
	kinds[0] = "mutated"
	if fresh := KnownKinds(); fresh[0] == "mutated" {
		t.Error("KnownKinds returns a shared slice")
	}
}

// TestKindFieldsAreEventFields checks every allowed field actually
// exists on Event and is never one of the stamped fields (Seq/Tick/Wall
// belong to the tracer, Clock/Orig to the causal decorator).
func TestKindFieldsAreEventFields(t *testing.T) {
	ev := reflect.TypeOf(Event{})
	stamped := map[string]bool{"Seq": true, "Tick": true, "Wall": true, "Clock": true, "Orig": true}
	for _, k := range KnownKinds() {
		for _, f := range KindFields(k) {
			if _, ok := ev.FieldByName(f); !ok {
				t.Errorf("kind %q allows field %s, which Event does not have", k, f)
			}
			if stamped[f] {
				t.Errorf("kind %q allows stamped field %s", k, f)
			}
			if f == "Kind" {
				t.Errorf("kind %q lists Kind as a payload field", k)
			}
		}
	}
}

// TestKindAllowsField covers the membership predicate, including the
// unknown-kind and copy semantics.
func TestKindAllowsField(t *testing.T) {
	if !KindAllowsField(KindRunEnd, "Dual") {
		t.Error("run.end must allow Dual")
	}
	if KindAllowsField(KindRunEnd, "Str") {
		t.Error("run.end must not allow Str")
	}
	if KindAllowsField("no.such.kind", "Rank") {
		t.Error("unknown kinds must allow nothing")
	}
	if KindFields("no.such.kind") != nil {
		t.Error("KindFields on an unknown kind must be nil")
	}
	fs := KindFields(KindDispatch)
	if !sort.StringsAreSorted(fs) {
		t.Errorf("KindFields not sorted: %v", fs)
	}
	fs[0] = "mutated"
	if fresh := KindFields(KindDispatch); fresh[0] == "mutated" {
		t.Error("KindFields returns a shared slice")
	}
}
