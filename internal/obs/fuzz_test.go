package obs

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzReadTrace: ReadTrace never panics, and a stream it accepts is a
// fixed point of the codec — WriteTrace writes its events back and
// ReadTrace reads those bytes to the same events. The checked-in seeds
// under testdata/fuzz/FuzzReadTrace are a valid trace, one cut off
// mid-record, one with an unknown kind, bounds at and past the ±Inf
// stand-in, and a NaN bound.
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteTrace(&seed, []Event{
		{Kind: KindRunStart, Dual: math.Inf(-1), Primal: math.Inf(1)},
		{Seq: 1, Tick: 3, Wall: 0.25, Kind: KindIncumbent, Rank: 2, Primal: 7, Str: "a\"b\n"},
		{Seq: 2, Tick: 4, Kind: KindRunEnd, Clock: 9, Orig: 1},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, events); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("accepted %q, rejects its own rewrite %q: %v", data, out.Bytes(), err)
		}
		if !reflect.DeepEqual(back, events) {
			t.Fatalf("accepted %q as %+v, rewrite %q reads as %+v", data, events, out.Bytes(), back)
		}
	})
}
