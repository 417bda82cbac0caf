package testsets

import (
	"fmt"
	"testing"

	"repro/internal/misdp"
)

func shape(p *misdp.MISDP) string {
	return fmt.Sprintf("%s M=%d blocks=%d rows=%d", p.Name, p.M, len(p.Blocks), len(p.Rows))
}

// TestByFamilyMatchesFamilyDefaults pins `ugmisdp -family F [-n N -k K]`
// and ugserve's misdp jobs to the generator calls the old per-caller
// switches made, and the canonical string ugserve's cache keys hash.
func TestByFamilyMatchesFamilyDefaults(t *testing.T) {
	for _, tc := range []struct {
		family    string
		n, k      int
		seed      int64
		want      *misdp.MISDP
		canonical string
	}{
		{"ttd", 0, 0, 1, TTD(4, 8, 2, 1), "ttd n=0 k=0 seed=1"},
		{"cls", 0, 0, 1, CLS(6, 8, 3, 1), "cls n=0 k=0 seed=1"},
		{"mkp", 0, 0, 1, MkP(7, 3, 1), "mkp n=0 k=0 seed=1"},
		{"ttd", 10, 0, 4, TTD(4, 10, 2, 4), "ttd n=10 k=0 seed=4"},
		{"cls", 8, 2, 1, CLS(8, 10, 2, 1), "cls n=8 k=2 seed=1"},
		{"mkp", 7, 3, 1, MkP(7, 3, 1), "mkp n=7 k=3 seed=1"},
		{"mkp", 8, 4, 2, MkP(8, 4, 2), "mkp n=8 k=4 seed=2"},
	} {
		got, canonical, err := ByFamily(tc.family, tc.n, tc.k, tc.seed)
		if err != nil {
			t.Errorf("%s: %v", tc.canonical, err)
			continue
		}
		if shape(got) != shape(tc.want) || canonical != tc.canonical {
			t.Errorf("ByFamily(%s) = %s, %q; the family switch built %s",
				tc.canonical, shape(got), canonical, shape(tc.want))
		}
		for i := range got.B {
			if got.B[i] != tc.want.B[i] {
				t.Errorf("%s: objective differs at %d (seed not threaded through?)", tc.canonical, i)
				break
			}
		}
	}
}

func TestByFamilyRejectsHostileSizes(t *testing.T) {
	for _, tc := range []struct {
		family string
		n, k   int
	}{
		{"ttd", -1, 0}, {"ttd", 1 << 30, 0}, {"cls", 4, 5}, {"cls", 0, -1},
		{"mkp", 5, 1}, {"mkp", 2, 0}, {"mkp", 3, 4}, {"mkp", 100000, 3}, {"qap", 0, 0}, {"", 0, 0},
	} {
		if _, _, err := ByFamily(tc.family, tc.n, tc.k, 1); err == nil {
			t.Errorf("ByFamily(%q, %d, %d) built an instance, want an error", tc.family, tc.n, tc.k)
		}
	}
}
