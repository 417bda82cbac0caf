package steiner

import (
	"math"
	"testing"

	"repro/internal/ug"

	"repro/internal/core"
)

// Parallel ug[SCIP-Jack,*] must match the Dreyfus–Wagner oracle across
// worker counts and ramp-up modes (TestUGSteinerOverNet in
// internal/core covers the distributed transport).
func TestUGSteinerMatchesDW(t *testing.T) {
	for seed := int64(600); seed < 606; seed++ {
		s := randomSPG(seed, 12, 14, 4)
		want := s.SolveDW()
		for _, workers := range []int{1, 3} {
			app := NewApp(s.Clone())
			res, factory, err := core.SolveParallel(app, ug.Config{
				Workers:        workers,
				StatusInterval: 1e-3,
				ShipInterval:   1e-3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Optimal {
				t.Fatalf("seed %d workers %d: %+v", seed, workers, res)
			}
			got := res.Obj + factory.ObjOffset()
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("seed %d workers %d: obj %v want %v", seed, workers, got, want)
			}
		}
	}
}

func TestUGSteinerRacing(t *testing.T) {
	s := randomSPG(42, 14, 18, 5)
	want := s.SolveDW()
	app := NewApp(s.Clone())
	res, factory, err := core.SolveParallel(app, ug.Config{
		Workers:    4,
		RampUp:     ug.RampUpRacing,
		RacingTime: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatalf("racing run: %+v", res)
	}
	got := res.Obj + factory.ObjOffset()
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("racing obj %v want %v", got, want)
	}
}

func TestRacingLadderDistinct(t *testing.T) {
	ladder := RacingLadder(8)
	if len(ladder) != 8 {
		t.Fatalf("len %d", len(ladder))
	}
	seen := map[string]bool{}
	for _, s := range ladder {
		if seen[s.Name] {
			t.Fatalf("duplicate settings name %q", s.Name)
		}
		seen[s.Name] = true
	}
}
