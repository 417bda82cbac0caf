package misdp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/sdp"
	"repro/internal/ug"
)

// knapsackLikeMISDP: max Σ y_i with a PSD budget block and a linear row.
func smallMISDP() *MISDP {
	p := &MISDP{Name: "small"}
	for i := 0; i < 4; i++ {
		p.AddVar(float64(i+1), 0, 2, true)
	}
	// Block: 6 − Σ y_i ⪰ 0 (scalar), plus an off-diagonal block tying
	// y_0 and y_1: [[2, y0−y1],[y0−y1, 2]] ⪰ 0 ⟺ |y0−y1| ≤ 2.
	b1 := &sdp.Block{N: 1, C: linalg.Identity(1, 6),
		A: []*linalg.Sym{linalg.Identity(1, 1), linalg.Identity(1, 1), linalg.Identity(1, 1), linalg.Identity(1, 1)}}
	c2 := linalg.NewSym(2)
	c2.Set(0, 0, 2)
	c2.Set(1, 1, 2)
	a0 := linalg.NewSym(2)
	a0.Set(0, 1, -1)
	a1 := linalg.NewSym(2)
	a1.Set(0, 1, 1)
	b2 := &sdp.Block{N: 2, C: c2, A: []*linalg.Sym{a0, a1, nil, nil}}
	p.Blocks = []*sdp.Block{b1, b2}
	p.Rows = []sdp.Row{{Coef: []float64{0, 0, 1, 1}, RHS: 3}}
	return p
}

// bruteMISDP enumerates the integer grid.
func bruteMISDP(p *MISDP) float64 {
	best := math.Inf(-1)
	y := make([]float64, p.M)
	var rec func(i int)
	rec = func(i int) {
		if i == p.M {
			if p.Feasible(y, 1e-7) {
				if v := p.Eval(y); v > best {
					best = v
				}
			}
			return
		}
		for v := int(p.Lo[i]); v <= int(p.Up[i]); v++ {
			y[i] = float64(v)
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestUGMISDPMatchesBruteForce(t *testing.T) {
	want := bruteMISDP(smallMISDP())
	for _, workers := range []int{1, 3} {
		app := NewApp(smallMISDP(), 8)
		res, _, err := core.SolveParallel(app, ug.Config{
			Workers:        workers,
			StatusInterval: 1e-3,
			ShipInterval:   1e-3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("workers %d: %+v", workers, res)
		}
		if math.Abs(-res.Obj-want) > 1e-3 {
			t.Fatalf("workers %d: obj %v want %v", workers, -res.Obj, want)
		}
	}
}

// Racing with the LP/SDP ladder: the hybrid must find the optimum and
// record a winner.
func TestUGMISDPRacingHybrid(t *testing.T) {
	want := bruteMISDP(smallMISDP())
	app := NewApp(smallMISDP(), 8)
	res, _, err := core.SolveParallel(app, ug.Config{
		Workers:    4,
		RampUp:     ug.RampUpRacing,
		RacingTime: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || math.Abs(-res.Obj-want) > 1e-3 {
		t.Fatalf("racing: %+v want %v", res, want)
	}
	if res.Stats.RacingWinner < 0 && !res.Stats.SolvedInRacing {
		t.Fatalf("no winner recorded: %+v", res.Stats)
	}
}

func TestAppLPDefault(t *testing.T) {
	app, err := NewAppMode(smallMISDP(), 4, "lp")
	if err != nil {
		t.Fatal(err)
	}
	want := bruteMISDP(smallMISDP())
	res, _, err := core.SolveParallel(app, ug.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || math.Abs(-res.Obj-want) > 1e-3 {
		t.Fatalf("%+v want %v", res, want)
	}
}

// TestAppModeDefaults pins each mode's default configuration outside
// racing: only lp puts the LP settings in front of NewApp's ladder,
// and a mode outside the list is refused instead of solved as sdp.
func TestAppModeDefaults(t *testing.T) {
	ladder := len(NewApp(smallMISDP(), 4).Settings)
	for _, tc := range []struct {
		mode   string
		useLP  bool
		extras int
	}{{"", false, 0}, {"sdp", false, 0}, {"hybrid", false, 0}, {"lp", true, 1}} {
		app, err := NewAppMode(smallMISDP(), 4, tc.mode)
		if err != nil {
			t.Fatalf("mode %q: %v", tc.mode, err)
		}
		if app.Settings[0].UseLP != tc.useLP || len(app.Settings) != ladder+tc.extras {
			t.Errorf("mode %q: default UseLP %v over %d settings, want %v over %d",
				tc.mode, app.Settings[0].UseLP, len(app.Settings), tc.useLP, ladder+tc.extras)
		}
	}
	for _, mode := range []string{"lpp", "SDP", "racing"} {
		if _, err := NewAppMode(smallMISDP(), 4, mode); err == nil || !strings.Contains(err.Error(), mode) {
			t.Errorf("mode %q: err %v, want one naming the mode", mode, err)
		}
	}
}
