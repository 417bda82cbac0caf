package puc

import (
	"fmt"
	"testing"

	"repro/internal/steiner"
)

// shape is what two instances must share to count as the same graph:
// vertex/edge/terminal counts and the cost sum (costs are seeded, so a
// different draw shows up here).
func shape(s *steiner.SPG) string {
	sum := 0.0
	for e := 0; e < s.G.NumEdges(); e++ {
		sum += s.G.Cost(e)
	}
	return fmt.Sprintf("%s %d/%d/%d/%g", s.Name, s.G.NumVertices(), s.G.NumEdges(), s.NumTerminals(), sum)
}

// TestGenerateMatchesFamilyDefaults pins every documented default to the
// generator call the old per-caller switches made: cmd/stpgen's flag
// defaults (-d 5 -a 3 -steiner 60 -deg 3 -seed 1), ugserve's "gen"
// object with fields omitted, and the README/usage command lines.
func TestGenerateMatchesFamilyDefaults(t *testing.T) {
	stpgen := Params{D: 5, A: 3, Steiner: 60, Deg: 3, Seed: 1} // the flag defaults
	with := func(p Params, f func(*Params)) Params { f(&p); return p }
	for _, tc := range []struct {
		name string
		p    Params
		want *steiner.SPG
	}{
		{"stpgen -family hc", with(stpgen, func(p *Params) { p.Family = "hc" }), Hypercube(5, false, 1)},
		{"stpgen -family cc", with(stpgen, func(p *Params) { p.Family = "cc" }), CodeCover(5, 3, 8, false, 1)},
		{"stpgen -family bip", with(stpgen, func(p *Params) { p.Family = "bip" }), Bipartite(16, 60, 3, false, 1)},
		{"stpgen -family hc -d 6 -perturbed", with(stpgen, func(p *Params) { p.Family, p.D, p.Perturbed = "hc", 6, true }), Hypercube(6, true, 1)},
		{"stpgen -family cc -d 3 -a 4 -terminals 8", with(stpgen, func(p *Params) { p.Family, p.D, p.A, p.Terminals = "cc", 3, 4, 8 }), CodeCover(3, 4, 8, false, 1)},
		{"stpgen -family bip -terminals 16 -steiner 80", with(stpgen, func(p *Params) { p.Family, p.Terminals, p.Steiner = "bip", 16, 80 }), Bipartite(16, 80, 3, false, 1)},
		{"gen hc d=4", Params{Family: "hc", D: 4, Seed: 1}, Hypercube(4, false, 1)},
		{"gen hc d=4 terminals=5 perturbed", Params{Family: "hc", D: 4, Terminals: 5, Perturbed: true, Seed: 1}, HypercubeT(4, 5, true, 1)},
		{"gen cc d=3 seed=7", Params{Family: "cc", D: 3, Seed: 7}, CodeCover(3, 3, 8, false, 7)},
		{"gen bip", Params{Family: "bip", Seed: 1}, Bipartite(16, 60, 3, false, 1)},
		{"gen bip 8/20/2 seed=3", Params{Family: "bip", Terminals: 8, Steiner: 20, Deg: 2, Seed: 3}, Bipartite(8, 20, 2, false, 3)},
	} {
		got, _, err := Generate(tc.p)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if shape(got) != shape(tc.want) {
			t.Errorf("%s: generated %s, the family switch built %s", tc.name, shape(got), shape(tc.want))
		}
	}
}

// TestGenerateCanonicalIsThePresolveCacheVocabulary pins the canonical
// string: ugserve hashes it into cache keys, so it may never drift.
func TestGenerateCanonicalIsThePresolveCacheVocabulary(t *testing.T) {
	_, canonical, err := Generate(Params{Family: "cc", D: 3, Seed: 7})
	if want := "cc d=3 a=0 t=0 s=0 deg=0 p=false seed=7"; err != nil || canonical != want {
		t.Fatalf("canonical = %q, %v; want %q", canonical, err, want)
	}
}

// TestGenerateRejectsHostileParams: every one of these reached a
// generator unchecked before (a negative shift panics, d=40 allocates
// 2^40 vertices); now each is an error and nothing is built.
func TestGenerateRejectsHostileParams(t *testing.T) {
	for _, p := range []Params{
		{Family: "hc", D: -1},
		{Family: "hc", D: 0},
		{Family: "hc", D: 40},
		{Family: "hc", D: 15},
		{Family: "hc", D: 3, Terminals: 9},
		{Family: "hc", D: 3, Terminals: -2},
		{Family: "cc", D: 0},
		{Family: "cc", D: 30, A: 7},
		{Family: "cc", D: 3, A: -3},
		{Family: "cc", D: 2, A: 1 << 40},
		{Family: "bip", Steiner: -1},
		{Family: "bip", Terminals: 1 << 40},
		{Family: "bip", Terminals: 40000, Steiner: 40000},
		{Family: "bip", Deg: -1},
		{Family: "bip", Steiner: 4, Deg: 5},
		{Family: "torus", D: 3},
		{},
	} {
		if s, _, err := Generate(p); err == nil {
			t.Errorf("Generate(%+v) built %s, want an error", p, shape(s))
		}
	}
}
