package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
)

// Instance difficulty in this solver is a cliff: the same generator
// parameters take 0.09 s, 0.73 s or more than 15 s depending on the
// generator seed. The workloads therefore never draw instances straight
// from a generator seed; they use this checked-in catalogue, which
// `-calibrate` writes after solving every candidate on the seed commit.
//
//go:embed catalog.json
var catalogJSON []byte

// Entry is one calibrated instance: the generator call that builds it,
// the size the call must reproduce, the reference optimum the benchmark
// checks every answer against, and the seed-commit time per workload.
type Entry struct {
	Name string `json:"name"`
	// Fn and Args are the generator call, e.g. puc.CodeCover with
	// [3,4,8,1,341] (booleans as 0/1, the generator seed last).
	Fn   string  `json:"fn"`
	Args []int64 `json:"args"`
	// Size guards against generator drift: vertices/edges/terminals and
	// the cost sum for a Steiner instance; variables/blocks/total block
	// order and the objective sum for a MISDP.
	Size [3]int  `json:"size"`
	Sum  float64 `json:"sum"`
	// Opt is the reference optimum in the solver's reporting space
	// (incumbent objective plus presolve offset). Oracle names what
	// verified it: "dw" (Dreyfus–Wagner) or "sdp=lp" (both MISDP modes
	// agree to 1e-6).
	Opt    float64 `json:"opt"`
	Oracle string  `json:"oracle"`
	// Band is the seed-commit median solve time per workload, which
	// sizes passes and kill deadlines.
	Band map[string]float64 `json:"band_s"`
}

// Pool is a workload's instance names: Main is what every run measures,
// Holdout an equally sized set kept for re-running a claim on instances
// not looked at while writing it (`-set holdout`).
type Pool struct {
	Main    []string `json:"main"`
	Holdout []string `json:"holdout"`
}

// Catalog is the content of catalog.json.
type Catalog struct {
	Calibrated string          `json:"calibrated"` // environment stamp of the calibration run
	Instances  []*Entry        `json:"instances"`
	Workloads  map[string]Pool `json:"workloads"`
}

func loadCatalog() (*Catalog, error) {
	var c Catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("catalog.json: %w", err)
	}
	return &c, nil
}

func (c *Catalog) entry(name string) *Entry {
	for _, e := range c.Instances {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// pick returns a workload's instance list in the order this seed runs
// it. The seed permutes the order and never the membership: instance
// times differ by more than 10×, so a seeded subset would move every
// metric by far more than any bound (see README, "What the seed does").
func (c *Catalog) pick(workload, set string, seed int64) ([]*Entry, error) {
	pool, ok := c.Workloads[workload]
	if !ok {
		return nil, fmt.Errorf("catalogue has no workload %q", workload)
	}
	names := pool.Main
	if set == "holdout" {
		names = pool.Holdout
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("catalogue has no %s instances for %q", set, workload)
	}
	out := make([]*Entry, len(names))
	for i, n := range names {
		if out[i] = c.entry(n); out[i] == nil {
			return nil, fmt.Errorf("workload %q names unknown instance %q", workload, n)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// Call renders the generator call as source text.
func (e *Entry) Call() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = fmt.Sprint(a)
	}
	return e.Fn + "(" + strings.Join(parts, ",") + ")"
}

// IsSTP reports whether the entry is a Steiner instance.
func (e *Entry) IsSTP() bool { return strings.HasPrefix(e.Fn, "puc.") }

// The generator calls a catalogue entry may name: arity (the seed is the
// last argument, booleans are 0/1) and the call itself.
var stpGenerators = map[string]struct {
	arity int
	build func(a []int, seed int64) *steiner.SPG
}{
	"puc.Hypercube":       {3, func(a []int, s int64) *steiner.SPG { return puc.Hypercube(a[0], a[1] != 0, s) }},
	"puc.HypercubeT":      {4, func(a []int, s int64) *steiner.SPG { return puc.HypercubeT(a[0], a[1], a[2] != 0, s) }},
	"puc.HypercubeSpread": {5, func(a []int, s int64) *steiner.SPG { return puc.HypercubeSpread(a[0], a[1], a[2], a[3], s) }},
	"puc.CodeCover":       {5, func(a []int, s int64) *steiner.SPG { return puc.CodeCover(a[0], a[1], a[2], a[3] != 0, s) }},
	"puc.Bipartite":       {5, func(a []int, s int64) *steiner.SPG { return puc.Bipartite(a[0], a[1], a[2], a[3] != 0, s) }},
}

var misdpGenerators = map[string]struct {
	arity int
	build func(a []int, seed int64) *misdp.MISDP
}{
	"testsets.TTD": {4, func(a []int, s int64) *misdp.MISDP { return testsets.TTD(a[0], a[1], a[2], s) }},
	"testsets.CLS": {4, func(a []int, s int64) *misdp.MISDP { return testsets.CLS(a[0], a[1], a[2], s) }},
	"testsets.MkP": {3, func(a []int, s int64) *misdp.MISDP { return testsets.MkP(a[0], a[1], s) }},
}

// callArgs checks the argument count and splits off the seed.
func (e *Entry) callArgs(known bool, arity int) ([]int, int64, error) {
	if !known {
		return nil, 0, fmt.Errorf("%s: unknown generator %q", e.Name, e.Fn)
	}
	if len(e.Args) != arity {
		return nil, 0, fmt.Errorf("%s: %s takes %d arguments, catalogue gives %d", e.Name, e.Fn, arity, len(e.Args))
	}
	a := make([]int, arity-1)
	for i := range a {
		a[i] = int(e.Args[i])
	}
	return a, e.Args[arity-1], nil
}

// BuildSTP runs a puc generator call.
func (e *Entry) BuildSTP() (*steiner.SPG, error) {
	gen, ok := stpGenerators[e.Fn]
	a, seed, err := e.callArgs(ok, gen.arity)
	if err != nil {
		return nil, err
	}
	return gen.build(a, seed), nil
}

// BuildMISDP runs a testsets generator call.
func (e *Entry) BuildMISDP() (*misdp.MISDP, error) {
	gen, ok := misdpGenerators[e.Fn]
	a, seed, err := e.callArgs(ok, gen.arity)
	if err != nil {
		return nil, err
	}
	return gen.build(a, seed), nil
}

func stpSize(g *steiner.SPG) ([3]int, float64) {
	var sum float64
	for e := 0; e < g.G.NumEdges(); e++ {
		sum += g.G.Cost(e)
	}
	return [3]int{g.G.NumVertices(), g.G.NumEdges(), g.NumTerminals()}, sum
}

func misdpSize(p *misdp.MISDP) ([3]int, float64) {
	order := 0
	for _, b := range p.Blocks {
		order += b.N
	}
	var sum float64
	for _, b := range p.B {
		sum += b
	}
	return [3]int{p.M, len(p.Blocks), order}, sum
}

// checkSize is the set-up reference check: the generator must still
// build the instance the catalogue was calibrated on.
func (e *Entry) checkSize() error {
	var (
		size [3]int
		sum  float64
	)
	if e.IsSTP() {
		g, err := e.BuildSTP()
		if err != nil {
			return err
		}
		size, sum = stpSize(g)
	} else {
		p, err := e.BuildMISDP()
		if err != nil {
			return err
		}
		size, sum = misdpSize(p)
	}
	if size != e.Size || math.Abs(sum-e.Sum) > 1e-9*math.Max(1, math.Abs(e.Sum)) {
		return fmt.Errorf("%s: %s builds size %v sum %g, catalogue has %v sum %g (generator drift: re-run -calibrate)",
			e.Name, e.Call(), size, sum, e.Size, e.Sum)
	}
	return nil
}

// matchesOpt applies the 1e-6 relative tolerance every answer is held to.
func (e *Entry) matchesOpt(obj float64) bool {
	return math.Abs(obj-e.Opt) <= 1e-6*math.Max(1, math.Abs(e.Opt))
}
