package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
)

// buildApp materializes the instance a Spec describes into a core.App,
// plus the presolve-cache key for it. Instance construction is
// deterministic in the spec (generators are seeded), so the key is a
// pure function of the instance content:
//
//   - inline STP text hashes its exact bytes — identical submissions
//     collide, trivially different whitespace does not (content-hash,
//     not semantic-hash, by design);
//   - named/generated instances hash their canonical parameter string,
//     which the generators map to one graph.
//
// The key deliberately excludes solve-shape fields (workers, racing,
// mode, limits): global presolve depends only on the instance and its
// ProblemDef, so an LP-mode and an SDP-mode submission of the same
// MISDP share one cache entry.
func buildApp(sp *Spec) (key string, app core.App, err error) {
	switch sp.Kind {
	case "stp":
		return buildSTP(sp)
	case "misdp":
		return buildMISDP(sp)
	}
	return "", core.App{}, fmt.Errorf("unknown job kind %q", sp.Kind)
}

// cacheKey hashes a canonical instance description into the cache key.
func cacheKey(kind, canonical string) string {
	sum := sha256.Sum256([]byte(kind + "\x00" + canonical))
	return kind + ":" + hex.EncodeToString(sum[:16])
}

func buildSTP(sp *Spec) (string, core.App, error) {
	var (
		spg       *steiner.SPG
		canonical string
		err       error
	)
	switch {
	case sp.STP != "":
		if spg, err = steiner.ReadSTP(strings.NewReader(sp.STP)); err != nil {
			return "", core.App{}, fmt.Errorf("parse inline stp: %w", err)
		}
		canonical = "inline\x00" + sp.STP
	case sp.Instance != "":
		if spg = puc.Named(sp.Instance); spg == nil {
			return "", core.App{}, fmt.Errorf("unknown named instance %q", sp.Instance)
		}
		canonical = "named\x00" + sp.Instance
	case sp.Gen != nil:
		if spg, canonical, err = puc.Generate(sp.Gen.params()); err != nil {
			return "", core.App{}, err
		}
		canonical = "gen\x00" + canonical
	default:
		return "", core.App{}, fmt.Errorf("kind stp needs one of stp, instance, gen")
	}
	return cacheKey("stp", canonical), steiner.NewApp(spg), nil
}

// params maps the JSON generator object onto the generator's own
// parameter struct; an omitted seed means 1.
func (g *GenSpec) params() puc.Params {
	return puc.Params{
		Family: g.Family, D: g.D, A: g.A, Terminals: g.Terminals, Steiner: g.Steiner, Deg: g.Deg,
		Perturbed: g.Perturbed, Seed: seedOr1(g.Seed),
	}
}

func buildMISDP(sp *Spec) (string, core.App, error) {
	inst, canonical, err := testsets.ByFamily(sp.Family, sp.N, sp.K, seedOr1(sp.Seed))
	if err != nil {
		return "", core.App{}, err
	}
	app, err := misdp.NewAppMode(inst, 16, sp.Mode)
	if err != nil {
		return "", core.App{}, err
	}
	return cacheKey("misdp", canonical), app, nil
}

// seedOr1 applies the API's "omitted seed = 1" rule.
func seedOr1(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}
