package analysis

import (
	"go/token"
	"strings"

	"repro/internal/obs"
)

// TraceKind cross-checks every obs.Event construction site against the
// trace schema (internal/obs/schema.go): the Kind must be a known
// constant, and each payload field set must be one the schema allows
// for that kind. Event literals are collected by the dataflow layer
// (dataflow.go), which also resolves the kind of post-literal field
// writes (`ev := obs.Event{Kind: ...}; ev.Str = ...`) by tracking kinds
// through local assignments. An unknown kind close to a known one is
// reported with a "did you mean" naming it.
//
// internal/obs itself is exempt: the decoder and tracer legitimately
// build events field-by-field from wire data.
var TraceKind = &Analyzer{
	Name: "tracekind",
	Doc:  "obs.Event construction drifting from the trace schema (unknown kind or disallowed field)",
	Applies: func(pkgPath string) bool {
		return !strings.HasSuffix(pkgPath+"/", "internal/obs/")
	},
	Run: runTraceKind,
}

// stampedFields are set by the Tracer pipeline, never by emit sites:
// Seq/Tick/Wall by the tracer itself, Clock/Orig by the causal
// decorator. The schema omits them from every kind; naming the stamping
// stage in the finding beats a generic "field not allowed".
var stampedFields = map[string]string{
	"Seq":   "the tracer",
	"Tick":  "the tracer",
	"Wall":  "the tracer",
	"Clock": "the causal decorator",
	"Orig":  "the causal decorator",
}

func runTraceKind(p *Pass) {
	for _, n := range p.Mod.Funcs() {
		if n.Pkg.PkgPath != p.PkgPath {
			continue
		}
		for _, s := range n.evLits {
			if s.positional {
				p.Reportf(s.pos, "positional obs.Event literal defeats schema checking; use keyed fields")
			}
			if !s.hasKind {
				// A bare obs.Event{} zero value is fine; a literal that
				// sets payload fields without saying what it is, is not.
				if len(s.fields) > 0 {
					p.Reportf(s.pos, "obs.Event constructed without a Kind; the trace schema is keyed by kind")
				}
				continue
			}
			if s.kind == "" {
				p.Reportf(s.kindPos, "obs.Event Kind is not a compile-time constant; tracekind cannot check this event against the schema")
				continue
			}
			if !obs.KnownKind(s.kind) {
				reportUnknownKind(p, s)
				continue
			}
			for _, f := range s.fields {
				checkKindField(p, f.pos, s.kind, f.name)
			}
		}
		for _, a := range n.evAssigns {
			if a.field == "Kind" || a.kind == "?" {
				continue
			}
			if a.kind == "" {
				// Kind never resolved for this variable (e.g. built by a
				// helper); stay silent rather than guess.
				continue
			}
			if !obs.KnownKind(a.kind) {
				// The literal site already reported the unknown kind.
				continue
			}
			checkKindField(p, a.pos, a.kind, a.field)
		}
	}
}

// checkKindField reports a field the schema does not allow for kind.
func checkKindField(p *Pass, pos token.Pos, kind, field string) {
	if obs.KindAllowsField(kind, field) {
		return
	}
	if who, stamped := stampedFields[field]; stamped {
		p.Reportf(pos, "event field %s is stamped by %s; emit sites must not set it", field, who)
		return
	}
	allowed := strings.Join(obs.KindFields(kind), ", ")
	if allowed == "" {
		allowed = "none"
	}
	p.Reportf(pos, "event kind %q does not carry field %s (schema allows: %s)", kind, field, allowed)
}

// reportUnknownKind reports an unknown event kind, naming the nearest
// known kind when a plausibly-close neighbour exists.
func reportUnknownKind(p *Pass, s eventLitSite) {
	if best, dist := nearestKind(s.kind); best != "" && dist <= 2 {
		p.Reportf(s.kindPos, "unknown event kind %q; did you mean %q?", s.kind, best)
		return
	}
	p.Reportf(s.kindPos, "unknown event kind %q; known kinds are listed in internal/obs/schema.go", s.kind)
}

// nearestKind returns the known kind with the smallest edit distance to
// kind, breaking ties lexicographically (KnownKinds is sorted).
func nearestKind(kind string) (string, int) {
	best, bestDist := "", -1
	for _, k := range obs.KnownKinds() {
		d := editDistance(kind, k)
		if bestDist < 0 || d < bestDist {
			best, bestDist = k, d
		}
	}
	return best, bestDist
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
