package scip

// NodeSelection chooses how the open-node queue is ordered.
type NodeSelection int8

// Node selection strategies.
const (
	BestBound NodeSelection = iota // global best-first (default)
	DepthFirst
	HybridPlunge // best-first with depth-first plunging
)

// Emphasis mirrors SCIP's emphasis presets; racing ramp-up varies it
// across ParaSolvers to generate different search trees.
type Emphasis int8

// Emphasis presets.
const (
	EmphDefault Emphasis = iota
	EmphEasyCIP          // light separation/heuristics, cheap nodes
	EmphAggressive
	EmphFeasibility
)

// String names the emphasis as used in racing-settings labels.
func (e Emphasis) String() string {
	switch e {
	case EmphEasyCIP:
		return "easycip"
	case EmphAggressive:
		return "aggressive"
	case EmphFeasibility:
		return "feasibility"
	default:
		return "default"
	}
}

// BranchRule selects the built-in variable branching rule.
type BranchRule int8

// Built-in branching rules.
const (
	BranchMostFractional BranchRule = iota
	BranchPseudoCost
	BranchRandom
)

// Settings steers a solver instance. Racing ramp-up assigns each
// ParaSolver a different Settings value (the paper's "different parameter
// settings and permutations of variables and constraints").
type Settings struct {
	Name string // label shown in racing statistics

	NodeSel         NodeSelection
	Branching       BranchRule
	Emphasis        Emphasis
	UseLP           bool // LP relaxation on (off for pure relaxator solving à la SDP mode)
	SepaRounds      int  // max separation rounds at the root node
	SepaRoundsLocal int  // max separation rounds at deeper nodes
	HeurFreq        int  // run heuristics every HeurFreq nodes (0 = only at root)
	PropRounds      int  // propagation rounds per node

	// Seed drives all randomized components and the variable permutation
	// used for tie-breaking, so different seeds yield different trees.
	Seed int64
	// PermuteTieBreak adds a seed-dependent jitter to branching scores.
	PermuteTieBreak bool

	NodeLimit int64   // 0 = unlimited
	TimeLimit float64 // seconds, 0 = unlimited

	// MaxCutRows bounds the number of separator-added cut rows kept in
	// the LP (0 = unlimited). Constraint-handler enforcement cuts are
	// exempt, so correctness is unaffected.
	MaxCutRows int
}

// DefaultSettings returns the baseline configuration.
func DefaultSettings() Settings {
	return Settings{
		Name:            "default",
		NodeSel:         BestBound,
		Branching:       BranchPseudoCost,
		Emphasis:        EmphDefault,
		UseLP:           true,
		SepaRounds:      12,
		SepaRoundsLocal: 3,
		HeurFreq:        4,
		PropRounds:      3,
	}
}

// apply adjusts derived knobs for the emphasis presets.
func (s *Settings) apply() {
	switch s.Emphasis {
	case EmphEasyCIP:
		if s.SepaRounds > 3 {
			s.SepaRounds = 3
		}
		if s.HeurFreq == 0 || s.HeurFreq > 10 {
			s.HeurFreq = 10
		}
		s.PropRounds = 1
	case EmphAggressive:
		s.SepaRounds *= 2
		if s.HeurFreq > 2 {
			s.HeurFreq = 2
		}
	case EmphFeasibility:
		if s.HeurFreq > 1 {
			s.HeurFreq = 1
		}
		s.NodeSel = HybridPlunge
	}
}
