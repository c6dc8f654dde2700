package campaign

import (
	"fmt"
	"math/bits"
	"strings"
)

// SeedResult is one seed's outcome: the unit that jobs produce, checkpoints
// persist, and the aggregator folds. Every field is derived from the seed
// alone (never from timing, worker identity, or shard layout), which is
// what makes campaign aggregates byte-identical across shard counts and
// across kill/resume boundaries.
type SeedResult struct {
	Seed int64 `json:"seed"`
	// Err records a per-seed soft failure (the generator rejected the
	// seed's draw); the seed still counts as processed.
	Err string `json:"err,omitempty"`
	// Nodes is the generated system's size.
	Nodes int `json:"nodes,omitempty"`

	// Census / counterexample-search fields.
	ClassicOsc   bool `json:"classic_osc,omitempty"`
	WaltonOsc    bool `json:"walton_osc,omitempty"`
	ModifiedConv bool `json:"modified_conv,omitempty"`
	MEDInduced   bool `json:"med_induced,omitempty"`
	Fig13Like    bool `json:"fig13_like,omitempty"`
	// Exhaustive marks oscillation verdicts proved by complete
	// reachable-state search rather than schedule sampling.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// States is the largest reachable state space explored across the
	// policy variants; FixedPoints counts the reachable stable
	// configurations under classic I-BGP.
	States      int  `json:"states,omitempty"`
	FixedPoints int  `json:"fixed_points,omitempty"`
	Truncated   bool `json:"truncated,omitempty"`

	// Message-level fuzz fields. Messages, Flaps and Deferrals come from
	// the router core's shared operational counters, identical in meaning
	// on the TCP substrate.
	Schedules        int `json:"schedules,omitempty"`
	Quiesced         int `json:"quiesced,omitempty"`
	DistinctOutcomes int `json:"distinct_outcomes,omitempty"`
	Messages         int `json:"messages,omitempty"`
	Flaps            int `json:"flaps,omitempty"`
	Deferrals        int `json:"deferrals,omitempty"`

	// Chaos fields (fault-injection job): fault plans checked on this seed
	// and how many satisfied each invariant; Quiesced and Messages above
	// are shared with the fuzz fields.
	ChaosPlans   int `json:"chaos_plans,omitempty"`
	Reconverged  int `json:"reconverged,omitempty"`
	LoopFree     int `json:"loop_free,omitempty"`
	LedgerBroken int `json:"ledger_broken,omitempty"`
	// SoakViolations counts the invariant violations graded over the
	// scale job's warm-up and churn rounds.
	SoakViolations int `json:"soak_violations,omitempty"`

	// Lint census fields (LintJob). LintEvaluated marks seeds where both
	// the exact static verdict and the exhaustive ground truth completed;
	// LintRisk is the static verdict, ClassicOsc above the ground truth.
	LintEvaluated bool `json:"lint_evaluated,omitempty"`
	LintRisk      bool `json:"lint_risk,omitempty"`
}

// maxExamples bounds the counterexample seed lists carried in an
// Aggregate; the companion count fields always hold the full totals, so
// the cap truncates evidence, never statistics.
const maxExamples = 32

// HistBucket is one power-of-two bucket of the state-space size histogram.
type HistBucket struct {
	// Lo and Hi are the inclusive bucket bounds ([2^(k-1)+1 .. 2^k]).
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	Count int `json:"count"`
}

// Aggregate is the deterministic summary of a campaign. Results are folded
// strictly in seed order, so the same seed range always produces the same
// aggregate — and the same JSON bytes — no matter how many workers ran it
// or how many times it was checkpointed and resumed.
type Aggregate struct {
	Job       string `json:"job"`
	Params    string `json:"params"`
	StartSeed int64  `json:"start_seed"`
	Seeds     int    `json:"seeds"`

	// Completed counts folded seeds; Errors the subset the generator
	// rejected. Statistics below are over the Completed-Errors survivors.
	Completed int `json:"completed"`
	Errors    int `json:"errors,omitempty"`

	ClassicOsc   int `json:"classic_osc"`
	WaltonOsc    int `json:"walton_osc"`
	ModifiedConv int `json:"modified_conv"`
	MEDInduced   int `json:"med_induced"`
	// Divergent counts seeds where the Walton fix changes the verdict
	// (classic and Walton disagree); Fig13 the seeds with the full paper
	// property (classic+Walton oscillate, modified converges, MED-induced).
	Divergent int `json:"divergent"`
	Fig13     int `json:"fig13"`
	// Example seed lists, in seed order, capped at maxExamples entries.
	DivergentExamples []int64 `json:"divergent_examples,omitempty"`
	Fig13Examples     []int64 `json:"fig13_examples,omitempty"`

	Exhaustive  int   `json:"exhaustive"`
	Truncated   int   `json:"truncated"`
	TotalStates int64 `json:"total_states"`
	MaxStates   int   `json:"max_states"`
	FixedPoints int64 `json:"fixed_points"`
	// StateHist buckets the per-seed reachable state-space sizes by powers
	// of two (only non-empty buckets appear).
	StateHist []HistBucket `json:"state_hist,omitempty"`

	// Fuzz statistics (msgsim jobs only).
	Schedules       int `json:"schedules,omitempty"`
	Quiesced        int `json:"quiesced,omitempty"`
	TimingDependent int `json:"timing_dependent,omitempty"`
	Messages        int `json:"messages,omitempty"`
	Flaps           int `json:"flaps,omitempty"`
	Deferrals       int `json:"deferrals,omitempty"`

	// Chaos statistics (fault-injection jobs only). ChaosViolations counts
	// seeds where any invariant failed on any plan or graded soak round;
	// examples carry the first offending seeds.
	ChaosPlans      int     `json:"chaos_plans,omitempty"`
	Reconverged     int     `json:"reconverged,omitempty"`
	LoopFree        int     `json:"loop_free,omitempty"`
	LedgerBroken    int     `json:"ledger_broken,omitempty"`
	ChaosViolations int     `json:"chaos_violations,omitempty"`
	ChaosExamples   []int64 `json:"chaos_examples,omitempty"`

	// Lint census statistics (LintJob only): the confusion matrix of the
	// exact-mode static verdict against exhaustive exploration, over the
	// seeds where both completed. A sound exact mode has LintFN == 0
	// (recall 1.0); LintFP measures how often the heuristic risk passes
	// over-warn on configurations that provably stabilize.
	LintEvaluated  int     `json:"lint_evaluated,omitempty"`
	LintTP         int     `json:"lint_tp,omitempty"`
	LintFP         int     `json:"lint_fp,omitempty"`
	LintFN         int     `json:"lint_fn,omitempty"`
	LintTN         int     `json:"lint_tn,omitempty"`
	LintPrecision  float64 `json:"lint_precision,omitempty"`
	LintRecall     float64 `json:"lint_recall,omitempty"`
	LintFNExamples []int64 `json:"lint_fn_examples,omitempty"`
}

// newAggregate seeds the header fields; fold fills the rest.
func newAggregate(job Job, cfg Config) *Aggregate {
	return &Aggregate{
		Job:       job.Name(),
		Params:    job.Describe(),
		StartSeed: cfg.Start,
		Seeds:     cfg.Seeds,
	}
}

// fold merges one seed's result. Callers must fold in ascending seed
// order; the reorder buffer in Run guarantees it.
func (a *Aggregate) fold(r SeedResult, hist map[int]int) {
	a.Completed++
	if r.Err != "" {
		a.Errors++
		return
	}
	if r.ClassicOsc {
		a.ClassicOsc++
	}
	if r.WaltonOsc {
		a.WaltonOsc++
	}
	if r.ModifiedConv {
		a.ModifiedConv++
	}
	if r.MEDInduced {
		a.MEDInduced++
	}
	if r.ClassicOsc != r.WaltonOsc {
		a.Divergent++
		if len(a.DivergentExamples) < maxExamples {
			a.DivergentExamples = append(a.DivergentExamples, r.Seed)
		}
	}
	if r.Fig13Like {
		a.Fig13++
		if len(a.Fig13Examples) < maxExamples {
			a.Fig13Examples = append(a.Fig13Examples, r.Seed)
		}
	}
	if r.Exhaustive {
		a.Exhaustive++
	}
	if r.Truncated {
		a.Truncated++
	}
	a.TotalStates += int64(r.States)
	if r.States > a.MaxStates {
		a.MaxStates = r.States
	}
	a.FixedPoints += int64(r.FixedPoints)
	if r.States > 0 {
		hist[bits.Len(uint(r.States-1))]++
	}
	a.Schedules += r.Schedules
	a.Quiesced += r.Quiesced
	if r.DistinctOutcomes > 1 {
		a.TimingDependent++
	}
	a.Messages += r.Messages
	a.Flaps += r.Flaps
	a.Deferrals += r.Deferrals
	a.ChaosPlans += r.ChaosPlans
	a.Reconverged += r.Reconverged
	a.LoopFree += r.LoopFree
	a.LedgerBroken += r.LedgerBroken
	if r.SoakViolations > 0 || r.ChaosPlans > 0 &&
		(r.Reconverged < r.ChaosPlans || r.LoopFree < r.ChaosPlans ||
			r.Quiesced < r.ChaosPlans || r.LedgerBroken > 0) {
		a.ChaosViolations++
		if len(a.ChaosExamples) < maxExamples {
			a.ChaosExamples = append(a.ChaosExamples, r.Seed)
		}
	}
	if r.LintEvaluated {
		a.LintEvaluated++
		switch {
		case r.ClassicOsc && r.LintRisk:
			a.LintTP++
		case !r.ClassicOsc && r.LintRisk:
			a.LintFP++
		case r.ClassicOsc && !r.LintRisk:
			a.LintFN++
			if len(a.LintFNExamples) < maxExamples {
				a.LintFNExamples = append(a.LintFNExamples, r.Seed)
			}
		default:
			a.LintTN++
		}
	}
}

// finish materialises the histogram buckets in ascending size order and
// the lint precision/recall ratios.
func (a *Aggregate) finish(hist map[int]int) {
	if a.LintTP+a.LintFP > 0 {
		a.LintPrecision = float64(a.LintTP) / float64(a.LintTP+a.LintFP)
	}
	if a.LintTP+a.LintFN > 0 {
		a.LintRecall = float64(a.LintTP) / float64(a.LintTP+a.LintFN)
	}
	for k := 0; k <= 64; k++ {
		n, ok := hist[k]
		if !ok {
			continue
		}
		lo := 1
		if k > 0 {
			lo = 1<<(k-1) + 1
		}
		a.StateHist = append(a.StateHist, HistBucket{Lo: lo, Hi: 1 << k, Count: n})
	}
}

// OscillationRate returns the classic-I-BGP oscillation fraction over the
// successfully generated seeds (0 when none completed).
func (a *Aggregate) OscillationRate() float64 {
	n := a.Completed - a.Errors
	if n == 0 {
		return 0
	}
	return float64(a.ClassicOsc) / float64(n)
}

// String renders a one-paragraph human summary.
func (a *Aggregate) String() string {
	var b strings.Builder
	n := a.Completed - a.Errors
	fmt.Fprintf(&b, "%s over seeds [%d,%d): %d completed (%d generator rejects)\n",
		a.Job, a.StartSeed, a.StartSeed+int64(a.Seeds), a.Completed, a.Errors)
	if n > 0 {
		fmt.Fprintf(&b, "  classic oscillates: %d/%d (%.1f%%)  walton: %d  modified converged: %d  MED-induced: %d\n",
			a.ClassicOsc, n, 100*a.OscillationRate(), a.WaltonOsc, a.ModifiedConv, a.MEDInduced)
		fmt.Fprintf(&b, "  walton-divergent: %d  fig13-like: %d  exhaustive verdicts: %d  truncated: %d\n",
			a.Divergent, a.Fig13, a.Exhaustive, a.Truncated)
		fmt.Fprintf(&b, "  states explored: %d (max %d per seed)  reachable fixed points: %d\n",
			a.TotalStates, a.MaxStates, a.FixedPoints)
		if a.Schedules > 0 {
			fmt.Fprintf(&b, "  fuzz: %d/%d schedules quiesced, %d timing-dependent seeds, %d messages, %d flaps, %d deferrals\n",
				a.Quiesced, a.Schedules, a.TimingDependent, a.Messages, a.Flaps, a.Deferrals)
		}
		if a.ChaosPlans > 0 || a.ChaosViolations > 0 {
			fmt.Fprintf(&b, "  chaos: %d plans — %d quiesced, %d reconverged, %d loop-free, %d ledger-broken; %d violating seeds\n",
				a.ChaosPlans, a.Quiesced, a.Reconverged, a.LoopFree, a.LedgerBroken, a.ChaosViolations)
		}
		if a.LintEvaluated > 0 {
			fmt.Fprintf(&b, "  lint vs explore (%d evaluated): TP %d  FP %d  FN %d  TN %d — precision %.3f, recall %.3f\n",
				a.LintEvaluated, a.LintTP, a.LintFP, a.LintFN, a.LintTN, a.LintPrecision, a.LintRecall)
		}
	}
	return b.String()
}
