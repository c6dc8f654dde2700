package workload

import (
	"context"

	"repro/internal/explore"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// Verdict classifies one configuration's behaviour under the three
// advertisement policies.
type Verdict struct {
	// ClassicOscillates: classic I-BGP cannot reach a stable configuration
	// (exhaustively verified when Exhaustive is true, otherwise evidenced
	// by cycling deterministic schedules and non-converging random ones).
	ClassicOscillates bool
	// WaltonOscillates: same for the Walton et al. modification.
	WaltonOscillates bool
	// ModifiedConverges: the paper's protocol converges (it always should).
	ModifiedConverges bool
	// MEDInduced: with all MEDs equalised the classic protocol converges,
	// i.e. the oscillation is caused by MED comparison.
	MEDInduced bool
	// Exhaustive: the oscillation verdicts are backed by exhaustive
	// reachable-state search rather than schedule sampling.
	Exhaustive bool
}

// equalizeMEDs rebuilds the system with every MED set to zero.
func equalizeMEDs(sys *topology.System) (*topology.System, error) {
	spec := topology.ToSpec(sys)
	for i := range spec.Exits {
		spec.Exits[i].MED = 0
	}
	return topology.BuildSpec(spec)
}

// oscillatesBySampling reports whether the policy fails to converge on sys
// under deterministic and seeded random schedules.
func oscillatesBySampling(sys *topology.System, policy protocol.Policy, seeds int) bool {
	e := protocol.New(sys, policy, selection.Options{})
	if protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: 4000}).Outcome == protocol.Converged {
		return false
	}
	e.ResetAll()
	if protocol.Run(e, protocol.AllAtOnce(sys.N()), protocol.RunOptions{MaxSteps: 4000}).Outcome == protocol.Converged {
		return false
	}
	for _, r := range protocol.RunSeeds(e, seeds, 2000) {
		if r.Outcome == protocol.Converged {
			return false
		}
	}
	return true
}

// oscillatesExhaustively proves non-stabilizability by exhausting the
// reachable state space. ok is false when the search truncated.
func oscillatesExhaustively(ctx context.Context, sys *topology.System, policy protocol.Policy, maxStates, workers int) (oscillates, ok bool) {
	e := protocol.New(sys, policy, selection.Options{})
	a := explore.Reachable(e, explore.Options{Mode: explore.SingletonsPlusAll, MaxStates: maxStates, Ctx: ctx, Workers: workers})
	if a.Truncated {
		return false, false
	}
	return !a.Stabilizable(), true
}

// Classify runs the full battery on one configuration. exhaustiveBudget
// bounds the per-policy reachable-state search; 0 skips it.
func Classify(sys *topology.System, exhaustiveBudget int) Verdict {
	return ClassifyCtx(context.Background(), sys, exhaustiveBudget)
}

// ClassifyCtx is Classify with cancellation plumbed into the exhaustive
// searches; a cancelled classification reports the sampling verdicts with
// Exhaustive false.
func ClassifyCtx(ctx context.Context, sys *topology.System, exhaustiveBudget int) Verdict {
	return ClassifyWith(ctx, sys, exhaustiveBudget, 1)
}

// ClassifyWith is ClassifyCtx with an explicit worker count for the
// exhaustive reachable-state searches. The verdict is identical for every
// worker count (explore.Reachable's determinism contract); workers only
// buys wall clock on large state spaces.
func ClassifyWith(ctx context.Context, sys *topology.System, exhaustiveBudget, workers int) Verdict {
	v := Verdict{}
	v.ClassicOscillates = oscillatesBySampling(sys, protocol.Classic, 4)
	v.WaltonOscillates = oscillatesBySampling(sys, protocol.Walton, 4)
	e := protocol.New(sys, protocol.Modified, selection.Options{})
	v.ModifiedConverges = protocol.Run(e, protocol.RoundRobin(sys.N()),
		protocol.RunOptions{MaxSteps: 4000}).Outcome == protocol.Converged

	if v.ClassicOscillates || v.WaltonOscillates {
		if eq, err := equalizeMEDs(sys); err == nil {
			v.MEDInduced = !oscillatesBySampling(eq, protocol.Classic, 4) &&
				!oscillatesBySampling(eq, protocol.Walton, 4)
		}
	}

	if exhaustiveBudget > 0 && v.ClassicOscillates && v.WaltonOscillates {
		co, ok1 := oscillatesExhaustively(ctx, sys, protocol.Classic, exhaustiveBudget, workers)
		wo, ok2 := oscillatesExhaustively(ctx, sys, protocol.Walton, exhaustiveBudget, workers)
		if ok1 && ok2 {
			v.ClassicOscillates = co
			v.WaltonOscillates = wo
			v.Exhaustive = true
		}
	}
	return v
}

// IsFig13Like reports the property the paper's Figure 13 exhibits:
// a MED-induced persistent oscillation that survives the Walton et al.
// fix but not the paper's modified protocol.
func (v Verdict) IsFig13Like() bool {
	return v.ClassicOscillates && v.WaltonOscillates && v.ModifiedConverges && v.MEDInduced
}
