package campaign

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/churn"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Job is the pluggable per-seed unit of work. Implementations must be
// pure functions of the seed: no shared mutable state, no global RNG, no
// wall-clock — that purity is what lets the engine shard a seed range
// across workers and still produce byte-identical aggregates.
type Job interface {
	// Name identifies the job kind in aggregates and checkpoints.
	Name() string
	// Describe renders the job's parameters for the aggregate header.
	Describe() string
	// Run processes one seed. Per-seed soft failures (the generator
	// rejecting a draw) are reported in SeedResult.Err; Run itself should
	// honour ctx and return promptly once it is cancelled (the result of
	// a cancelled seed is discarded, never checkpointed).
	Run(ctx context.Context, seed int64, m *Meter) SeedResult
}

// CensusJob is the flagship workload: generate one random
// route-reflection system per seed and decide, under each advertisement
// policy, whether it oscillates — exhaustively when the reachable state
// space fits the budget, by schedule sampling otherwise.
type CensusJob struct {
	// Params selects the random family (workload.Generate).
	Params workload.Params
	// MaxStates bounds the per-variant reachable-state search; 0 disables
	// the exhaustive pass and uses sampling verdicts only.
	MaxStates int
	// SampleSeeds is the number of random schedules tried per policy when
	// sampling (default 4).
	SampleSeeds int
	// SampleSteps bounds each sampled run (default 4000).
	SampleSteps int
	// Workers is the number of goroutines each seed's reachable-state
	// search uses (explore.Options.Workers). Verdicts and aggregates are
	// identical for every value; it composes with campaign sharding, so
	// shards*workers should not exceed the machine. Values below 2 run
	// serially.
	Workers int
}

func (j CensusJob) Name() string { return "census" }

func (j CensusJob) Describe() string {
	j = j.fill()
	return fmt.Sprintf("%+v maxStates=%d", j.Params, j.MaxStates)
}

func (j CensusJob) fill() CensusJob {
	if j.SampleSeeds <= 0 {
		j.SampleSeeds = 4
	}
	if j.SampleSteps <= 0 {
		j.SampleSteps = 4000
	}
	return j
}

// oscillatesBySampling reports whether the policy fails to converge under
// deterministic and seeded random schedules (the same evidence
// workload.Classify uses).
func (j CensusJob) oscillatesBySampling(ctx context.Context, sys *topology.System, policy protocol.Policy, m *Meter) bool {
	e := protocol.New(sys, policy, selection.Options{})
	run := func(sch protocol.Schedule, maxSteps int) protocol.Result {
		r := protocol.Run(e, sch, protocol.RunOptions{MaxSteps: maxSteps})
		m.Steps.Add(int64(r.Steps))
		return r
	}
	if run(protocol.RoundRobin(sys.N()), j.SampleSteps).Outcome == protocol.Converged {
		return false
	}
	e.ResetAll()
	if run(protocol.AllAtOnce(sys.N()), j.SampleSteps).Outcome == protocol.Converged {
		return false
	}
	for seed := 0; seed < j.SampleSeeds; seed++ {
		if ctx.Err() != nil {
			return false
		}
		e.ResetAll()
		if run(protocol.PermutationRounds(sys.N(), int64(seed)+1), j.SampleSteps/2).Outcome == protocol.Converged {
			return false
		}
	}
	return true
}

// Run classifies one seed's system. With a state budget, classic and
// Walton verdicts are proved by exhaustive reachable-state search
// (explore.Reachable under each protocol variant) and fall back to
// sampling only on truncation.
func (j CensusJob) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	j = j.fill()
	res := SeedResult{Seed: seed}
	sys, err := workload.Generate(j.Params, seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Nodes = sys.N()

	explored := map[protocol.Policy]explore.Analysis{}
	if j.MaxStates > 0 {
		for _, policy := range []protocol.Policy{protocol.Classic, protocol.Walton} {
			e := protocol.New(sys, policy, selection.Options{})
			a := explore.Reachable(e, explore.Options{
				Mode: explore.SingletonsPlusAll, MaxStates: j.MaxStates, Ctx: ctx,
				Workers: j.Workers,
			})
			m.States.Add(int64(a.States))
			if a.Truncated {
				m.Truncations.Add(1)
				res.Truncated = true
			}
			explored[policy] = a
			if a.States > res.States {
				res.States = a.States
			}
		}
	}

	verdict := func(policy protocol.Policy) bool {
		if a, ok := explored[policy]; ok && !a.Truncated {
			return !a.Stabilizable()
		}
		return j.oscillatesBySampling(ctx, sys, policy, m)
	}
	res.ClassicOsc = verdict(protocol.Classic)
	res.WaltonOsc = verdict(protocol.Walton)
	if a, ok := explored[protocol.Classic]; ok && !a.Truncated {
		res.FixedPoints = len(a.FixedPoints)
	}
	ca, cok := explored[protocol.Classic]
	wa, wok := explored[protocol.Walton]
	res.Exhaustive = cok && wok && !ca.Truncated && !wa.Truncated

	e := protocol.New(sys, protocol.Modified, selection.Options{})
	mr := protocol.Run(e, protocol.RoundRobin(sys.N()), protocol.RunOptions{MaxSteps: j.SampleSteps})
	m.Steps.Add(int64(mr.Steps))
	res.ModifiedConv = mr.Outcome == protocol.Converged

	if (res.ClassicOsc || res.WaltonOsc) && ctx.Err() == nil {
		if eq, err := equalizeMEDs(sys); err == nil {
			res.MEDInduced = !j.oscillatesBySampling(ctx, eq, protocol.Classic, m) &&
				!j.oscillatesBySampling(ctx, eq, protocol.Walton, m)
		}
	}
	res.Fig13Like = res.ClassicOsc && res.WaltonOsc && res.ModifiedConv && res.MEDInduced
	return res
}

// equalizeMEDs rebuilds the system with every MED zeroed (the E22 control).
func equalizeMEDs(sys *topology.System) (*topology.System, error) {
	spec := topology.ToSpec(sys)
	for i := range spec.Exits {
		spec.Exits[i].MED = 0
	}
	return topology.BuildSpec(spec)
}

// Fig13Job reproduces the paper's Figure 13 counterexample search as a
// campaign: sample the crossed family and classify each draw, flagging the
// seeds where the Walton et al. fix fails while the modified protocol
// converges. As a campaign it shards across workers and survives kills
// via the checkpoint.
type Fig13Job struct {
	// Spec selects the crossed family (workload.SampleCrossed).
	Spec workload.CrossedSpec
	// ExhaustiveBudget bounds the confirming reachable-state search on
	// sampled hits; 0 keeps sampling verdicts.
	ExhaustiveBudget int
	// Workers parallelises the confirming searches per seed; verdicts are
	// identical for every value (see CensusJob.Workers).
	Workers int
}

func (j Fig13Job) Name() string { return "fig13" }

func (j Fig13Job) Describe() string {
	return fmt.Sprintf("%+v exhaustive=%d", j.Spec, j.ExhaustiveBudget)
}

func (j Fig13Job) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	res := SeedResult{Seed: seed}
	sys, err := workload.SampleCrossed(j.Spec, seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Nodes = sys.N()
	v := workload.ClassifyWith(ctx, sys, j.ExhaustiveBudget, j.Workers)
	res.ClassicOsc = v.ClassicOscillates
	res.WaltonOsc = v.WaltonOscillates
	res.ModifiedConv = v.ModifiedConverges
	res.MEDInduced = v.MEDInduced
	res.Exhaustive = v.Exhaustive
	res.Fig13Like = v.IsFig13Like()
	return res
}

// FuzzJob is the message-level workload: run the msgsim discrete-event
// simulator over one random system under several seeded delay models and
// record how often it quiesces and whether timing alone changes the final
// routing outcome (the Figure 3 / Table 1 phenomenon, surveyed at scale).
type FuzzJob struct {
	// Params selects the random family (workload.Generate).
	Params workload.Params
	// Policy is the advertisement policy under test (default Classic).
	Policy protocol.Policy
	// Schedules is the number of delay seeds per topology seed (default 4).
	Schedules int
	// MaxEvents bounds each simulation (default 20000).
	MaxEvents int
	// MaxDelay bounds the random per-message delays (default 100).
	MaxDelay int64
	// MRAI is the per-session minimum route advertisement interval in
	// virtual ticks (0 disables pacing, the default).
	MRAI int64
}

func (j FuzzJob) Name() string { return "fuzz" }

func (j FuzzJob) Describe() string {
	j = j.fill()
	return fmt.Sprintf("%+v policy=%v schedules=%d maxEvents=%d mrai=%d",
		j.Params, j.Policy, j.Schedules, j.MaxEvents, j.MRAI)
}

func (j FuzzJob) fill() FuzzJob {
	if j.Schedules <= 0 {
		j.Schedules = 4
	}
	if j.MaxEvents <= 0 {
		j.MaxEvents = 20000
	}
	if j.MaxDelay <= 0 {
		j.MaxDelay = 100
	}
	return j
}

// ChaosJob is the fault-injection workload: generate one random system per
// seed, derive several fault schedules from the seed, and check the chaos
// invariants on each — re-convergence to the fault-free configuration,
// loop-freedom, ledger closure. Fault plans come from faults.RandomPlan and
// the checks run on the deterministic msgsim substrate, so the whole record
// is a pure function of the seed and aggregates are byte-identical across
// shard and worker counts.
type ChaosJob struct {
	// Params selects the random family (workload.Generate).
	Params workload.Params
	// Policy is the advertisement policy under test. The zero value
	// (Classic) is coerced to Modified: the re-convergence invariant is a
	// property of policies with a convergence guarantee, and classic I-BGP
	// has none. Set Walton or Adaptive explicitly to chaos-test those.
	Policy protocol.Policy
	// Plans is the number of fault schedules per topology seed (default 3).
	Plans int
	// Faults is the fault intensity; the zero value gets moderate defaults
	// (drop 0.1, duplicate 0.05, reorder 0.05, delay 0.2, 2 resets,
	// horizon 500).
	Faults faults.RandomConfig
	// MaxEvents bounds each simulation (default 200000).
	MaxEvents int
}

func (j ChaosJob) Name() string { return "chaos" }

func (j ChaosJob) Describe() string {
	j = j.fill()
	return fmt.Sprintf("%+v policy=%v plans=%d faults=%+v", j.Params, j.Policy, j.Plans, j.Faults)
}

func (j ChaosJob) fill() ChaosJob {
	if j.Policy == 0 {
		j.Policy = protocol.Modified
	}
	if j.Plans <= 0 {
		j.Plans = 3
	}
	zero := faults.RandomConfig{}
	if j.Faults == zero {
		j.Faults = faults.RandomConfig{
			Drop: 0.1, Duplicate: 0.05, Reorder: 0.05, Delay: 0.2,
			MaxExtraDelay: 15, Resets: 2, Horizon: 500,
		}
	}
	if j.MaxEvents <= 0 {
		j.MaxEvents = 200000
	}
	return j
}

func (j ChaosJob) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	j = j.fill()
	res := SeedResult{Seed: seed}
	sys, err := workload.Generate(j.Params, seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Nodes = sys.N()
	for i := 0; i < j.Plans; i++ {
		if ctx.Err() != nil {
			break
		}
		// Plan seeds are derived from the topology seed so the record is a
		// function of the seed alone, like FuzzJob's delay seeds.
		planSeed := seed*int64(j.Plans) + int64(i)
		plan, err := faults.RandomPlan(planSeed, sys.N(), j.Faults)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		rep, err := churn.CheckSim([]*topology.System{sys}, churn.Config{
			Policy: j.Policy, Plan: plan,
			DelaySeed: planSeed + 1, MaxEventsPerRound: j.MaxEvents,
		})
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.tally(rep, m)
	}
	return res
}

// tally counts one graded fault plan into the chaos fields. A plan that
// reached rest re-converged and stayed loop-free unless a violation of
// that kind says otherwise; the ledger is graded only at rest.
func (r *SeedResult) tally(rep *churn.Report, m *Meter) {
	c := rep.Measured.Counters
	r.ChaosPlans++
	r.Messages += int(c.Sent)
	r.Flaps += int(c.Flaps)
	m.Steps.Add(c.Sent)
	failed := map[string]bool{}
	for _, v := range rep.Violations {
		failed[v.Kind] = true
	}
	if failed["quiesce"] {
		return
	}
	r.Quiesced++
	if !failed["reconverge"] {
		r.Reconverged++
	}
	if !failed["loop"] {
		r.LoopFree++
	}
	if failed["ledger"] {
		r.LedgerBroken++
	}
}

func (j FuzzJob) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	j = j.fill()
	res := SeedResult{Seed: seed}
	sys, err := workload.Generate(j.Params, seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Nodes = sys.N()
	outcomes := map[string]bool{}
	for i := 0; i < j.Schedules; i++ {
		if ctx.Err() != nil {
			break
		}
		// Delay seeds are derived from the topology seed so the whole
		// record is a function of the seed alone. fill() guarantees a
		// valid [1, MaxDelay] range, so construction cannot fail.
		delay := msgsim.MustRandomDelay(seed*int64(j.Schedules)+int64(i), 1, j.MaxDelay)
		sim := msgsim.New(sys, j.Policy, selection.Options{}, delay)
		sim.SetMRAI(j.MRAI)
		sim.InjectAll()
		r := sim.Run(j.MaxEvents)
		c := sim.Counters()
		res.Schedules++
		res.Messages += r.Messages
		res.Flaps += int(c.Flaps)
		res.Deferrals += int(c.Deferrals)
		m.Steps.Add(int64(r.Events))
		if r.Quiesced {
			res.Quiesced++
		}
		var key strings.Builder
		for _, b := range r.Best {
			fmt.Fprintf(&key, "%d,", b)
		}
		outcomes[key.String()] = true
	}
	res.DistinctOutcomes = len(outcomes)
	res.ClassicOsc = res.Quiesced < res.Schedules
	return res
}
