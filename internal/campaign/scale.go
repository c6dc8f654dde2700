package campaign

import (
	"context"
	"fmt"

	"repro/internal/churn"
	"repro/internal/faults"
	"repro/internal/protocol"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// ScaleJob is the ISP-scale operational workload: generate one provider
// topology per seed (topogen, including its multi-prefix exit overlays),
// soak the sharded msgsim domain through a warm-up convergence and a few
// churn rounds (churn.SoakDomain, every settled round graded), and — when
// Plans > 0 — re-run the domain under derived fault schedules
// (churn.CheckSim). Everything runs on the deterministic msgsim substrate
// with seed-derived delay models, so the record is a pure function of the
// seed and aggregates are byte-identical across shard, worker and
// refresh-worker counts.
type ScaleJob struct {
	// Spec selects the generated provider family, including the Prefixes
	// knob (topogen.Generate).
	Spec topogen.Spec
	// Policy is the advertisement policy under test. The zero value
	// (Classic) is coerced to Modified, as in ChaosJob: the warm-up and
	// re-convergence gates presuppose a convergence guarantee.
	Policy protocol.Policy
	// Churn shapes the per-round event workload; the zero value gets
	// churn.DefaultSpec. Seed and Prefixes are overridden per seed so the
	// record stays a function of the campaign seed and the generated
	// domain.
	Churn churn.Spec
	// Rounds is the number of churn rounds after warm-up (default 3).
	Rounds int
	// MRAI is the per-session minimum route advertisement interval in
	// virtual ticks (0 disables pacing, the default).
	MRAI int64
	// Workers is the per-router refresh worker count
	// (router.Router.SetWorkers). The emitted UPDATE stream — and hence
	// every field of the record — is identical for every value; it only
	// changes the wall-clock of the per-prefix recompute fan-out.
	Workers int
	// Plans is the number of fault schedules per seed for the chaos-plan
	// variant; 0 (the default) skips fault injection entirely.
	Plans int
	// Faults is the fault intensity of the chaos-plan variant; the zero
	// value gets ChaosJob's moderate defaults.
	Faults faults.RandomConfig
	// MaxEvents bounds the warm-up and each subsequent run extension
	// (default 500000 — scale domains move R*P prefixes' worth of
	// messages per convergence).
	MaxEvents int
}

func (j ScaleJob) Name() string { return "scale" }

func (j ScaleJob) Describe() string {
	j = j.fill()
	return fmt.Sprintf("%+v policy=%v churn=%v rounds=%d mrai=%d plans=%d",
		j.Spec, j.Policy, j.Churn, j.Rounds, j.MRAI, j.Plans)
}

func (j ScaleJob) fill() ScaleJob {
	if j.Policy == 0 {
		j.Policy = protocol.Modified
	}
	if (j.Churn == churn.Spec{}) {
		j.Churn = churn.DefaultSpec()
	}
	if j.Rounds <= 0 {
		j.Rounds = 3
	}
	if j.Workers < 1 {
		j.Workers = 1
	}
	if j.Plans > 0 && j.Faults == (faults.RandomConfig{}) {
		j.Faults = faults.RandomConfig{
			Drop: 0.1, Duplicate: 0.05, Reorder: 0.05, Delay: 0.2,
			MaxExtraDelay: 15, Resets: 2, Horizon: 500,
		}
	}
	if j.MaxEvents <= 0 {
		j.MaxEvents = 500000
	}
	return j
}

// domain generates one seed's prefix-indexed systems. Every prefix shares
// the base session graph (topology.BuildSpecAll layers the generated
// PrefixExits as overlays), so router.NewDomain takes the shared-graph
// fast path and the whole domain costs one IGP solve.
func (j ScaleJob) domain(seed int64) ([]*topology.System, error) {
	spec, err := topogen.Generate(j.Spec, seed)
	if err != nil {
		return nil, err
	}
	return topology.BuildSpecAll(spec)
}

// Run processes one seed: the churn soak, then the optional chaos plans.
// Quiesced counts the warm-up plus every churn round and faulted run that
// reached rest; a violation in any graded soak round counts the seed in
// SoakViolations, and each plan is tallied like a ChaosJob plan, graded
// over all prefixes at once — one prefix's loop or stale best fails the
// whole plan.
func (j ScaleJob) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	j = j.fill()
	res := SeedResult{Seed: seed}
	systems, err := j.domain(seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Nodes = systems[0].N()

	// Warm-up and churn under a seed-derived random delay model
	// (SoakDomain's default DelaySeed, Spec.Seed+1).
	cfg := churn.Config{
		Spec: j.Churn, Rounds: j.Rounds, Policy: j.Policy,
		MRAI: j.MRAI, Workers: j.Workers, MaxEventsPerRound: j.MaxEvents,
	}
	cfg.Spec.Seed = seed
	rep, err := churn.SoakDomain(systems, cfg)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	c := rep.Measured.Counters
	res.Messages += int(c.Sent)
	res.Flaps += int(c.Flaps)
	m.Steps.Add(c.Sent)
	// The soak stops at the first state that does not settle, so the
	// warm-up and every round before it did.
	res.Quiesced += 1 + rep.Agg.Rounds
	for _, v := range rep.Violations {
		if v.Kind == "quiesce" {
			res.Quiesced--
		}
	}
	res.SoakViolations = len(rep.Violations)

	// Chaos-plan variant: plan seeds are derived from the topology seed,
	// like ChaosJob's.
	for i := 0; i < j.Plans && ctx.Err() == nil; i++ {
		planSeed := seed*int64(j.Plans) + int64(i)
		cfg.Plan, err = faults.RandomPlan(planSeed, res.Nodes, j.Faults)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		cfg.DelaySeed = planSeed + 1
		rep, err := churn.CheckSim(systems, cfg)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		res.tally(rep, m)
	}
	return res
}
