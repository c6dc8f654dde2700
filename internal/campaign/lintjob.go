package campaign

import (
	"context"
	"fmt"

	"repro/internal/explore"
	"repro/internal/lint"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// LintJob measures the static analyzer against dynamic ground truth: per
// seed it generates a small ISP-style topology (package topogen), runs
// the exact-mode linter (lint.ProveSystem — the heuristic passes plus the
// SAT-backed provers), classifies the same system by exhaustive
// reachable-state search, and records the agreement cell. The aggregate
// folds the cells into the linter's precision/recall over the family; the
// paper's soundness claim for the exact mode is recall 1.0 (zero false
// negatives: every configuration that cannot stabilize is flagged).
//
// Seeds whose ground-truth search truncates are excluded from the
// confusion matrix (counted under Truncated): an unproven verdict can
// blame neither the linter nor the explorer.
type LintJob struct {
	// Spec selects the generated family (topogen.Generate). The zero
	// value is replaced by topogen.Small(), the family sized for
	// exhaustive exploration.
	Spec topogen.Spec
	// MaxStates bounds the ground-truth reachable-state search
	// (default 60000).
	MaxStates int
	// Workers parallelises the ground-truth search within a seed
	// (explore.Options.Workers); the aggregate is identical for every
	// value.
	Workers int
}

func (j LintJob) Name() string { return "lint" }

func (j LintJob) Describe() string {
	j = j.fill()
	return fmt.Sprintf("%+v maxStates=%d", j.Spec, j.MaxStates)
}

func (j LintJob) fill() LintJob {
	if j.Spec == (topogen.Spec{}) {
		j.Spec = topogen.Small()
	}
	if j.MaxStates <= 0 {
		j.MaxStates = 60000
	}
	return j
}

func (j LintJob) Run(ctx context.Context, seed int64, m *Meter) SeedResult {
	j = j.fill()
	res := SeedResult{Seed: seed}
	spec, err := topogen.Generate(j.Spec, seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	sys, err := topology.BuildSpec(spec)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Nodes = sys.N()

	r := lint.ProveSystem(fmt.Sprintf("seed %d", seed), sys)
	res.LintRisk = r.Verdict == lint.VerdictRisk

	e := protocol.New(sys, protocol.Classic, selection.Options{})
	a := explore.Reachable(e, explore.Options{
		Mode: explore.SingletonsPlusAll, MaxStates: j.MaxStates, Ctx: ctx,
		Workers: j.Workers,
	})
	m.States.Add(int64(a.States))
	res.States = a.States
	if a.Truncated {
		m.Truncations.Add(1)
		res.Truncated = true
		return res
	}
	res.Exhaustive = true
	res.FixedPoints = len(a.FixedPoints)
	res.ClassicOsc = !a.Stabilizable()
	res.LintEvaluated = true
	return res
}
