// Command ibgpcensus runs a parallel oscillation census over random
// route-reflection systems: a seed range is sharded across a worker pool,
// every seed's configuration is classified under each advertisement policy
// (exhaustively where the reachable state space fits the budget), and the
// results stream into a deterministic aggregate. The aggregate depends
// only on the job and the seed range — never on -shards, checkpoint
// timing, or kill/resume boundaries — so census numbers are reproducible
// byte for byte.
//
// Usage:
//
//	ibgpcensus [-job census|fig13|fuzz|chaos|lint|scale] [-shards N] [-workers N]
//	           [-seeds N] [-start S] [-params k=v,...] [-max-states N]
//	           [-schedules N] [-plans N] [-churn k=v,...] [-rounds N]
//	           [-mrai N] [-scale-plans N] [-checkpoint FILE] [-resume]
//	           [-json] [-progress DUR] [-timeout DUR]
//
// -shards parallelises across seeds; -workers parallelises the
// reachable-state search within each seed. Both are deterministic: the
// aggregate is a pure function of the job and the seed range.
//
// Examples:
//
//	ibgpcensus -seeds 500 -json                      # classic census
//	ibgpcensus -job fig13 -start 8000 -seeds 2000    # Figure 13 hunt
//	ibgpcensus -job fig13 -start 8905 -seeds 1 -max-states 200000 -json   # exhaustive proof of its hit
//	ibgpcensus -job chaos -seeds 200                 # fault-injection sweep
//	ibgpcensus -job lint -seeds 500 -max-states 60000   # lint precision/recall
//	ibgpcensus -job scale -seeds 8 -params pops=6,exits=6,prefixes=64   # sharded-core soak
//	ibgpcensus -seeds 10000 -checkpoint c.jsonl      # checkpointed...
//	ibgpcensus -seeds 10000 -checkpoint c.jsonl -resume   # ...and resumed
//
// -params overrides fields of the job's default family, e.g.
// "clusters=4,maxmed=2,exits=8" (census/fuzz),
// "clusters=4,twoclienton=0,dotted=0.5" (fig13), or
// "pops=4,exits=6,maxmed=3" (lint, over the topogen small family).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/churn"
	"repro/internal/cli"
	"repro/internal/protocol"
	"repro/internal/topogen"
	"repro/internal/workload"
)

func main() {
	var (
		jobName    = flag.String("job", "census", "job kind: census, fig13, fuzz, chaos, lint or scale")
		shards     = flag.Int("shards", 0, "worker count (0: GOMAXPROCS); never changes the results, only the wall-clock")
		seeds      = flag.Int("seeds", 256, "number of consecutive seeds")
		start      = flag.Int64("start", 1, "first seed")
		params     = flag.String("params", "", "family overrides, comma-separated key=value")
		maxStates  = flag.Int("max-states", 4000, "per-variant reachable-state budget of the census and fig13 jobs (0: sampling only) and of the lint job's ground truth (0: 60000)")
		workers    = flag.Int("workers", 1, "goroutines per reachable-state search (0: GOMAXPROCS); deterministic — never changes the aggregate")
		schedules  = flag.Int("schedules", 4, "delay seeds per topology seed (fuzz job)")
		plans      = flag.Int("plans", 3, "fault plans per topology seed (chaos job)")
		churnSpec  = flag.String("churn", "", "churn workload overrides for the scale job, e.g. rate=40,flap=0.3 (seed and prefixes come from the campaign seed and the generated domain)")
		rounds     = flag.Int("rounds", 3, "churn rounds per seed (scale job)")
		mrai       = flag.Int64("mrai", 0, "per-session MRAI in virtual ticks (scale job; 0: no pacing)")
		scalePlans = flag.Int("scale-plans", 0, "fault plans per seed for the scale job's chaos variant (0: off)")
		checkpoint = flag.String("checkpoint", "", "JSONL checkpoint path")
		resume     = flag.Bool("resume", false, "resume from -checkpoint, running only missing seeds")
		jsonOut    = flag.Bool("json", false, "write the aggregate as indented JSON on stdout")
		progress   = flag.Duration("progress", 0, "progress report interval on stderr (0: off)")
		timeout    = flag.Duration("timeout", 0, "overall deadline (0: none)")
	)
	flag.Parse()

	var job campaign.Job
	switch *jobName {
	case "census":
		p, err := cli.ParseWorkloadParams(*params, workload.Default(3))
		if err != nil {
			fatal(err)
		}
		job = campaign.CensusJob{Params: p, MaxStates: *maxStates, Workers: exploreWorkers(*workers)}
	case "fig13":
		spec, err := cli.ParseCrossedSpec(*params, workload.CrossedSpec{
			Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2, DottedProb: 0.5,
		})
		if err != nil {
			fatal(err)
		}
		job = campaign.Fig13Job{Spec: spec, ExhaustiveBudget: *maxStates, Workers: exploreWorkers(*workers)}
	case "fuzz":
		p, err := cli.ParseWorkloadParams(*params, workload.Default(3))
		if err != nil {
			fatal(err)
		}
		job = campaign.FuzzJob{Params: p, Policy: protocol.Classic, Schedules: *schedules}
	case "chaos":
		p, err := cli.ParseWorkloadParams(*params, workload.Default(3))
		if err != nil {
			fatal(err)
		}
		job = campaign.ChaosJob{Params: p, Plans: *plans}
	case "lint":
		spec, err := cli.ParseTopogenSpec(*params, topogen.Small())
		if err != nil {
			fatal(err)
		}
		job = campaign.LintJob{Spec: spec, MaxStates: *maxStates, Workers: exploreWorkers(*workers)}
	case "scale":
		spec, err := cli.ParseTopogenSpec(*params, topogen.Small())
		if err != nil {
			fatal(err)
		}
		cs, err := cli.ParseChurnSpec(*churnSpec, churn.DefaultSpec())
		if err != nil {
			fatal(err)
		}
		job = campaign.ScaleJob{
			Spec: spec, Churn: cs, Rounds: *rounds, MRAI: *mrai,
			Workers: exploreWorkers(*workers), Plans: *scalePlans,
		}
	default:
		fatal(fmt.Errorf("unknown -job %q (want census, fig13, fuzz, chaos, lint or scale)", *jobName))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := campaign.Config{
		Shards:     *shards,
		Start:      *start,
		Seeds:      *seeds,
		Checkpoint: *checkpoint,
		Resume:     *resume,
	}
	if *progress > 0 {
		cfg.ProgressEvery = *progress
		cfg.Progress = func(p campaign.ProgressReport) {
			fmt.Fprintln(os.Stderr, p)
		}
	}

	agg, err := campaign.Run(ctx, job, cfg)
	if err != nil {
		if agg != nil && *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "ibgpcensus: interrupted after %d/%d seeds; resume with -resume -checkpoint %s\n",
				agg.Completed, *seeds, *checkpoint)
		}
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(agg); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(agg)
}

// exploreWorkers resolves the -workers flag: 0 means one goroutine per
// available CPU.
func exploreWorkers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ibgpcensus:", err)
	os.Exit(1)
}
