package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/lint"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/workload"
)

// analysisConfig fixes the analysis workload: the exact prover over the
// topologies topogen seeds from the workload seed on, then the E23 census
// over seeds 1..censusSeeds of the 2-cluster MED-rich family. The census
// range stays fixed, as E23 pins it, so that its rate does not move with
// the difficulty of a seed range; it runs on one shard because on a
// shared 2-vCPU machine the sharded rate spread more than twice as widely
// from pass to pass.
type analysisConfig struct {
	topo        topogen.Spec
	seed        int64
	topologies  int
	censusSeeds int
	job         campaign.CensusJob
	pin         *analysisPin
}

// analysisPin is the pinned outcome of one analysis configuration: the
// prover's verdict per topology and a digest of the census aggregate.
type analysisPin struct {
	verdicts string
	census   string
}

func (p analysisPin) String() string {
	return fmt.Sprintf("verdicts=%s census=%s", p.verdicts, p.census)
}

// analysisPins holds the pinned outcomes of the command's analysis, by
// seed.
var analysisPins = map[int64]analysisPin{
	1: {verdicts: "RISK,RISK,RISK,RISK,RISK,RISK,RISK,RISK,RISK,RISK,RISK,RISK", census: "1dcfc14cf669e82e"},
}

func analysisFor(seed int64) analysisConfig {
	cfg := analysisConfig{
		topo:        topogen.Default(),
		seed:        seed,
		topologies:  12,
		censusSeeds: 500,
		job: campaign.CensusJob{
			Params: workload.Params{
				Clusters: 2, MinClients: 1, MaxClients: 2, ASes: 2,
				Exits: 4, MaxMED: 2, MaxCost: 8, ExtraLinks: 2,
			},
			MaxStates: 1500,
		},
	}
	if p, ok := analysisPins[seed]; ok {
		cfg.pin = &p
	}
	return cfg
}

func runAnalysis(opts options) (*outcome, error) {
	cfg := analysisFor(opts.seed)
	if opts.trace {
		return analysisTraced(cfg)
	}
	return analysisUntraced(cfg, opts.budget)
}

// topology builds the i-th topology of the run: topogen seed seed+i.
func (c analysisConfig) topology(i int) (*topology.System, error) {
	tsp, err := topogen.Generate(c.topo, c.seed+int64(i))
	if err != nil {
		return nil, err
	}
	return topology.BuildSpec(tsp)
}

// setup is the timed set-up of one pass: generate and build every
// topology.
func (c analysisConfig) setup() ([]*topology.System, error) {
	out := make([]*topology.System, c.topologies)
	for i := range out {
		sys, err := c.topology(i)
		if err != nil {
			return nil, err
		}
		out[i] = sys
	}
	return out, nil
}

// census is the campaign configuration of one pass.
func (c analysisConfig) census() campaign.Config {
	return campaign.Config{Shards: 1, Start: 1, Seeds: c.censusSeeds}
}

// passResult is what one pass produced and how long its parts took.
type passResult struct {
	got    analysisPin
	agg    *campaign.Aggregate
	proofs []float64 // ms per ProveSystem call
	census time.Duration
	wall   time.Duration
}

// pass proves every topology, then runs the census with job.
func (c analysisConfig) pass(systems []*topology.System, job campaign.Job, cc campaign.Config) (passResult, error) {
	var out passResult
	verdicts := make([]string, len(systems))
	t0 := time.Now()
	for i, sys := range systems {
		p0 := time.Now()
		rep := lint.ProveSystem(fmt.Sprintf("topogen-%d", c.seed+int64(i)), sys)
		out.proofs = append(out.proofs, float64(time.Since(p0).Nanoseconds())/1e6)
		verdicts[i] = rep.Verdict.String()
	}
	c0 := time.Now()
	agg, err := campaign.Run(context.Background(), job, cc)
	out.census = time.Since(c0)
	out.wall = time.Since(t0)
	if err != nil {
		return out, fmt.Errorf("census: %w", err)
	}
	enc, err := json.Marshal(agg)
	if err != nil {
		return out, err
	}
	out.agg = agg
	out.got = analysisPin{verdicts: strings.Join(verdicts, ","), census: fmt.Sprintf("%x", sha256.Sum256(enc))[:16]}
	return out, nil
}

// check grades one pass: every census seed classified, the modified
// protocol converging on each (Lemma 7.4), and the outcome agreeing with
// the first pass and the pin.
func (c analysisConfig) check(o *outcome, p passResult, first *analysisPin) {
	o.attempted += c.topologies + c.censusSeeds
	a := p.agg
	o.failed += a.Errors
	if a.Completed != c.censusSeeds || a.Errors != 0 {
		o.problem("census completed %d of %d seeds with %d errors", a.Completed, c.censusSeeds, a.Errors)
	}
	if a.ModifiedConv != a.Completed-a.Errors {
		o.problem("modified protocol converged on %d of %d census systems", a.ModifiedConv, a.Completed-a.Errors)
	}
	if first != nil && p.got != *first {
		o.problem("pass differs from the first: %v vs %v", p.got, *first)
	}
	if c.pin != nil && first == nil && p.got != *c.pin {
		o.problem("pinned outcome for seed %d: got %v, want %v", c.seed, p.got, *c.pin)
	}
}

// analysisUntraced repeats set-up plus pass until the measured pass time
// reaches the budget, and reports the end-to-end metrics.
func analysisUntraced(cfg analysisConfig, budget time.Duration) (*outcome, error) {
	o := newOutcome()
	var rs runSamples
	var censusRates []float64
	var first *analysisPin
	var measured time.Duration
	for len(rs.walls) == 0 || measured < budget {
		t0 := time.Now()
		systems, err := cfg.setup()
		if err != nil {
			return nil, err
		}
		rs.setups = append(rs.setups, time.Since(t0).Seconds())
		p, err := cfg.pass(systems, cfg.job, cfg.census())
		if err != nil {
			return nil, err
		}
		measured += p.wall
		cfg.check(o, p, first)
		if first == nil {
			first = &p.got
		}
		rs.walls = append(rs.walls, p.wall.Seconds())
		rs.steps = append(rs.steps, p.proofs...)
		// The pass's verdicts: one per proved topology, one per census seed.
		rs.rates = append(rs.rates, float64(cfg.topologies+cfg.censusSeeds)/p.wall.Seconds())
		censusRates = append(censusRates, float64(cfg.censusSeeds)/p.census.Seconds())
		// The working set left is the proved topologies with the path
		// caches the prover filled.
		rs.heaps = append(rs.heaps, float64(liveHeap())/1e6)
		runtime.KeepAlive(systems)
		runtime.GC()
	}
	err := o.report(rs, func() error { _, err := cfg.setup(); return err })
	o.detail["census_seeds_per_s"] = median(censusRates)
	o.detail["outcome"] = first.String()
	return o, err
}

// timedJob times every seed of a census from outside the job.
type timedJob struct {
	campaign.CensusJob
	mu sync.Mutex
	ms []float64
}

func (j *timedJob) Run(ctx context.Context, seed int64, m *campaign.Meter) campaign.SeedResult {
	t0 := time.Now()
	r := j.CensusJob.Run(ctx, seed, m)
	d := float64(time.Since(t0).Nanoseconds()) / 1e6
	j.mu.Lock()
	j.ms = append(j.ms, d)
	j.mu.Unlock()
	return r
}

// analysisTraced runs one untraced pass for the wall and runtime figures
// and one traced pass that times topology building, the heuristic lint
// passes, the prover and every census seed, reads the explorer's state
// count from the campaign meters, and checks that both passes agree.
func analysisTraced(cfg analysisConfig) (*outcome, error) {
	o := newOutcome()
	systems, err := cfg.setup()
	if err != nil {
		return nil, err
	}
	before := readRuntime()
	untraced, err := cfg.pass(systems, cfg.job, cfg.census())
	if err != nil {
		return nil, err
	}
	o.runtimeDelta(before, readRuntime())
	cfg.check(o, untraced, nil)
	systems = nil
	runtime.GC()

	var builds, heuristic, exact []float64
	systems = make([]*topology.System, cfg.topologies)
	for i := range systems {
		b0 := time.Now()
		if systems[i], err = cfg.topology(i); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(b0).Seconds())
	}
	// The heuristic passes run on their own over a second, equally cold
	// copy of every topology; ProveSystem runs them again with the exact
	// passes, and the difference is the exact part.
	for i := range systems {
		sys, err := cfg.topology(i)
		if err != nil {
			return nil, err
		}
		h0 := time.Now()
		lint.LintSystem("", sys)
		heuristic = append(heuristic, time.Since(h0).Seconds())
	}
	job := &timedJob{CensusJob: cfg.job}
	var last campaign.ProgressReport
	var mu sync.Mutex
	cc := cfg.census()
	cc.Progress = func(p campaign.ProgressReport) {
		mu.Lock()
		last = p
		mu.Unlock()
	}
	p, err := cfg.pass(systems, job, cc)
	if err != nil {
		return nil, err
	}
	for i, ms := range p.proofs {
		exact = append(exact, ms/1e3-heuristic[i])
	}
	if p.got != untraced.got {
		o.problem("traced pass differs from the untraced one: %v vs %v", p.got, untraced.got)
	}
	var states int64
	mu.Lock()
	for _, w := range last.Workers {
		states += w.States
	}
	mu.Unlock()
	o.metrics["topology.build_s"] = median(builds)
	o.metrics["lint.heuristic_s"] = median(heuristic)
	o.metrics["lint.exact_s"] = median(exact)
	o.metrics["explore.states"] = float64(states)
	o.metrics["explore.states_per_s"] = float64(states) / p.census.Seconds()
	o.metrics["campaign.seed_ms_p50"] = median(job.ms)
	o.metrics["trace.overhead_ratio"] = p.wall.Seconds()/untraced.wall.Seconds() - 1
	o.detail["outcome"] = untraced.got.String()
	return o, nil
}
