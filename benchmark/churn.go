package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bgp"
	"repro/internal/churn"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// sim is the part of msgsim.Sim the drivers use; the replay has the same
// methods, so a driver runs either one unchanged.
type sim interface {
	InjectAll()
	InjectPrefixAt(at int64, prefix uint32, id bgp.PathID)
	WithdrawPrefixAt(at int64, prefix uint32, id bgp.PathID)
	Run(maxEvents int) msgsim.Result
	Now() int64
	BestFor(prefix uint32, u bgp.NodeID) bgp.PathID
}

// churnConfig fixes the churn-soak workload: churn.SoakSim with every
// invariant check live, random delays and MRAI pacing on a small warm
// domain. The workload seed drives the churn stream and the delay draws;
// the topology is always topogen seed 1, so that every seed soaks the same
// domain and rounds of different seeds cost alike.
type churnConfig struct {
	topo     topogen.Spec
	seed     int64
	prefixes int
	rounds   int
	mrai     int64
	pin      *churnPin
}

// churnPin is the pinned outcome of one churn-soak configuration: the
// soak's state hash, its convergence-tick percentiles and its message
// count.
type churnPin struct {
	stateHash     string
	p50, p99, max int64
	sent          int64
}

func (p churnPin) String() string {
	return fmt.Sprintf("hash=%s convergence p50/p99/max=%d/%d/%d sent=%d", p.stateHash, p.p50, p.p99, p.max, p.sent)
}

// churnPins holds the pinned outcomes of the command's churn-soak, by
// seed.
var churnPins = map[int64]churnPin{
	1: {stateHash: "45deed8385fff648", p50: 26, p99: 72, max: 81, sent: 507178},
}

func churnFor(seed int64) churnConfig {
	topo := topogen.Default()
	topo.ClientsPerPoP = 5
	cfg := churnConfig{topo: topo, seed: seed, prefixes: 16, rounds: 100, mrai: 10}
	if p, ok := churnPins[seed]; ok {
		cfg.pin = &p
	}
	return cfg
}

func runChurnSoak(opts options) (*outcome, error) {
	cfg := churnFor(opts.seed)
	if opts.trace {
		return churnTraced(cfg)
	}
	return churnUntraced(cfg, opts.budget)
}

// system is the timed set-up of one repetition: generate and build.
func (c churnConfig) system() (*topology.System, error) {
	tsp, err := topogen.Generate(c.topo, 1)
	if err != nil {
		return nil, err
	}
	return topology.BuildSpec(tsp)
}

func (c churnConfig) spec() churn.Spec {
	spec := churn.DefaultSpec()
	spec.Seed = c.seed
	spec.Prefixes = c.prefixes
	return spec
}

func (c churnConfig) soakConfig() churn.Config {
	return churn.Config{Spec: c.spec(), Rounds: c.rounds, Policy: protocol.Modified, MRAI: c.mrai}
}

// soakRun is one timed SoakSim: its report, its wall (with the heap
// measurement left out), the host time of each closed-loop round after
// the first, and the live heap at the last round.
type soakRun struct {
	rep     *churn.Report
	wall    time.Duration
	rounds  []float64
	ticks   []int64
	heapMB  float64
	runtime [2]runtimeCounters
}

// soak runs churn.SoakSim once. A round's host time is the interval
// between two calls of the soak's per-round latency hook: it spans the
// previous round's invariant checks, this round's event generation and
// its run to quiescence. The first round also holds the warm-up, so it is
// left out. At the last round the hook measures the live heap, with both
// simulators and the checker still reachable, so that growth over the
// soak shows.
func (c churnConfig) soak(sys *topology.System) (soakRun, error) {
	var out soakRun
	var marks []time.Time
	var gc time.Duration
	cfg := c.soakConfig()
	cfg.Latency = func(lat int64) {
		marks = append(marks, time.Now())
		out.ticks = append(out.ticks, lat)
		if len(marks) == c.rounds {
			g0 := time.Now()
			out.heapMB = float64(liveHeap()) / 1e6
			gc = time.Since(g0)
		}
	}
	out.runtime[0] = readRuntime()
	t0 := time.Now()
	rep, err := churn.SoakSim(sys, cfg)
	out.wall = time.Since(t0) - gc
	out.runtime[1] = readRuntime()
	if err != nil {
		return out, err
	}
	out.rep = rep
	for i := 1; i < len(marks); i++ {
		out.rounds = append(out.rounds, float64(marks[i].Sub(marks[i-1]).Nanoseconds())/1e6)
	}
	return out, nil
}

// check grades one soak: every invariant held in every round, the ledger
// closed, and the outcome agrees with the first repetition and the pin.
func (c churnConfig) check(o *outcome, run soakRun, first *churnPin) churnPin {
	rep := run.rep
	o.attempted += c.rounds
	bad := map[int]bool{}
	for i, v := range rep.Violations {
		bad[v.Round] = true
		if i < 5 {
			o.problem("soak violation: %v", v)
		}
	}
	o.failed += len(bad)
	if rep.Agg.Rounds != c.rounds || rep.Agg.Checked != c.rounds {
		o.failed += c.rounds - rep.Agg.Checked
		o.problem("soak ran %d rounds and checked %d, want %d", rep.Agg.Rounds, rep.Agg.Checked, c.rounds)
	}
	ct := rep.Measured.Counters
	if ct.Sent != ct.Received || ct.Rejected != 0 || ct.Dropped != 0 {
		o.problem("message ledger open: sent=%d received=%d rejected=%d dropped=%d", ct.Sent, ct.Received, ct.Rejected, ct.Dropped)
	}
	conv := rep.Measured.Convergence
	got := churnPin{stateHash: rep.Agg.StateHash, p50: conv.P50, p99: conv.P99, max: conv.Max, sent: ct.Sent}
	if first != nil && got != *first {
		o.problem("repetition differs from the first: %v vs %v", got, *first)
	}
	if c.pin != nil && first == nil && got != *c.pin {
		o.problem("pinned outcome for seed %d: got %v, want %v", c.seed, got, *c.pin)
	}
	return got
}

// churnUntraced repeats set-up plus soak until the measured soak time
// reaches the budget, and reports the end-to-end metrics.
func churnUntraced(cfg churnConfig, budget time.Duration) (*outcome, error) {
	o := newOutcome()
	var rs runSamples
	var first *churnPin
	var measured time.Duration
	for len(rs.walls) == 0 || measured < budget {
		t0 := time.Now()
		sys, err := cfg.system()
		if err != nil {
			return nil, err
		}
		rs.setups = append(rs.setups, time.Since(t0).Seconds())
		run, err := cfg.soak(sys)
		if err != nil {
			return nil, err
		}
		measured += run.wall
		got := cfg.check(o, run, first)
		if first == nil {
			first = &got
		}
		rs.walls = append(rs.walls, run.wall.Seconds())
		rs.steps = append(rs.steps, run.rounds...)
		rs.rates = append(rs.rates, float64(got.sent)/run.wall.Seconds())
		rs.heaps = append(rs.heaps, run.heapMB)
		runtime.GC()
	}
	err := o.report(rs, func() error { _, err := cfg.system(); return err })
	o.detail["outcome"] = first.String()
	return o, err
}

// roundOutcome is one settled round of a driven simulator.
type roundOutcome struct {
	events, messages, flaps int
	time, lat               int64
	digest                  string
}

// driven is what driveSoak reports: the warm-up and each round, the
// state hash the soak's checker would fold from them, and the host time
// spent inside the simulator.
type driven struct {
	rounds []roundOutcome
	hash   string
	busy   time.Duration
}

// driveSoak runs one of the soak's two simulators through the soak's
// rounds, as churn.SoakSim does: the soaked simulator (reference false)
// anchors round r at virtual time r*Period, the fault-free reference
// starts each round one tick after the last. Both run each round to
// quiescence.
func (c churnConfig) driveSoak(s sim, events [][]churn.Event, n int, reference bool) (driven, error) {
	const perRound = 2_000_000 // churn.Config's default event budget per round
	var out driven
	period := c.spec().Period
	hash := splitmix64(uint64(c.seed))
	fold := func(v uint64) { hash = splitmix64(hash ^ v) }
	t0 := time.Now()
	s.InjectAll()
	res := s.Run(perRound)
	out.busy += time.Since(t0)
	if !res.Quiesced {
		return out, fmt.Errorf("warm-up did not quiesce")
	}
	out.rounds = append(out.rounds, roundOutcome{events: res.Events, messages: res.Messages, flaps: res.Flaps, time: res.Time})
	for r, evs := range events {
		t0 := time.Now()
		base := s.Now() + 1
		if anchor := int64(r) * period; !reference && base < anchor {
			base = anchor
		}
		var last int64
		for _, ev := range evs {
			last = max(last, ev.At)
			if ev.Withdraw {
				s.WithdrawPrefixAt(base+ev.At, ev.Prefix, ev.Path)
			} else {
				s.InjectPrefixAt(base+ev.At, ev.Prefix, ev.Path)
			}
		}
		res = s.Run(res.Events + perRound)
		out.busy += time.Since(t0)
		if !res.Quiesced {
			return out, fmt.Errorf("round %d did not quiesce", r)
		}
		best := simBest(s, c.prefixes, n)
		fold(uint64(uint32(r)))
		for p, v := range best {
			for u, id := range v {
				fold(uint64(uint32(p))<<40 ^ uint64(uint32(u))<<8 ^ uint64(uint32(id+1)))
			}
		}
		out.rounds = append(out.rounds, roundOutcome{
			events: res.Events, messages: res.Messages, flaps: res.Flaps, time: res.Time,
			lat: max(0, res.Time-(base+last)), digest: bestDigest(best),
		})
	}
	out.hash = fmt.Sprintf("%016x", hash)
	return out, nil
}

// splitmix64 is the SplitMix64 finaliser the soak's state hash folds with.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// soakSims builds the soak's two simulators as churn.SoakSim does, with
// msgsim or with the replay.
func (c churnConfig) soakSims(sys *topology.System, replayed bool) (main, ref sim, err error) {
	systems := make(map[uint32]*topology.System, c.prefixes)
	for p := 0; p < c.prefixes; p++ {
		systems[uint32(p)] = sys
	}
	spec := c.spec()
	mainDelay, err := msgsim.RandomDelay(spec.Seed+1, 1, 10)
	if err != nil {
		return nil, nil, err
	}
	refDelay, err := msgsim.RandomDelay(spec.Seed+0x5eed, 1, 10)
	if err != nil {
		return nil, nil, err
	}
	if !replayed {
		m := msgsim.NewMulti(systems, protocol.Modified, selection.Options{}, mainDelay)
		m.SetMRAI(c.mrai)
		return m, msgsim.NewMulti(systems, protocol.Modified, selection.Options{}, refDelay), nil
	}
	m, err := newReplay(systems, protocol.Modified, mainDelay)
	if err != nil {
		return nil, nil, err
	}
	m.setMRAI(c.mrai)
	r, err := newReplay(systems, protocol.Modified, refDelay)
	if err != nil {
		return nil, nil, err
	}
	return m, r, nil
}

// churnTraced runs untraced SoakSims for the wall and runtime figures,
// drives the soak's two simulators with msgsim and then with the replay,
// and checks that the three agree exactly: msgsim against SoakSim on the
// state hash, the convergence ticks and the counters, and the replay
// against msgsim on every round.
func churnTraced(cfg churnConfig) (*outcome, error) {
	o := newOutcome()
	sys, err := cfg.system()
	if err != nil {
		return nil, err
	}
	stream, err := churn.NewStream(cfg.spec(), exitIDs(sys))
	if err != nil {
		return nil, err
	}
	events := make([][]churn.Event, cfg.rounds)
	for r := range events {
		events[r] = stream.Next()
	}
	drive := func(replayed bool) (main, ref driven, rs []*replay, err error) {
		sys, err := cfg.system() // cold IGP caches for every pair of simulators
		if err != nil {
			return main, ref, nil, err
		}
		ms, rf, err := cfg.soakSims(sys, replayed)
		if err != nil {
			return main, ref, nil, err
		}
		if ref, err = cfg.driveSoak(rf, events, sys.N(), true); err != nil {
			return main, ref, nil, fmt.Errorf("reference: %w", err)
		}
		if main, err = cfg.driveSoak(ms, events, sys.N(), false); err != nil {
			return main, ref, nil, fmt.Errorf("soaked simulator: %w", err)
		}
		if replayed {
			rs = []*replay{ms.(*replay), rf.(*replay)}
			for _, r := range rs {
				if err := r.Err(); err != nil {
					return main, ref, nil, err
				}
			}
		} else {
			n := sys.N()
			entries := routeEntries(ms.(*msgsim.Sim), cfg.prefixes, n)
			o.metrics["router.heap_bytes_per_route"] = float64(liveHeap()) / float64(entries)
			runtime.KeepAlive(ms)
			o.detail["route_entries"] = entries
		}
		return main, ref, rs, nil
	}

	// The harness is what the soak spends outside its two simulators. A
	// shared machine drifts between measurements taken apart, so the soak
	// and the msgsim drivers run in alternation, tracedPairs times, and
	// the figures are medians over the pairs.
	const tracedPairs = 3
	var run soakRun
	var first *churnPin
	var simMain, simRef driven
	var soakWalls, simWalls, refWalls, harness []float64
	for i := 0; i < tracedPairs; i++ {
		sys, err := cfg.system()
		if err != nil {
			return nil, err
		}
		r, err := cfg.soak(sys)
		if err != nil {
			return nil, err
		}
		got := cfg.check(o, r, first)
		if first == nil {
			first, run = &got, r
			o.runtimeDelta(r.runtime[0], r.runtime[1])
		}
		runtime.GC()
		m, rf, _, err := drive(false)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			simMain, simRef = m, rf
		}
		runtime.GC()
		sims := m.busy + rf.busy
		soakWalls = append(soakWalls, r.wall.Seconds())
		simWalls = append(simWalls, sims.Seconds())
		refWalls = append(refWalls, rf.busy.Seconds())
		harness = append(harness, (r.wall - sims).Seconds())
	}
	repMain, repRef, rs, err := drive(true)
	if err != nil {
		return nil, err
	}

	rep := run.rep
	if simMain.hash != rep.Agg.StateHash || simRef.hash != rep.Agg.StateHash {
		o.problem("state hash: soak %s, msgsim driver %s, reference driver %s", rep.Agg.StateHash, simMain.hash, simRef.hash)
	}
	lastMain := simMain.rounds[len(simMain.rounds)-1]
	ct := rep.Measured.Counters
	if int64(lastMain.messages) != ct.Sent || int64(lastMain.flaps) != ct.Flaps {
		o.problem("msgsim driver sent %d and flapped %d, soak %d and %d", lastMain.messages, lastMain.flaps, ct.Sent, ct.Flaps)
	}
	for r, rd := range simMain.rounds[1:] {
		if r < len(run.ticks) && rd.lat != run.ticks[r] {
			o.problem("round %d convergence: msgsim driver %d ticks, soak %d", r, rd.lat, run.ticks[r])
			break
		}
	}
	for _, pair := range []struct {
		name     string
		sim, rep driven
	}{{"soaked simulator", simMain, repMain}, {"reference", simRef, repRef}} {
		if pair.sim.hash != pair.rep.hash || len(pair.sim.rounds) != len(pair.rep.rounds) {
			o.problem("%s: replay hash %s over %d rounds, msgsim %s over %d", pair.name, pair.rep.hash, len(pair.rep.rounds), pair.sim.hash, len(pair.sim.rounds))
			continue
		}
		for i := range pair.sim.rounds {
			if pair.sim.rounds[i] != pair.rep.rounds[i] {
				o.problem("%s round %d: replay %+v, msgsim %+v", pair.name, i-1, pair.rep.rounds[i], pair.sim.rounds[i])
				break
			}
		}
	}
	sims := time.Duration(median(simWalls) * float64(time.Second))
	o.layerMetrics(rs, sims, repMain.busy+repRef.busy)
	o.metrics["churn.reference_s"] = median(refWalls)
	o.metrics["churn.harness_s"] = median(harness)
	o.detail["outcome"] = first.String()
	o.detail["soak_walls_s"] = soakWalls
	o.detail["sim_walls_s"] = simWalls
	o.detail["reference_walls_s"] = refWalls
	o.detail["replay_split"] = rs[0].split(repMain.busy)
	return o, nil
}

func exitIDs(sys *topology.System) []bgp.PathID {
	exits := sys.Exits()
	ids := make([]bgp.PathID, len(exits))
	for i, p := range exits {
		ids[i] = p.ID
	}
	return ids
}
