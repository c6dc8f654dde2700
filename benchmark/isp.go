package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/bgp"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// ispConfig fixes the isp-warmup workload: a topogen domain carrying
// prefixes prefixes, warmed up cold under the Modified policy with
// constant unit delays and one refresh worker.
type ispConfig struct {
	topo      topogen.Spec
	prefixes  int
	seed      int64
	maxEvents int
	// sliceEvents is the step the warm-up is timed in: Run is called with
	// a budget that grows by this many events at a time, which pauses it
	// only between activation rounds and so leaves the run unchanged.
	sliceEvents int
	pin         *ispPin
}

// ispPin is the pinned outcome of one isp-warmup configuration.
type ispPin struct {
	events, messages, flaps int
	digest                  string
}

// ispPins holds the pinned outcomes of the command's isp-warmup, by seed.
var ispPins = map[int64]ispPin{
	1: {events: 1173688, messages: 1172664, flaps: 152616, digest: "fa1561a30876b26f"},
}

func ispFor(seed int64) ispConfig {
	cfg := ispConfig{
		topo:        topogen.Default(),
		prefixes:    64,
		seed:        seed,
		maxEvents:   100_000_000,
		sliceEvents: 10_000,
	}
	if p, ok := ispPins[seed]; ok {
		cfg.pin = &p
	}
	return cfg
}

func runISPWarmup(opts options) (*outcome, error) {
	cfg := ispFor(opts.seed)
	if opts.trace {
		return ispTraced(cfg)
	}
	return ispUntraced(cfg, opts.budget)
}

// systems generates and builds the per-prefix systems of the domain.
func (c ispConfig) systems() (map[uint32]*topology.System, error) {
	spec := c.topo
	spec.Prefixes = c.prefixes
	tsp, err := topogen.Generate(spec, c.seed)
	if err != nil {
		return nil, err
	}
	built, err := topology.BuildSpecAll(tsp)
	if err != nil {
		return nil, err
	}
	out := make(map[uint32]*topology.System, len(built))
	for i, sys := range built {
		out[uint32(i)] = sys
	}
	return out, nil
}

// setup is the timed set-up of one repetition: generate, build, construct.
func (c ispConfig) setup() (*msgsim.Sim, error) {
	systems, err := c.systems()
	if err != nil {
		return nil, err
	}
	s := msgsim.NewMulti(systems, protocol.Modified, selection.Options{}, msgsim.ConstantDelay(1))
	s.SetWorkers(1)
	return s, nil
}

// warmOutcome is what one warm-up produced, for comparison across
// repetitions, against the pin and against the replay.
type warmOutcome struct {
	quiesced                bool
	events, messages, flaps int
	digest                  string // of every prefix's best vector
}

func (w warmOutcome) String() string {
	return fmt.Sprintf("events=%d messages=%d flaps=%d digest=%s", w.events, w.messages, w.flaps, w.digest)
}

// warm runs one cold warm-up to quiescence in event slices and returns
// its outcome and the host time of each slice.
func (c ispConfig) warm(s *msgsim.Sim) (warmOutcome, []float64) {
	s.InjectAll()
	var steps []float64
	var res msgsim.Result
	for {
		t0 := time.Now()
		res = s.Run(res.Events + c.sliceEvents)
		steps = append(steps, float64(time.Since(t0).Nanoseconds())/1e6)
		if res.Quiesced || res.Events >= c.maxEvents {
			break
		}
	}
	out := warmOutcome{quiesced: res.Quiesced, events: res.Events, messages: res.Messages, flaps: res.Flaps,
		digest: bestDigest(simBest(s, c.prefixes, len(res.Best)))}
	return out, steps
}

// simBest returns every router's best path per prefix, prefix-major.
func simBest(s sim, prefixes, n int) [][]bgp.PathID {
	out := make([][]bgp.PathID, prefixes)
	for p := range out {
		out[p] = make([]bgp.PathID, n)
		for u := range out[p] {
			out[p][u] = s.BestFor(uint32(p), bgp.NodeID(u))
		}
	}
	return out
}

// bestDigest is an FNV-1a digest of per-prefix best vectors.
func bestDigest(best [][]bgp.PathID) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range best {
		for _, id := range v {
			binary.LittleEndian.PutUint64(b[:], uint64(id))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkWarm grades one warm-up: quiescence, a closed message ledger, and
// agreement with the first repetition and with the pin.
func (c ispConfig) checkWarm(o *outcome, s *msgsim.Sim, got warmOutcome, first *warmOutcome) {
	if !got.quiesced {
		o.failed++
		o.problem("warm-up did not quiesce within %d events", c.maxEvents)
	}
	ct := s.Counters()
	if ct.Sent != ct.Received || ct.Rejected != 0 || ct.Dropped != 0 {
		o.problem("message ledger open: sent=%d received=%d rejected=%d dropped=%d", ct.Sent, ct.Received, ct.Rejected, ct.Dropped)
	}
	if int64(got.messages) != ct.Sent {
		o.problem("result messages %d, counters sent %d", got.messages, ct.Sent)
	}
	if first != nil && got.String() != first.String() {
		o.problem("repetition differs from the first: %v vs %v", got, first)
	}
	if p := c.pin; p != nil && first == nil {
		want := warmOutcome{events: p.events, messages: p.messages, flaps: p.flaps, digest: p.digest}
		if got.String() != want.String() {
			o.problem("pinned outcome for seed %d: got %v, want %v", c.seed, got, want)
		}
	}
}

// routeEntries counts the candidate routes held over all routers and
// prefixes, the denominator of bytes per route.
func routeEntries(s *msgsim.Sim, prefixes, n int) int {
	total := 0
	for p := 0; p < prefixes; p++ {
		for u := 0; u < n; u++ {
			total += s.PossibleFor(uint32(p), bgp.NodeID(u)).Len()
		}
	}
	return total
}

// ispUntraced repeats set-up plus cold warm-up until the measured warm-up
// time reaches the budget, and reports the end-to-end metrics.
func ispUntraced(cfg ispConfig, budget time.Duration) (*outcome, error) {
	o := newOutcome()
	var rs runSamples
	var first *warmOutcome
	var measured time.Duration
	for len(rs.walls) == 0 || measured < budget {
		t0 := time.Now()
		s, err := cfg.setup()
		if err != nil {
			return nil, err
		}
		rs.setups = append(rs.setups, time.Since(t0).Seconds())
		t1 := time.Now()
		got, st := cfg.warm(s)
		wall := time.Since(t1)
		measured += wall
		o.attempted++
		cfg.checkWarm(o, s, got, first)
		if first == nil {
			first = &got
		}
		rs.walls = append(rs.walls, wall.Seconds())
		rs.steps = append(rs.steps, st...)
		rs.rates = append(rs.rates, float64(got.messages)/wall.Seconds())
		rs.heaps = append(rs.heaps, float64(liveHeap())/1e6)
		runtime.KeepAlive(s)
		s = nil
		runtime.GC() // each repetition starts from an empty heap
	}
	err := o.report(rs, func() error { _, err := cfg.setup(); return err })
	o.detail["outcome"] = first.String()
	return o, err
}

// ispTraced runs one untraced warm-up for the wall and runtime figures,
// then the replay with the BGP-4 shadow probe for the per-layer split,
// and checks that the two agree exactly.
func ispTraced(cfg ispConfig) (*outcome, error) {
	o := newOutcome()
	s, err := cfg.setup()
	if err != nil {
		return nil, err
	}
	before := readRuntime()
	t0 := time.Now()
	got, _ := cfg.warm(s)
	wall := time.Since(t0)
	o.runtimeDelta(before, readRuntime())
	o.attempted++
	cfg.checkWarm(o, s, got, nil)
	n := cfg.topo.N()
	entries := routeEntries(s, cfg.prefixes, n)
	o.metrics["router.heap_bytes_per_route"] = float64(liveHeap()) / float64(entries)
	runtime.KeepAlive(s)
	s = nil
	runtime.GC()

	// The replay gets freshly built systems, so it starts as cold as the
	// simulator did (the IGP path cache fills lazily).
	systems, err := cfg.systems()
	if err != nil {
		return nil, err
	}
	r, err := newReplay(systems, protocol.Modified, msgsim.ConstantDelay(1))
	if err != nil {
		return nil, err
	}
	r.log = &updateLog{}
	t1 := time.Now()
	r.InjectAll()
	res := r.Run(cfg.maxEvents)
	rwall := time.Since(t1) - r.log.busy
	if err := r.Err(); err != nil {
		return nil, err
	}
	rep := warmOutcome{quiesced: res.Quiesced, events: res.Events, messages: res.Messages, flaps: res.Flaps,
		digest: bestDigest(simBest(r, cfg.prefixes, n))}
	if rep.String() != got.String() || !rep.quiesced {
		o.problem("replay differs from msgsim: replay %v quiesced=%v, msgsim %v", rep, rep.quiesced, got)
	}
	o.layerMetrics([]*replay{r}, wall, rwall)

	probe := newBGP4Probe(systems[0])
	if err := probe.run(r.log); err != nil {
		o.problem("%v", err)
	}
	if probe.updates != r.tr.updates {
		o.problem("bgp4 probe checked %d updates, replay sent %d", probe.updates, r.tr.updates)
	}
	if probe.updates > 0 {
		o.metrics["wire.bgp4.encode.busy_s"] = probe.encode.Seconds()
		o.metrics["wire.bgp4.decode.busy_s"] = probe.decode.Seconds()
		o.metrics["wire.bgp4.bytes_per_update"] = float64(probe.bytes) / float64(probe.updates)
	}
	o.detail["outcome"] = got.String()
	o.detail["route_entries"] = entries
	o.detail["run_wall_s"] = wall.Seconds()
	o.detail["replay_wall_s"] = rwall.Seconds()
	o.detail["replay_split"] = r.split(rwall)
	return o, nil
}

// layerMetrics reports the per-layer figures of the replays against the
// untraced wall of the simulator runs they reproduced; rwall is the
// replays' wall with the update log left out.
func (o *outcome) layerMetrics(rs []*replay, wall, rwall time.Duration) {
	var t layerTimes
	events, flaps, deferrals := 0, int64(0), int64(0)
	for _, r := range rs {
		t.add(r.tr)
		events += r.events
		flaps += r.counters.Flaps.Load()
		deferrals += r.counters.Deferrals.Load()
	}
	busy := t.refresh + t.apply + t.encode + t.decode
	o.metrics["msgsim.events"] = float64(events)
	if events > 0 {
		o.metrics["msgsim.queue_depth_mean"] = float64(t.depthSum) / float64(events)
	}
	o.metrics["msgsim.queue_depth_max"] = float64(t.depthMax)
	o.metrics["msgsim.self_s"] = (wall - busy).Seconds()
	o.metrics["router.refresh.calls"] = float64(t.refreshCalls)
	o.metrics["router.refresh.busy_s"] = t.refresh.Seconds()
	if t.refreshCalls > 0 {
		o.metrics["router.refresh.useful_ratio"] = float64(t.usefulRefresh) / float64(t.refreshCalls)
	}
	o.metrics["router.apply.busy_s"] = t.apply.Seconds()
	o.metrics["router.flaps"] = float64(flaps)
	o.metrics["router.deferrals"] = float64(deferrals)
	o.metrics["wire.encode.busy_s"] = t.encode.Seconds()
	o.metrics["wire.decode.busy_s"] = t.decode.Seconds()
	if t.updates > 0 {
		o.metrics["wire.bytes_per_update"] = float64(t.updateBytes) / float64(t.updates)
	}
	o.metrics["trace.overhead_ratio"] = rwall.Seconds()/wall.Seconds() - 1
}
