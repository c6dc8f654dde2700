package churn

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/speaker"
	"repro/internal/topology"
)

// Config parameterises one soak run.
type Config struct {
	// Spec is the churn workload.
	Spec Spec
	// Rounds is the number of churn rounds driven (Spec.Rounds maps a
	// wall-clock duration here). At least 1.
	Rounds int
	// Policy is the advertisement policy. The soak's re-convergence
	// checks presuppose Lemma 7.4 uniqueness, which Modified guarantees;
	// the zero value is Classic, which carries no such guarantee and can
	// only document its own oscillation as violations.
	Policy protocol.Policy
	// Opts are the route-selection options, shared with the reference run.
	Opts selection.Options
	// Plan is an optional fault schedule active during the soak. Rounds
	// that start before the plan's horizon are exempt from the windowed
	// re-convergence / flush / loop-freedom checks (quiescence and ledger
	// closure are always asserted); a plan without a horizon suppresses
	// those checks entirely.
	Plan *faults.Plan
	// MRAI is the per-session minimum route advertisement interval in
	// transport clock units (0 disables).
	MRAI int64
	// Workers is the per-router refresh fan-out (router.SetWorkers) on
	// both substrates. Every value produces the identical UPDATE stream,
	// aggregate and state hash; values below 2 run serially.
	Workers int
	// DelaySeed seeds msgsim's random per-message delay model; 0 derives
	// a seed from Spec.Seed. MaxDelay bounds the delays (default 10).
	// Delays are always jittered, never constant: perfectly synchronous
	// delivery makes every router re-select in lockstep, a pathological
	// schedule under which path exploration at scale practically never
	// settles — while Lemma 7.4 makes the settled outcome independent of
	// the delay draw, so jitter costs no determinism.
	DelaySeed int64
	MaxDelay  int64
	// MaxEventsPerRound bounds each msgsim round (default 2,000,000).
	MaxEventsPerRound int
	// Timeout and Settle drive speaker.WaitQuiesce per round on the TCP
	// substrate (defaults 30s / 150ms).
	Timeout, Settle time.Duration
	// Events, when set, receives every typed router event of the run —
	// the hook a telemetry feed's Sink plugs into.
	Events func(router.Event)
	// EventsBatch, when set, receives each dispatch round's events as one
	// slice (valid only until it returns) — the hook a telemetry feed's
	// SinkBatch plugs into. It amortises per-event observer overhead and
	// may be set together with or instead of Events.
	EventsBatch func([]router.Event)
	// BindCounters, when set, is called once before the run starts with
	// the substrate's live counters getter, so a telemetry feed can serve
	// counter snapshots while the soak runs.
	BindCounters func(func() router.Snapshot)
	// Latency, when set, receives each round's post-burst convergence
	// latency (virtual ticks on msgsim, milliseconds on TCP).
	Latency func(int64)
}

func (c Config) fill() Config {
	if c.Rounds < 1 {
		c.Rounds = 1
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 10
	}
	if c.MaxEventsPerRound <= 0 {
		c.MaxEventsPerRound = 2_000_000
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Settle <= 0 {
		c.Settle = 150 * time.Millisecond
	}
	return c
}

// checkable reports whether round r's quiet window carries the windowed
// Lemma 7.4 invariants. The formula is shared by both substrates — both
// guarantee round r's events occur at transport time >= r*Period — so the
// deterministic aggregate (checked rounds, state hash) is substrate-
// independent: a faultless plan checks every round, a horizoned plan the
// rounds starting at or after the horizon, a horizonless active plan none.
// The warm-up (r = -1) is graded once at quiescence, the one-shot
// fault-horizon check: faults that cease are one more message ordering,
// so its settled state must be the reference's too.
func (c Config) checkable(r int) bool {
	if !c.Plan.Active() {
		return true
	}
	if c.Plan.Horizon <= 0 {
		return false
	}
	return r < 0 || int64(r)*c.Spec.Period >= c.Plan.Horizon
}

// Violation is one failed invariant check. Round is -1 for the warm-up.
type Violation struct {
	Round  int    `json:"round"`
	Prefix uint32 `json:"prefix"`
	Kind   string `json:"kind"` // quiesce, reference, reconverge, rib, loop, ledger, aggregate
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("round %d prefix %d %s: %s", v.Round, v.Prefix, v.Kind, v.Detail)
}

// Aggregate is the deterministic part of a soak report: for a given
// (Spec, Rounds, Plan, MRAI, DelaySeed) it is identical across runs and
// substrates — byte for byte under encoding/json — as long as every
// invariant holds. StateHash folds every checked round's converged
// per-prefix routing into one digest.
type Aggregate struct {
	Seed      int64  `json:"seed"`
	Rounds    int    `json:"rounds"`
	Prefixes  int    `json:"prefixes"`
	Routers   int    `json:"routers"`
	Events    int    `json:"events"`
	Announces int    `json:"announces"`
	Withdraws int    `json:"withdraws"`
	FlapPairs int    `json:"flapPairs"`
	Skipped   int    `json:"skipped"`
	Checked   int    `json:"checkedRounds"`
	StateHash string `json:"stateHash"`
}

// LatencyStats summarises the per-round post-burst convergence latencies.
type LatencyStats struct {
	Count int   `json:"count"`
	P50   int64 `json:"p50"`
	P99   int64 `json:"p99"`
	Max   int64 `json:"max"`
}

// percentiles computes the summary of a sample set (nearest-rank).
func percentiles(samples []int64) LatencyStats {
	st := LatencyStats{Count: len(samples)}
	if len(samples) == 0 {
		return st
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(p float64) int64 {
		i := int(p*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	st.P50, st.P99, st.Max = rank(0.50), rank(0.99), s[len(s)-1]
	return st
}

// Measured is the wall-clock-dependent part of a soak report.
type Measured struct {
	WallMS      int64           `json:"wallMs"`
	MsgsPerSec  float64         `json:"msgsPerSec"`
	Convergence LatencyStats    `json:"convergence"`
	Counters    router.Snapshot `json:"counters"`
	HeapAllocMB float64         `json:"heapAllocMB"`
}

// Report is the outcome of one soak run on one substrate.
type Report struct {
	Substrate  string      `json:"substrate"`
	Agg        Aggregate   `json:"aggregate"`
	Measured   Measured    `json:"measured"`
	Violations []Violation `json:"violations,omitempty"`
}

// OK reports whether every asserted invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// substrate is one operational transport driven through a run: the
// msgsim discrete-event simulator or the loopback-TCP speakers.
type substrate interface {
	// warmUp injects every exit path of every prefix and reports whether
	// the run settled.
	warmUp() bool
	// round applies round r's events and reports whether the run settled
	// and its post-burst convergence latency.
	round(r int, evs []Event) (quiesced bool, latency int64)
	best(prefix uint32, u bgp.NodeID) bgp.PathID
	possible(prefix uint32, u bgp.NodeID) bgp.PathSet
	counters() router.Snapshot
}

// simSubstrate anchors round r at virtual tick r*Period — every event of
// round r is scheduled at or after that instant, which is what lets
// checkable share its horizon arithmetic with the wall-clock substrate —
// and runs each round to quiescence.
type simSubstrate struct {
	s   *msgsim.Sim
	cfg Config
	res msgsim.Result
}

func (x *simSubstrate) warmUp() bool {
	x.s.InjectAll()
	x.res = x.s.Run(x.cfg.MaxEventsPerRound)
	return x.res.Quiesced
}

func (x *simSubstrate) round(r int, evs []Event) (bool, int64) {
	base := x.s.Now() + 1
	if anchor := int64(r) * x.cfg.Spec.Period; base < anchor {
		base = anchor
	}
	var last int64
	for _, ev := range evs {
		last = max(last, ev.At)
		if ev.Withdraw {
			x.s.WithdrawPrefixAt(base+ev.At, ev.Prefix, ev.Path)
		} else {
			x.s.InjectPrefixAt(base+ev.At, ev.Prefix, ev.Path)
		}
	}
	// Run's event budget is cumulative across calls, so each round
	// extends it by the per-round allowance.
	x.res = x.s.Run(x.res.Events + x.cfg.MaxEventsPerRound)
	return x.res.Quiesced, max(0, x.res.Time-(base+last))
}

func (x *simSubstrate) best(prefix uint32, u bgp.NodeID) bgp.PathID { return x.s.BestFor(prefix, u) }
func (x *simSubstrate) possible(prefix uint32, u bgp.NodeID) bgp.PathSet {
	return x.s.PossibleFor(prefix, u)
}
func (x *simSubstrate) counters() router.Snapshot { return x.s.Counters() }

// tcpSubstrate anchors round r at wall-clock start + r*Period
// milliseconds — the sleep before each round is what upholds the
// checkable guarantee on this substrate — and applies a round's events in
// At order back to back (Lemma 7.4 makes the settled state independent of
// the intra-round spacing).
type tcpSubstrate struct {
	n     *speaker.Network
	cfg   Config
	start time.Time
}

func (x *tcpSubstrate) warmUp() bool {
	x.n.InjectAll()
	return x.n.WaitQuiesce(x.cfg.Timeout, x.cfg.Settle)
}

func (x *tcpSubstrate) round(r int, evs []Event) (bool, int64) {
	if d := time.Until(x.start.Add(time.Duration(int64(r)*x.cfg.Spec.Period) * time.Millisecond)); d > 0 {
		time.Sleep(d)
	}
	ordered := append([]Event(nil), evs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	for _, ev := range ordered {
		if ev.Withdraw {
			x.n.WithdrawPrefix(ev.Prefix, ev.Path)
		} else {
			x.n.InjectPrefix(ev.Prefix, ev.Path)
		}
	}
	applied := time.Now()
	quiesced := x.n.WaitQuiesce(x.cfg.Timeout, x.cfg.Settle)
	// WaitQuiesce holds for a settle window after the last activity;
	// subtract it so the sample approximates time-to-converge.
	return quiesced, max(0, time.Since(applied).Milliseconds()-x.cfg.Settle.Milliseconds())
}

func (x *tcpSubstrate) best(prefix uint32, u bgp.NodeID) bgp.PathID { return x.n.BestFor(prefix, u) }
func (x *tcpSubstrate) possible(prefix uint32, u bgp.NodeID) bgp.PathSet {
	return x.n.Speaker(u).PossibleFor(prefix)
}
func (x *tcpSubstrate) counters() router.Snapshot { return x.n.Counters() }

// replicate carries one topology on every prefix of the spec: the shared
// session graph and exit set router.NewDomain validates.
func replicate(sys *topology.System, prefixes int) []*topology.System {
	systems := make([]*topology.System, prefixes)
	for p := range systems {
		systems[p] = sys
	}
	return systems
}

// SoakSim drives one churn soak on the discrete-event simulator substrate:
// the warm-up, then cfg.Rounds churn rounds, every settled state graded.
// The returned Report's Aggregate is a pure function of (Spec, Rounds,
// Plan, MRAI, DelaySeed); only Measured varies run to run.
func SoakSim(sys *topology.System, cfg Config) (*Report, error) {
	return SoakDomain(replicate(sys, cfg.Spec.Prefixes), cfg)
}

// SoakDomain is SoakSim over a domain whose prefixes carry their own
// systems — WithExits overlays of one session graph, as
// topology.BuildSpecAll builds them, with equal exit counts. Prefix p is
// systems[p]; cfg.Spec.Prefixes is taken from len(systems), and every
// prefix's loop freedom is graded against its own exits.
func SoakDomain(systems []*topology.System, cfg Config) (*Report, error) {
	cfg = cfg.fill()
	return soakSim(systems, cfg, cfg.Rounds)
}

// CheckSim is the one-shot fault-horizon check: the warm-up of SoakDomain
// alone, graded once at quiescence — re-convergence to the fault-free
// reference, loop freedom and ledger closure under cfg.Plan. cfg.Rounds
// and the churn shape of cfg.Spec are ignored. Like the soak it is a pure
// function of its inputs, so campaign jobs fan it out and still aggregate
// byte-identically.
func CheckSim(systems []*topology.System, cfg Config) (*Report, error) {
	return soakSim(systems, cfg.fill(), 0)
}

func soakSim(systems []*topology.System, cfg Config, rounds int) (*Report, error) {
	c, err := newChecker(systems, cfg, rounds)
	if err != nil {
		return nil, err
	}
	seed := cfg.DelaySeed
	if seed == 0 {
		seed = cfg.Spec.Seed + 1
	}
	delay, err := msgsim.RandomDelay(seed, 1, cfg.MaxDelay)
	if err != nil {
		return nil, err
	}
	s := msgsim.NewMulti(domain(systems), cfg.Policy, cfg.Opts, delay)
	if cfg.Events != nil {
		s.ObserveEvents(cfg.Events)
	}
	if cfg.EventsBatch != nil {
		s.ObserveEventsBatch(cfg.EventsBatch)
	}
	if cfg.BindCounters != nil {
		cfg.BindCounters(s.Counters)
	}
	if cfg.MRAI > 0 {
		s.SetMRAI(cfg.MRAI)
	}
	if cfg.Workers > 1 {
		s.SetWorkers(cfg.Workers)
	}
	if err := s.SetFaults(cfg.Plan); err != nil {
		return nil, err
	}
	return c.run("sim", &simSubstrate{s: s, cfg: cfg}, rounds, time.Now())
}

// SoakTCP drives the identical soak over loopback TCP speakers.
func SoakTCP(sys *topology.System, cfg Config) (*Report, error) {
	cfg = cfg.fill()
	return soakTCP(replicate(sys, cfg.Spec.Prefixes), cfg, cfg.Rounds)
}

func soakTCP(systems []*topology.System, cfg Config, rounds int) (*Report, error) {
	c, err := newChecker(systems, cfg, rounds)
	if err != nil {
		return nil, err
	}
	n, err := speaker.NewMulti(domain(systems), cfg.Policy, cfg.Opts)
	if err != nil {
		return nil, err
	}
	if cfg.Events != nil {
		n.Subscribe(cfg.Events)
	}
	if cfg.EventsBatch != nil {
		n.SubscribeBatch(cfg.EventsBatch)
	}
	if cfg.BindCounters != nil {
		cfg.BindCounters(n.Counters)
	}
	if cfg.MRAI > 0 {
		n.SetMRAI(cfg.MRAI)
	}
	if cfg.Workers > 1 {
		n.SetWorkers(cfg.Workers)
	}
	if err := n.SetFaults(cfg.Plan); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := n.Start(); err != nil {
		return nil, err
	}
	defer n.Stop()
	return c.run("tcp", &tcpSubstrate{n: n, cfg: cfg, start: start}, rounds, start)
}
