package churn

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bgp"
	"repro/internal/forwarding"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/topology"
)

// domain keys a prefix-indexed system list the way msgsim.NewMulti and
// speaker.NewMulti take it.
func domain(systems []*topology.System) map[uint32]*topology.System {
	m := make(map[uint32]*topology.System, len(systems))
	for p, sys := range systems {
		m[uint32(p)] = sys
	}
	return m
}

// exitIDs lists a system's exit-path IDs.
func exitIDs(sys *topology.System) []bgp.PathID {
	exits := sys.Exits()
	ids := make([]bgp.PathID, len(exits))
	for i, p := range exits {
		ids[i] = p.ID
	}
	return ids
}

// reference is the incremental fault-free oracle: a msgsim run over the
// same domain, fed the identical event stream round by round and settled
// after each. Lemma 7.4 (the modified protocol's final configuration is
// unique for a given set of announced routes, whatever the message
// ordering) is what makes its per-round fixpoint the one the faulted,
// delayed, MRAI-paced run must land on too.
type reference struct {
	sim *msgsim.Sim
	n   int
	max int
	// used tracks the sim's cumulative event count, because Run's budget
	// is cumulative too: each settle extends it by the per-round max.
	used int
	// best is the settled best vector per prefix, rewritten in place.
	best [][]bgp.PathID
}

// newReference settles the fault-free warm-up. It fails when the warm-up
// does not quiesce: the policy then has no stable outcome to compare with.
func newReference(systems []*topology.System, cfg Config) (*reference, error) {
	// The delay draw cannot change the fixpoint (Lemma 7.4), so the
	// reference fixes its own seed; jitter matters only to break the
	// synchronous lockstep that stalls convergence at scale.
	ref := &reference{
		sim: msgsim.NewMulti(domain(systems), cfg.Policy, cfg.Opts,
			msgsim.MustRandomDelay(cfg.Spec.Seed+0x5eed, 1, 10)),
		n:    systems[0].N(),
		max:  cfg.MaxEventsPerRound,
		best: make([][]bgp.PathID, len(systems)),
	}
	for p := range ref.best {
		ref.best[p] = make([]bgp.PathID, ref.n)
	}
	ref.sim.InjectAll()
	res := ref.sim.Run(ref.max)
	ref.used = res.Events
	if !res.Quiesced {
		return nil, fmt.Errorf("churn: fault-free reference did not quiesce in %d events (policy %v has no stable outcome?)",
			ref.max, cfg.Policy)
	}
	ref.read()
	return ref, nil
}

// advance applies one round's events to the reference and settles it.
func (ref *reference) advance(evs []Event) error {
	base := ref.sim.Now() + 1
	for _, ev := range evs {
		if ev.Withdraw {
			ref.sim.WithdrawPrefixAt(base+ev.At, ev.Prefix, ev.Path)
		} else {
			ref.sim.InjectPrefixAt(base+ev.At, ev.Prefix, ev.Path)
		}
	}
	res := ref.sim.Run(ref.used + ref.max)
	ref.used = res.Events
	if !res.Quiesced {
		return fmt.Errorf("churn: fault-free reference did not quiesce")
	}
	ref.read()
	return nil
}

func (ref *reference) read() {
	for p, v := range ref.best {
		for u := range v {
			v[u] = ref.sim.BestFor(uint32(p), bgp.NodeID(u))
		}
	}
}

// state is one settled state of a run: the best path and candidate set per
// (prefix, router), the transport's counter snapshot and its quiescence
// verdict.
type state struct {
	best     [][]bgp.PathID
	possible [][]bgp.PathSet
	counters router.Snapshot
	quiesced bool
}

// grade appends to out the violations of one settled state. Quiescence and
// the message ledger Sent == Received+Rejected+Dropped are graded always
// (the ledger only at rest). Given the fault-free reference vectors ref, it
// also grades every prefix against that prefix's own system: Lemma 7.4
// re-convergence to ref, containment of every candidate set in the
// prefix's live route set when live is non-nil (withdrawn routes are
// flushed everywhere, Lemma 7.6, so RIBs stay bounded under churn), and
// loop freedom of the implied forwarding plane.
func grade(out []Violation, round int, systems []*topology.System, st *state, ref [][]bgp.PathID, live []bgp.PathSet) []Violation {
	violate := func(prefix int, kind, format string, args ...any) {
		out = append(out, Violation{Round: round, Prefix: uint32(prefix), Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	if !st.quiesced {
		violate(0, "quiesce", "did not quiesce within its budget")
		return out
	}
	if c := st.counters; c.Sent != c.Received+c.Rejected+c.Dropped {
		violate(0, "ledger", "sent=%d but received+rejected+dropped=%d at rest", c.Sent, c.Received+c.Rejected+c.Dropped)
	}
	var ids []bgp.PathID
	for p := range ref {
		sys, best := systems[p], st.best[p]
		for u := range best {
			if best[u] != ref[p][u] {
				violate(p, "reconverge", "router %s best p%d, reference p%d", sys.Name(bgp.NodeID(u)), best[u], ref[p][u])
				break
			}
		}
		if live != nil {
			for u, ps := range st.possible[p] {
				ids = ps.AppendIDs(ids[:0])
				for _, id := range ids {
					if !live[p].Contains(id) {
						violate(p, "rib", "router %s retains withdrawn route p%d (live %v)", sys.Name(bgp.NodeID(u)), id, live[p])
					}
				}
			}
		}
		if !forwarding.NewPlane(sys, protocol.Snapshot{Best: best}).LoopFree() {
			violate(p, "loop", "forwarding plane has a loop under %v", best)
		}
	}
	return out
}

// checker holds what a run is graded against — the per-prefix systems,
// the churn stream's live sets and the lazily built fault-free reference —
// and accumulates the rolling results shared by both substrates.
type checker struct {
	systems    []*topology.System
	cfg        Config
	stream     *Stream // nil when no churn rounds run
	live       []bgp.PathSet
	ref        *reference
	st         state
	hash       uint64
	checked    int
	events     int
	violations []Violation
}

func newChecker(systems []*topology.System, cfg Config, rounds int) (*checker, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("churn: no prefixes to carry")
	}
	cfg.Spec.Prefixes = len(systems)
	c := &checker{systems: systems, cfg: cfg, hash: splitmix64(uint64(cfg.Spec.Seed))}
	if rounds > 0 {
		var err error
		if c.stream, err = NewStream(cfg.Spec, exitIDs(systems[0])); err != nil {
			return nil, err
		}
		c.live = make([]bgp.PathSet, len(systems))
	}
	c.st.best = make([][]bgp.PathID, len(systems))
	c.st.possible = make([][]bgp.PathSet, len(systems))
	for p := range systems {
		c.st.best[p] = make([]bgp.PathID, systems[0].N())
		c.st.possible[p] = make([]bgp.PathSet, systems[0].N())
	}
	return c, nil
}

// check grades one settled round (round -1 is the warm-up): quiescence and
// ledger closure always; on checkable rounds also the windowed invariants
// of grade against the reference. Checked churn rounds fold their routing
// into the state hash. It reports false when the run cannot meaningfully
// go on (a round did not quiesce, or the reference did not), and fails
// only when the fault-free reference cannot be built at all.
func (c *checker) check(round int, evs []Event, quiesced bool, sub substrate) (bool, error) {
	c.events += len(evs)
	st := &c.st
	st.quiesced, st.counters = quiesced, sub.counters()
	if !quiesced {
		c.violations = grade(c.violations, round, c.systems, st, nil, nil)
		return false, nil
	}
	// The reference consumes every round — checkable or not — so it stays
	// in lockstep with the run's announced-route state. It is built on the
	// first settled state, so a run that never settles needs none.
	if c.ref == nil {
		ref, err := newReference(c.systems, c.cfg)
		if err != nil {
			return false, err
		}
		c.ref = ref
	} else if err := c.ref.advance(evs); err != nil {
		c.violations = append(c.violations, Violation{Round: round, Kind: "reference", Detail: err.Error()})
		return false, nil
	}
	checkable := c.cfg.checkable(round)
	var ref [][]bgp.PathID
	var live []bgp.PathSet
	if checkable {
		ref = c.ref.best
		for p := range c.systems {
			for u := range st.best[p] {
				st.best[p][u] = sub.best(uint32(p), bgp.NodeID(u))
				st.possible[p][u] = sub.possible(uint32(p), bgp.NodeID(u))
			}
		}
		if c.stream != nil {
			live = c.live
			for p := range live {
				live[p] = c.stream.Live(uint32(p))
			}
		}
	}
	c.violations = grade(c.violations, round, c.systems, st, ref, live)
	if checkable && round >= 0 {
		c.checked++
		c.fold(uint64(uint32(round)))
		for p, best := range st.best {
			for u := range best {
				c.fold(uint64(uint32(p))<<40 ^ uint64(uint32(u))<<8 ^ uint64(uint32(best[u]+1)))
			}
		}
	}
	return true, nil
}

// fold mixes one value into the rolling state hash.
func (c *checker) fold(v uint64) { c.hash = splitmix64(c.hash ^ v) }

// run drives the warm-up and the churn rounds on one substrate, grading
// each settled state, and assembles the report.
func (c *checker) run(name string, sub substrate, rounds int, start time.Time) (*Report, error) {
	var samples []int64
	ok, err := c.check(-1, nil, sub.warmUp(), sub)
	done := 0
	for r := 0; ok && err == nil && r < rounds; r++ {
		evs := c.stream.Next()
		quiesced, lat := sub.round(r, evs)
		samples = append(samples, lat)
		if c.cfg.Latency != nil {
			c.cfg.Latency(lat)
		}
		done = r + 1
		ok, err = c.check(r, evs, quiesced, sub)
	}
	if err != nil {
		return nil, err
	}
	return c.report(name, done, start, samples, sub.counters()), nil
}

// aggregate assembles the deterministic summary after the last round.
func (c *checker) aggregate(rounds int) Aggregate {
	agg := Aggregate{
		Seed:      c.cfg.Spec.Seed,
		Rounds:    rounds,
		Prefixes:  len(c.systems),
		Routers:   c.systems[0].N(),
		Events:    c.events,
		Checked:   c.checked,
		StateHash: fmt.Sprintf("%016x", c.hash),
	}
	if c.stream != nil {
		agg.Announces, agg.Withdraws = c.stream.Announces(), c.stream.Withdraws()
		agg.FlapPairs, agg.Skipped = c.stream.FlapPairs(), c.stream.Skipped()
	}
	return agg
}

// report assembles the final Report once the rounds are over.
func (c *checker) report(substrate string, rounds int, start time.Time, samples []int64, counters router.Snapshot) *Report {
	wall := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := Measured{
		WallMS:      wall.Milliseconds(),
		Convergence: percentiles(samples),
		Counters:    counters,
		HeapAllocMB: float64(ms.HeapAlloc) / (1 << 20),
	}
	if secs := wall.Seconds(); secs > 0 {
		m.MsgsPerSec = float64(counters.Sent) / secs
	}
	return &Report{
		Substrate:  substrate,
		Agg:        c.aggregate(rounds),
		Measured:   m,
		Violations: c.violations,
	}
}
