package churn

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/workload"
)

// one wraps a single-prefix system as a domain.
func one(sys *topology.System) []*topology.System { return []*topology.System{sys} }

// hasKind reports whether the report carries a violation of the kind.
func hasKind(rep *Report, kind string) bool {
	for _, v := range rep.Violations {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

// TestCheckSimModifiedUnderRandomPlans: the headline invariant — modified
// I-BGP re-converges to the Lemma 7.4 configuration under any fault mix
// that ceases, loop-free, ledger closed.
func TestCheckSimModifiedUnderRandomPlans(t *testing.T) {
	for _, fig := range []struct {
		name string
		f    *figures.Fig
	}{
		{"Fig1a", figures.Fig1a()},
		{"Fig3", figures.Fig3()},
		{"Fig14", figures.Fig14()},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			plan, err := faults.RandomPlan(seed, fig.f.Sys.N(), faults.RandomConfig{
				Drop: 0.12, Duplicate: 0.08, Reorder: 0.08, Delay: 0.25,
				MaxExtraDelay: 12, Resets: 2, Horizon: 500,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := CheckSim(one(fig.f.Sys), Config{
				Policy: protocol.Modified, Plan: plan, DelaySeed: seed,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", fig.name, seed, err)
			}
			if !rep.OK() {
				t.Fatalf("%s seed %d (%q): %v", fig.name, seed, plan, rep.Violations)
			}
		}
	}
}

// TestCheckSimWithdrawUnderFaults: E-BGP withdrawals racing drops and a
// session reset must still be flushed from every candidate set. The
// withdrawals land in churn rounds inside the fault window; the first
// round past the horizon grades the candidate sets against the live set,
// and at least one route withdrawn under faults is still down then.
func TestCheckSimWithdrawUnderFaults(t *testing.T) {
	f := figures.Fig14()
	u := bgp.NodeID(0)
	w := f.Sys.Peers(u)[0]
	cfg := Config{
		Spec:   Spec{Seed: 7, Prefixes: 1, Rate: 10, Period: 100, Burst: 40, FlapProb: 0.2},
		Rounds: 10,
		Policy: protocol.Modified,
		Plan: &faults.Plan{
			Seed: 9, Drop: 0.2, Delay: 0.3, MaxExtraDelay: 10,
			Resets:  []faults.Reset{{A: u, B: w, At: 60, Downtime: 50}},
			Horizon: 800,
		},
		DelaySeed: 2,
	}
	rep, err := SoakSim(f.Sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatal(rep.Violations)
	}
	if rep.Measured.Counters.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", rep.Measured.Counters.Resets)
	}
	if rep.Agg.Checked != 2 {
		t.Fatalf("checked %d rounds, want 2 (horizon 800 / period 100 of 10 rounds)", rep.Agg.Checked)
	}
	// Replay the stream: some path must go down inside the fault window
	// and stay down through the first graded round.
	st, err := NewStream(cfg.Spec, exitIDs(f.Sys))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		st.Next()
	}
	faulted := st.Live(0)
	st.Next()
	graded := st.Live(0)
	flushed := false
	for _, id := range exitIDs(f.Sys) {
		if !faulted.Contains(id) && !graded.Contains(id) {
			flushed = true
		}
	}
	if !flushed {
		t.Fatalf("no route withdrawn under faults is still down when graded (live %v then %v)", faulted, graded)
	}
}

// TestClassicPathologiesSurviveFaults: fault injection must not mask the
// paper's pathologies. Figure 1(a) has no stable configuration under
// classic I-BGP — it must keep oscillating, faults or none. Figure 3 is
// the timing-dependence example: it has two stable solutions, and which
// one classic I-BGP lands on must still vary with timing when fault
// schedules perturb the message orderings.
func TestClassicPathologiesSurviveFaults(t *testing.T) {
	plan := &faults.Plan{Seed: 4, Drop: 0.05, Delay: 0.2, MaxExtraDelay: 8, Horizon: 300}
	rep, err := CheckSim(one(figures.Fig1a().Sys), Config{
		Policy: protocol.Classic, Plan: plan, DelaySeed: 11, MaxEventsPerRound: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hasKind(rep, "quiesce") {
		t.Fatalf("classic Fig1a quiesced under faults: %v", rep.Violations)
	}

	// Figure 3's timing dependence is the r1 flash: r1 appears and is
	// withdrawn again, and whether its MED kill of r3 propagates before the
	// withdrawal decides which of the two stable solutions the system
	// settles in. Under fault-perturbed delays, both must still occur.
	f3 := figures.Fig3()
	outcomes := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		p := &faults.Plan{Seed: seed, Drop: 0.1, Delay: 0.4, MaxExtraDelay: 20, Horizon: 400}
		s := msgsim.New(f3.Sys, protocol.Classic, selection.Options{},
			msgsim.MustRandomDelay(seed, 1, 25))
		if err := s.SetFaults(p); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"r2", "r3", "r4", "r5", "r6"} {
			s.InjectAt(0, f3.Path(name))
		}
		s.InjectAt(0, f3.Path("r1"))
		s.WithdrawAt(60, f3.Path("r1"))
		res := s.Run(50000)
		if !res.Quiesced {
			continue // classic Fig3 may also churn past the budget
		}
		c := s.Counters()
		if c.Sent != c.Received+c.Rejected+c.Dropped {
			t.Fatalf("seed %d: ledger broken: %+v", seed, c)
		}
		outcomes[fmt.Sprint(res.Best)] = true
	}
	if len(outcomes) < 2 {
		t.Fatalf("classic Fig3 lost its timing dependence under faults: outcomes %v", outcomes)
	}
}

// TestReferenceRejectsOscillators: asking for a reference configuration of
// a policy with none is an error, not a hang.
func TestReferenceRejectsOscillators(t *testing.T) {
	f := figures.Fig1a()
	cfg := Config{Policy: protocol.Classic, MaxEventsPerRound: 10000}.fill()
	if _, err := newReference(one(f.Sys), cfg); err == nil {
		t.Fatal("classic Fig1a produced a reference configuration")
	}
}

// tcpResetConfig is the one-shot TCP check: drops, duplicates and a
// genuine connection teardown and redial on Figure 1(a).
func tcpResetConfig(sys *topology.System) Config {
	u := bgp.NodeID(0)
	return Config{
		Policy: protocol.Modified,
		Plan: &faults.Plan{
			Seed: 6, Drop: 0.25, Duplicate: 0.15, Delay: 0.3, MaxExtraDelay: 20,
			Resets:  []faults.Reset{{A: u, B: sys.Peers(u)[0], At: 50, Downtime: 40}},
			Horizon: 700,
		},
	}.fill()
}

// TestCheckTCPModifiedWithReset: the same invariants over real TCP
// sessions, including a genuine connection teardown and redial; the run
// rejoins the fault-free configuration.
func TestCheckTCPModifiedWithReset(t *testing.T) {
	f := figures.Fig1a()
	rep, err := soakTCP(one(f.Sys), tcpResetConfig(f.Sys), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatal(rep.Violations)
	}
	if rep.Measured.Counters.Resets == 0 {
		t.Fatal("the scripted reset never happened")
	}
}

// TestTCPRunsLeaveNoGoroutines: the one-shot TCP check and a TCP soak
// stop every speaker, session and timer goroutine they started.
func TestTCPRunsLeaveNoGoroutines(t *testing.T) {
	settled := func(stage string, baseline int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("after %s: %d goroutines, baseline %d\n%s",
					stage, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	baseline := runtime.NumGoroutine()
	f := figures.Fig1a()
	if _, err := soakTCP(one(f.Sys), tcpResetConfig(f.Sys), 0); err != nil {
		t.Fatal(err)
	}
	settled("the one-shot TCP check", baseline)
	cfg := soakConfig()
	cfg.Rounds = 2
	if _, err := SoakTCP(smallSys(t), cfg); err != nil {
		t.Fatal(err)
	}
	settled("SoakTCP", baseline)
}

// TestCheckSimReorderKeepsDisjointAnnouncements pins a re-convergence
// regression in the simulator's reorder handling. An update overtaken in
// flight used to be discarded whole on delivery; but updates are diffs,
// so an announcement for a route the overtaking update never mentioned
// was lost forever, and the run quiesced into a configuration differing
// from the Lemma 7.4 reference. Seeds 2, 11 and 13 of the default census
// family reproduced this under the ChaosJob default fault mix; the fix
// sequences overtaken updates at route granularity (msgsim filterStale).
func TestCheckSimReorderKeepsDisjointAnnouncements(t *testing.T) {
	cfg := faults.RandomConfig{
		Drop: 0.1, Duplicate: 0.05, Reorder: 0.05, Delay: 0.2,
		MaxExtraDelay: 15, Resets: 2, Horizon: 500,
	}
	for _, seed := range []int64{2, 11, 13} {
		sys, err := workload.Generate(workload.Default(3), seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 2; i++ {
			planSeed := seed*2 + i
			plan, err := faults.RandomPlan(planSeed, sys.N(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := CheckSim(one(sys), Config{
				Policy: protocol.Modified, Plan: plan, DelaySeed: planSeed + 1,
			})
			if err != nil {
				t.Fatalf("seed %d plan %d: %v", seed, i, err)
			}
			if !rep.OK() {
				t.Errorf("seed %d plan %d: %v", seed, i, rep.Violations)
			}
		}
	}
}

// lineDomain is the line A - B - C whose base system exits p0 at A and
// p1 at C, with a WithExits overlay that swaps the two exit points.
func lineDomain(t *testing.T) (base, swapped *topology.System) {
	t.Helper()
	b := topology.NewBuilder()
	var n [3]bgp.NodeID
	for i, name := range []string{"A", "B", "C"} {
		n[i] = b.Reflector(name, b.NewCluster())
	}
	b.Link(n[0], n[1], 1)
	b.Link(n[1], n[2], 1)
	b.Exit(n[0], topology.ExitSpec{NextAS: 1})
	b.Exit(n[2], topology.ExitSpec{NextAS: 2})
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	swapped, err = base.WithExits([]topology.PrefixExit{
		{At: n[2], Spec: topology.ExitSpec{NextAS: 1}},
		{At: n[0], Spec: topology.ExitSpec{NextAS: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return base, swapped
}

// TestGradePerPrefixSystems: loop freedom is graded against each prefix's
// own exits. Prefix 1's best vector on the swapped overlay (A on p1, B and
// C on p0) forwards A and C out directly and B to C; read against the base
// exits it would loop A -> B -> A.
func TestGradePerPrefixSystems(t *testing.T) {
	base, swapped := lineDomain(t)
	best := [][]bgp.PathID{{0, 0, 1}, {1, 0, 0}}
	st := &state{best: best, possible: make([][]bgp.PathSet, 2), quiesced: true}
	if vs := grade(nil, 0, []*topology.System{base, swapped}, st, best, nil); len(vs) != 0 {
		t.Fatalf("per-prefix grading flagged a loop-free domain: %v", vs)
	}
	// The same vector on the base exits is the loop the grader must see.
	if vs := grade(nil, 0, []*topology.System{base, base}, st, best, nil); !hasKind(&Report{Violations: vs}, "loop") {
		t.Fatalf("base exits for prefix 1 should loop, got %v", vs)
	}
}

// TestGradeFlagsEachKind: every invariant the grader owns fires on a
// settled state that breaks it, and only that one.
func TestGradeFlagsEachKind(t *testing.T) {
	base, _ := lineDomain(t)
	systems := []*topology.System{base}
	ref := [][]bgp.PathID{{0, 0, 1}}
	all := bgp.NewPathSet(0, 1)
	for _, tc := range []struct {
		kind  string
		spoil func(st *state, live []bgp.PathSet)
	}{
		{"quiesce", func(st *state, _ []bgp.PathSet) { st.quiesced = false }},
		{"ledger", func(st *state, _ []bgp.PathSet) { st.counters.Sent = 1 }},
		{"reconverge", func(st *state, _ []bgp.PathSet) { st.best[0] = []bgp.PathID{0, 0, 0} }},
		{"rib", func(_ *state, live []bgp.PathSet) { live[0] = bgp.NewPathSet(0) }},
		{"loop", func(st *state, _ []bgp.PathSet) { st.best[0] = []bgp.PathID{1, 0, 1} }},
	} {
		st := &state{
			best:     [][]bgp.PathID{{0, 0, 1}},
			possible: [][]bgp.PathSet{{all, all, all}},
			quiesced: true,
		}
		live := []bgp.PathSet{all}
		if vs := grade(nil, 3, systems, st, ref, live); len(vs) != 0 {
			t.Fatalf("%s: sound state graded %v", tc.kind, vs)
		}
		tc.spoil(st, live)
		vs := grade(nil, 3, systems, st, ref, live)
		if !hasKind(&Report{Violations: vs}, tc.kind) || vs[0].Round != 3 {
			t.Errorf("%s: graded %v", tc.kind, vs)
		}
		for _, v := range vs {
			if v.Kind != tc.kind && !(tc.kind == "loop" && v.Kind == "reconverge") {
				t.Errorf("%s: also flagged %v", tc.kind, v)
			}
		}
	}
}

// TestSoakDomainOverlays: a generated overlay domain, every prefix on its
// own exit placement, soaks clean through warm-up, churn and a fault plan,
// on the same path the scale census takes.
func TestSoakDomainOverlays(t *testing.T) {
	spec := topogen.Small()
	spec.Prefixes = 4
	tsp, err := topogen.Generate(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	systems, err := topology.BuildSpecAll(tsp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := soakConfig()
	rep, err := SoakDomain(systems, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Agg.Checked != cfg.Rounds || rep.Agg.Prefixes != len(systems) {
		t.Fatalf("overlay soak: %+v, violations %v", rep.Agg, rep.Violations)
	}
	cfg.Plan = plan(t, 0.15, 300)
	if rep, err = CheckSim(systems, cfg); err != nil || !rep.OK() {
		t.Fatalf("overlay one-shot check: %v, %v", err, rep.Violations)
	}
}
