package ibgp

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestQuickstartFlow exercises the README's quickstart end to end through
// the public API only.
func TestQuickstartFlow(t *testing.T) {
	b := NewBuilder()
	k0 := b.NewCluster()
	k1 := b.NewCluster()
	rr1 := b.Reflector("rr1", k0)
	c1 := b.Client("c1", k0)
	rr2 := b.Reflector("rr2", k1)
	b.Link(rr1, c1, 5).Link(rr1, rr2, 1)
	p1 := b.Exit(c1, ExitSpec{NextAS: 1, MED: 0})
	p2 := b.Exit(rr2, ExitSpec{NextAS: 2, MED: 0})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(sys, Modified, Options{})
	res := Run(eng, RoundRobin(sys.N()), RunOptions{})
	if res.Outcome != Converged {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// rr1 prefers p2 on metric (1 < 5); c1 keeps its own E-BGP route.
	if res.Final.Best[rr1] != p2 || res.Final.Best[rr2] != p2 || res.Final.Best[c1] != p1 {
		t.Fatalf("routes = %v", res.Final)
	}
	plane := NewForwardingPlane(sys, res.Final)
	if !plane.LoopFree() {
		t.Fatal("loops in trivial system")
	}
}

func TestFacadeFigures(t *testing.T) {
	for name, fig := range map[string]*Fig{
		"1a": Fig1a(), "1b": Fig1b(), "2": Fig2(), "3": Fig3(),
		"12": Fig12(), "13": Fig13(), "14": Fig14(),
	} {
		if fig.Sys == nil || fig.Sys.N() == 0 {
			t.Fatalf("figure %s empty", name)
		}
		eng := NewEngine(fig.Sys, Modified, Options{})
		if res := Run(eng, RoundRobin(fig.Sys.N()), RunOptions{MaxSteps: 8000}); res.Outcome != Converged {
			t.Fatalf("figure %s: modified protocol outcome %v", name, res.Outcome)
		}
	}
}

func TestFacadeAnalyze(t *testing.T) {
	a := Analyze(Fig1a().Sys, Classic, Options{}, true)
	if a.Truncated || a.Stabilizable() {
		t.Fatalf("Fig1a analysis: %+v", a)
	}
	sols := StableSolutions(Fig2().Sys, Options{})
	if len(sols) != 2 {
		t.Fatalf("Fig2 stable solutions = %d", len(sols))
	}
}

func TestFacadeSchedules(t *testing.T) {
	for _, sch := range []Schedule{
		RoundRobin(3), AllAtOnce(3), PermutationRounds(3, 1), SubsetRounds(3, 1),
		FixedSchedule([]NodeID{0}, []NodeID{1, 2}),
	} {
		if got := sch.Next(); len(got) == 0 {
			t.Fatal("empty activation set")
		}
	}
}

func TestFacadeSim(t *testing.T) {
	fig := Fig14()
	s := NewSim(fig.Sys, Modified, Options{}, MustRandomDelay(1, 1, 9))
	s.InjectAll()
	res := s.Run(0)
	if !res.Quiesced {
		t.Fatalf("sim did not quiesce: %+v", res)
	}
	if res.Best[fig.Node("c1")] != fig.Path("r2") {
		t.Fatalf("c1 best = p%d", res.Best[fig.Node("c1")])
	}
	_ = ConstantDelay(1)
}

func TestFacadeTCP(t *testing.T) {
	fig := Fig14()
	n := NewTCPNetwork(fig.Sys, Modified, Options{})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	n.InjectAll()
	if !n.WaitQuiesce(10*time.Second, 150*time.Millisecond) {
		t.Fatal("TCP network did not quiesce")
	}
	if n.Best(fig.Node("c2")) != fig.Path("r1") {
		t.Fatalf("c2 best = p%d", n.Best(fig.Node("c2")))
	}
}

func TestFacadeSAT(t *testing.T) {
	f, err := ParseDIMACS(strings.NewReader("p cnf 2 2\n1 2 0\n-1 2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	assign, ok := SolveSAT(f)
	if !ok || !f.Eval(assign) {
		t.Fatal("solver failed")
	}
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, f); err != nil {
		t.Fatal(err)
	}
	red, err := ReduceSAT(f)
	if err != nil {
		t.Fatal(err)
	}
	eng, res := red.StabilizeWithAssignment(assign, 20000)
	if res.Outcome != Converged || !eng.Stable() {
		t.Fatalf("reduction did not stabilise: %v", res.Outcome)
	}
	if g := Random3SAT(4, 5, 9); g.NumVars != 4 || len(g.Clauses) != 5 {
		t.Fatal("Random3SAT shape")
	}
}

func TestFacadeSystemJSONRoundTrip(t *testing.T) {
	fig := Fig1a()
	var buf bytes.Buffer
	if err := SaveSystem(&buf, fig.Sys); err != nil {
		t.Fatal(err)
	}
	sys, err := LoadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != fig.Sys.N() || sys.NumExits() != fig.Sys.NumExits() {
		t.Fatal("JSON round trip changed the system")
	}
	// The reloaded system behaves identically.
	a := Run(NewEngine(fig.Sys, Classic, Options{}), RoundRobin(fig.Sys.N()), RunOptions{MaxSteps: 2000})
	b := Run(NewEngine(sys, Classic, Options{}), RoundRobin(sys.N()), RunOptions{MaxSteps: 2000})
	if a.Outcome != b.Outcome {
		t.Fatalf("outcomes differ: %v vs %v", a.Outcome, b.Outcome)
	}
}

func TestFacadeConfedJSON(t *testing.T) {
	b := NewBuilder()
	X := b.NewSubAS()
	Y := b.NewSubAS()
	u := b.Member("u", X)
	v := b.Member("v", Y)
	b.Link(u, v, 1)
	b.ConfedSession(u, v)
	b.Exit(u, ExitSpec{NextAS: 1})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSystem(&buf, sys); err != nil {
		t.Fatal(err)
	}
	sys2, err := LoadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.N() != 2 || sys2.NumSubASes() != 2 || !sys2.IsConfedSession(0, 1) {
		t.Fatal("confed JSON round trip changed the system")
	}
}

func TestFacadeTraceHelpers(t *testing.T) {
	fig := Fig14()
	eng := NewEngine(fig.Sys, Modified, Options{})
	rec := NewTraceRecorder(fig.Sys, 0)
	eng.Observe(rec.Hook())
	res := Run(eng, RoundRobin(fig.Sys.N()), RunOptions{})
	if res.Outcome != Converged || rec.Len() == 0 {
		t.Fatalf("trace recorder saw nothing (outcome %v)", res.Outcome)
	}
	if s := Summary(fig.Sys, res.Final); !strings.Contains(s, "best") {
		t.Fatalf("summary = %q", s)
	}
}
