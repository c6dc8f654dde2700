package protocol

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bgp"
	"repro/internal/selection"
	"repro/internal/topology"
)

// confedFig1a loads the shipped confederation analogue of Figure 1(a),
// the RFC 3345 style configuration: sub-AS 0 holds border router A1 and
// exit owners a1 (r1: AS2, MED 0) and a2 (r2: AS1, MED 1); sub-AS 1 holds
// border router B1 and exit owner b1 (r3: AS1, MED 0). A1-B1 is the
// confed-BGP session; IGP costs mirror Figure 1(a). edit, when non-nil,
// adjusts the spec before it is built.
func confedFig1a(t *testing.T, edit func(*topology.Spec)) *topology.System {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "examples", "topologies", "confed-fig1a.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := topology.ParseSpec(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(spec)
	}
	sys, err := topology.BuildSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func node(t *testing.T, sys *topology.System, name string) bgp.NodeID {
	t.Helper()
	u, ok := sys.NodeByName(name)
	if !ok {
		t.Fatalf("no router %q", name)
	}
	return u
}

func TestConfedPersistentOscillation(t *testing.T) {
	// The headline: the Figure 1(a) dynamics reproduce verbatim in a
	// confederation — the field notice reported both deployments.
	sys := confedFig1a(t, nil)
	res := Run(New(sys, Classic, selection.Options{}), RoundRobin(sys.N()), RunOptions{MaxSteps: 5000})
	if res.Outcome != Cycled {
		t.Fatalf("outcome = %v, want cycled", res.Outcome)
	}
}

func TestConfedSurvivorsConverge(t *testing.T) {
	// The paper's fix, transplanted: advertising MED survivors settles the
	// confederation too, and deterministically.
	sys := confedFig1a(t, nil)
	res := Run(New(sys, Modified, selection.Options{}), RoundRobin(sys.N()), RunOptions{MaxSteps: 5000})
	if res.Outcome != Converged {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// Mirror of the reflection outcome: A-side routers on r1, b1 keeps r3.
	r1, r3 := sys.MyExits(node(t, sys, "a1"))[0], sys.MyExits(node(t, sys, "b1"))[0]
	for _, name := range []string{"A1", "a1", "B1"} {
		if got := res.Final.Best[node(t, sys, name)]; got != r1 {
			t.Fatalf("%s best = p%d, want r1", name, got)
		}
	}
	if got := res.Final.Best[node(t, sys, "b1")]; got != r3 {
		t.Fatalf("b1 best = p%d, want its own E-BGP route", got)
	}
	// Schedule independence.
	for seed := int64(1); seed <= 6; seed++ {
		res2 := Run(New(sys, Modified, selection.Options{}), PermutationRounds(sys.N(), seed), RunOptions{MaxSteps: 5000})
		if res2.Outcome != Converged || !res2.Final.BestEqual(res.Final) {
			t.Fatalf("seed %d: %v %v, want converged %v", seed, res2.Outcome, res2.Final, res.Final)
		}
	}
}

func TestConfedMEDInduced(t *testing.T) {
	// Equalising the MEDs removes the oscillation.
	eq := confedFig1a(t, func(s *topology.Spec) { s.Exits[1].MED = 0 })
	if res := Run(New(eq, Classic, selection.Options{}), RoundRobin(eq.N()), RunOptions{MaxSteps: 5000}); res.Outcome != Converged {
		t.Fatalf("equal-MED confederation did not converge: %v", res.Outcome)
	}
	// always-compare-med also settles the original.
	orig := confedFig1a(t, nil)
	opts := selection.Options{MED: selection.AlwaysCompare}
	if res := Run(New(orig, Classic, opts), RoundRobin(orig.N()), RunOptions{MaxSteps: 5000}); res.Outcome != Converged {
		t.Fatalf("always-compare-med did not converge: %v", res.Outcome)
	}
}

func TestConfedLoopPrevention(t *testing.T) {
	// Three sub-ASes in a triangle: a route crossing X -> Y must not be
	// re-imported into X via Z. Transfers never passes a path over a
	// confed session toward its exit sub-AS, nor sideways between the two
	// sub-ASes one hop from it.
	b := topology.NewBuilder()
	X, Y, Z := b.NewSubAS(), b.NewSubAS(), b.NewSubAS()
	x, y, z := b.Member("x", X), b.Member("y", Y), b.Member("z", Z)
	b.Link(x, y, 1).Link(y, z, 1).Link(z, x, 1)
	b.ConfedSession(x, y).ConfedSession(y, z).ConfedSession(z, x)
	id := b.Exit(x, topology.ExitSpec{NextAS: 1})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Exit(id)
	for _, vu := range [][2]bgp.NodeID{{y, x}, {z, x}, {y, z}, {z, y}} {
		if sys.Transfers(vu[0], vu[1], p) {
			t.Fatalf("Transfers(%s, %s) passes a looping path", sys.Name(vu[0]), sys.Name(vu[1]))
		}
	}
	e := New(sys, Classic, selection.Options{})
	res := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 2000})
	if res.Outcome != Converged {
		t.Fatalf("triangle did not converge: %v", res.Outcome)
	}
	for u, best := range res.Final.Best {
		if best != id {
			t.Fatalf("node %d best = p%d", u, best)
		}
	}
	// The copies at y and z come straight from x, the exit point.
	for _, u := range []bgp.NodeID{y, z} {
		if r, _ := e.BestRoute(u); r.LearnedFrom != sys.BGPID(x) {
			t.Fatalf("%s learned p from BGP id %d, want x's", sys.Name(u), r.LearnedFrom)
		}
	}
}

func TestConfedWithdrawFlushes(t *testing.T) {
	sys := confedFig1a(t, nil)
	r3 := sys.MyExits(node(t, sys, "b1"))[0]
	e := New(sys, Modified, selection.Options{})
	Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 5000})
	e.Withdraw(r3)
	res := Run(e, RoundRobin(sys.N()), RunOptions{MaxSteps: 5000})
	if res.Outcome != Converged {
		t.Fatalf("outcome after withdrawal = %v", res.Outcome)
	}
	if !e.Valid() {
		t.Fatal("a router retains the withdrawn r3")
	}
	if res.Final.Best[node(t, sys, "b1")] == r3 {
		t.Fatal("b1 still uses the withdrawn route")
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		Classic: "classic", Walton: "walton", Modified: "modified", Adaptive: "adaptive", Policy(9): "Policy(9)",
	} {
		if p.String() != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
}
