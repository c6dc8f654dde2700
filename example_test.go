package ibgp_test

import (
	"fmt"

	ibgp "repro"
)

// The headline result on Figure 1(a): classic I-BGP provably oscillates,
// the paper's modified protocol converges.
func ExampleNewEngine() {
	fig := ibgp.Fig1a()

	classic := ibgp.NewEngine(fig.Sys, ibgp.Classic, ibgp.Options{})
	res := ibgp.Run(classic, ibgp.RoundRobin(fig.Sys.N()), ibgp.RunOptions{})
	fmt.Println("classic: ", res.Outcome)

	modified := ibgp.NewEngine(fig.Sys, ibgp.Modified, ibgp.Options{})
	res = ibgp.Run(modified, ibgp.RoundRobin(fig.Sys.N()), ibgp.RunOptions{})
	fmt.Println("modified:", res.Outcome)
	// Output:
	// classic:  cycled
	// modified: converged
}

// Figure 2 has exactly two stable solutions under classic I-BGP — which
// one the AS lands on depends on timing.
func ExampleStableSolutions() {
	sols := ibgp.StableSolutions(ibgp.Fig2().Sys, ibgp.Options{})
	fmt.Println(len(sols), "stable solutions")
	// Output:
	// 2 stable solutions
}

// Analyze decides the paper's STABLE I-BGP WITH ROUTE REFLECTION question
// exhaustively for small systems.
func ExampleAnalyze() {
	a := ibgp.Analyze(ibgp.Fig1a().Sys, ibgp.Classic, ibgp.Options{}, true)
	fmt.Println("stabilizable:", a.Stabilizable())
	// Output:
	// stabilizable: false
}

// The Theorem 5.1 reduction: a satisfiable formula yields a stable
// routing; decoding the routing recovers a satisfying assignment.
func ExampleReduceSAT() {
	f := &ibgp.Formula{NumVars: 2, Clauses: []ibgp.SATClause{{1, 2}, {-1, 2}}}
	red, err := ibgp.ReduceSAT(f)
	if err != nil {
		panic(err)
	}
	assign, _ := ibgp.SolveSAT(f)
	eng, res := red.StabilizeWithAssignment(assign, 20000)
	fmt.Println("outcome:", res.Outcome, "stable:", eng.Stable())
	decoded, _ := red.AssignmentFromSnapshot(res.Final)
	fmt.Println("decoded satisfies formula:", f.Eval(decoded))
	// Output:
	// outcome: converged stable: true
	// decoded satisfies formula: true
}

// The message-level simulator with scripted delays: Figure 2's outcome is
// decided purely by which cluster's announcement travels faster.
func ExampleNewSim() {
	fig := ibgp.Fig2()
	slowC2 := func(from, to ibgp.NodeID, seq int) int64 {
		if from == fig.Node("c2") {
			return 100
		}
		return 1
	}
	sim := ibgp.NewSim(fig.Sys, ibgp.Classic, ibgp.Options{}, slowC2)
	sim.InjectAll()
	res := sim.Run(0)
	fmt.Println("quiesced:", res.Quiesced)
	fmt.Println("RR1 best:", res.Best[fig.Node("RR1")]) // r1 has PathID 0
	// Output:
	// quiesced: true
	// RR1 best: 0
}

// Figure 14: classic I-BGP converges into a forwarding loop between the
// two clients; the modified protocol is loop-free.
func ExampleNewForwardingPlane() {
	fig := ibgp.Fig14()
	for _, policy := range []ibgp.Policy{ibgp.Classic, ibgp.Modified} {
		eng := ibgp.NewEngine(fig.Sys, policy, ibgp.Options{})
		res := ibgp.Run(eng, ibgp.RoundRobin(fig.Sys.N()), ibgp.RunOptions{})
		plane := ibgp.NewForwardingPlane(fig.Sys, res.Final)
		fmt.Printf("%v loop-free: %v\n", policy, plane.LoopFree())
	}
	// Output:
	// classic loop-free: false
	// modified loop-free: true
}

// A confederation on the same engine: the same oscillation, the same cure.
func ExampleNewEngine_confederation() {
	b := ibgp.NewBuilder()
	X := b.NewSubAS()
	Y := b.NewSubAS()
	A1 := b.Member("A1", X)
	a1 := b.Member("a1", X)
	a2 := b.Member("a2", X)
	B1 := b.Member("B1", Y)
	b1 := b.Member("b1", Y)
	b.Link(A1, a1, 5).Link(A1, a2, 4).Link(a1, a2, 8).Link(A1, B1, 1).Link(B1, b1, 10)
	b.ConfedSession(A1, B1)
	b.Exit(a1, ibgp.ExitSpec{NextAS: 2})
	b.Exit(a2, ibgp.ExitSpec{NextAS: 1, MED: 1})
	b.Exit(b1, ibgp.ExitSpec{NextAS: 1})
	sys, err := b.Build()
	if err != nil {
		panic(err)
	}
	for _, run := range []struct {
		label  string
		policy ibgp.Policy
	}{{"classic", ibgp.Classic}, {"survivors", ibgp.Modified}} {
		res := ibgp.Run(ibgp.NewEngine(sys, run.policy, ibgp.Options{}),
			ibgp.RoundRobin(sys.N()), ibgp.RunOptions{MaxSteps: 5000})
		fmt.Printf("%s: %v\n", run.label, res.Outcome)
	}
	// Output:
	// classic: cycled
	// survivors: converged
}
