// Confederation: the Cisco field notice reported the endless-convergence
// problem for BGP confederations as well as route reflection. This example
// rebuilds Figure 1(a) as a two-member confederation, watches classic
// confed-BGP oscillate, and applies the paper's survivor-advertisement
// idea (an extension — the paper's proof covers reflection only) to settle
// it. The adaptive variant from Section 10's future work is shown on the
// route-reflection side for comparison.
package main

import (
	"fmt"
	"log"

	ibgp "repro"
)

func main() {
	// Sub-AS X: border router A1 plus exit owners a1 (r1: AS2, MED 0) and
	// a2 (r2: AS1, MED 1). Sub-AS Y: border router B1 plus b1 (r3: AS1,
	// MED 0). IGP costs mirror Figure 1(a).
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
	b.Exit(a1, ibgp.ExitSpec{NextAS: 2})         // r1
	b.Exit(a2, ibgp.ExitSpec{NextAS: 1, MED: 1}) // r2: MED 1, same provider AS as r3
	b.Exit(b1, ibgp.ExitSpec{NextAS: 1})         // r3: MED 0
	sys, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Figure 1(a) as a two-member confederation ===")
	fmt.Println()

	// The activation model runs confederations unchanged: Transfers adds
	// the confed-session cases, and Modified is the survivor advertisement.
	eng := ibgp.NewEngine(sys, ibgp.Classic, ibgp.Options{})
	res := ibgp.Run(eng, ibgp.RoundRobin(sys.N()), ibgp.RunOptions{MaxSteps: 5000})
	fmt.Printf("classic confed-BGP:      %v  (the border routers trade r1 and r3 forever)\n", res.Outcome)

	eng2 := ibgp.NewEngine(sys, ibgp.Modified, ibgp.Options{})
	res2 := ibgp.Run(eng2, ibgp.RoundRobin(sys.N()), ibgp.RunOptions{MaxSteps: 5000})
	fmt.Printf("survivor advertisement:  %v\n", res2.Outcome)
	for u := 0; u < sys.N(); u++ {
		best := "(none)"
		if id := res2.Final.Best[u]; id != ibgp.None {
			best = fmt.Sprintf("r%d", id+1)
		}
		fmt.Printf("  %-3s (sub-AS %d) settles on %s\n", sys.Name(ibgp.NodeID(u)), sys.SubAS(ibgp.NodeID(u)), best)
	}
	fmt.Println()

	// For comparison: the adaptive (triggered) variant on the original
	// route-reflection Figure 1(a) — only the oscillating router upgrades.
	fig := ibgp.Fig1a()
	ae := ibgp.NewEngine(fig.Sys, ibgp.Adaptive, ibgp.Options{})
	ares := ibgp.Run(ae, ibgp.RoundRobin(fig.Sys.N()), ibgp.RunOptions{MaxSteps: 5000})
	upgraded := 0
	for u := 0; u < fig.Sys.N(); u++ {
		if ae.Upgraded(ibgp.NodeID(u)) {
			upgraded++
		}
	}
	fmt.Printf("adaptive on the reflection Figure 1(a): %v with %d/%d routers upgraded\n",
		ares.Outcome, upgraded, fig.Sys.N())
	fmt.Println("(the Section 10 idea: pay the extra-routes cost only where oscillation is detected)")
}
