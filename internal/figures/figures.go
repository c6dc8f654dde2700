// Package figures constructs the router configurations of the paper's
// figures. The figures themselves were not part of the supplied text, so
// concrete IGP costs and MED values are derived from the prose
// walk-throughs of Sections 3 and 8; every ordering relation the prose
// asserts (which route beats which, at which router, in which knowledge
// state) is re-verified by this package's tests. See DESIGN.md for the
// substitution notes.
package figures

import (
	"repro/internal/bgp"
	"repro/internal/topology"
)

// Fig is a constructed figure: the system plus name lookups for tests and
// examples.
type Fig struct {
	Sys   *topology.System
	Nodes map[string]bgp.NodeID
	Paths map[string]bgp.PathID
}

// Entry is one bundled figure configuration together with the metadata the
// static-analysis passes and the table-driven tests need: which paper
// section discusses it and whether classic I-BGP can oscillate on it
// (persistently, transiently, or sustained by message timing).
type Entry struct {
	// Name is the short figure name accepted by -figure flags ("1a", ...).
	Name string
	// Title is a one-line description of the configuration.
	Title string
	// Section is the paper section that discusses the figure.
	Section string
	// Oscillates reports whether classic I-BGP can oscillate on this
	// configuration under some rule order and schedule. These are exactly
	// the configurations a sound oscillation-risk linter must flag.
	Oscillates bool
	// Build constructs the figure.
	Build func() *Fig
}

// All returns every bundled figure in figure order. The slice is freshly
// allocated; callers may reorder it.
func All() []Entry {
	return []Entry{
		{Name: "1a", Title: "persistent MED oscillation across two clusters", Section: "Section 3", Oscillates: true, Build: Fig1a},
		{Name: "1b", Title: "full mesh oscillating under the RFC 1771 rule order", Section: "Section 3", Oscillates: true, Build: Fig1b},
		{Name: "2", Title: "transient oscillation with two stable solutions", Section: "Section 3", Oscillates: true, Build: Fig2},
		{Name: "3", Title: "message-timing-dependent outcomes (Table 1)", Section: "Section 3", Oscillates: true, Build: Fig3},
		{Name: "12", Title: "believed vs. real route deflection", Section: "Section 7", Oscillates: false, Build: Fig12},
		{Name: "13", Title: "Walton counterexample: MED oscillation over four clusters", Section: "Section 8", Oscillates: true, Build: Fig13},
		{Name: "14", Title: "Dube-Scudder forwarding loop", Section: "Section 8", Oscillates: false, Build: Fig14},
	}
}

// Node returns the node named s, panicking on unknown names (figures are
// static data; a miss is a programming error).
func (f *Fig) Node(s string) bgp.NodeID {
	id, ok := f.Nodes[s]
	if !ok {
		panic("figures: unknown node " + s)
	}
	return id
}

// Path returns the exit path named s.
func (f *Fig) Path(s string) bgp.PathID {
	id, ok := f.Paths[s]
	if !ok {
		panic("figures: unknown path " + s)
	}
	return id
}

func mustBuild(b *topology.Builder, nodes map[string]bgp.NodeID, paths map[string]bgp.PathID) *Fig {
	sys, err := b.Build()
	if err != nil {
		panic("figures: " + err.Error())
	}
	return &Fig{Sys: sys, Nodes: nodes, Paths: paths}
}

// Fig1a is the persistent-oscillation example of Figure 1(a) (originally
// from McPherson et al.): two clusters — reflector A with clients a1, a2
// and reflector B with client b1 — and three exit paths:
//
//	r1 at a1 through AS2, MED 0
//	r2 at a2 through AS1, MED 1
//	r3 at b1 through AS1, MED 0
//
// IGP costs: A-a1 = 5, A-a2 = 4, A-B = 1, B-b1 = 10. The prose relations
// hold: A prefers r2 to r1 on metric; r3 MED-kills r2; A prefers r1 to r3
// on metric; B prefers r1 to r3 on metric. Classic I-BGP has no stable
// solution; the modified protocol converges (everyone on r1 except b1).
func Fig1a() *Fig {
	b := topology.NewBuilder()
	cA := b.NewCluster()
	cB := b.NewCluster()
	A := b.Reflector("A", cA)
	a1 := b.Client("a1", cA)
	a2 := b.Client("a2", cA)
	B := b.Reflector("B", cB)
	b1 := b.Client("b1", cB)
	b.Link(A, a1, 5).Link(A, a2, 4).Link(A, B, 1).Link(B, b1, 10)
	r1 := b.Exit(a1, topology.ExitSpec{NextAS: 2, MED: 0})
	r2 := b.Exit(a2, topology.ExitSpec{NextAS: 1, MED: 1})
	r3 := b.Exit(b1, topology.ExitSpec{NextAS: 1, MED: 0})
	return mustBuild(b,
		map[string]bgp.NodeID{"A": A, "a1": a1, "a2": a2, "B": B, "b1": b1},
		map[string]bgp.PathID{"r1": r1, "r2": r2, "r3": r3})
}

// Fig1b is the rule-ordering example of Figure 1(b): a two-router full
// mesh where router B holds its own E-BGP route. Under the paper's rule
// order (E-BGP preferred before IGP cost) B sticks to its own route and
// the system converges; under the RFC 1771 order (IGP cost first) the
// system oscillates persistently.
//
//	r1 at A through AS2, MED 0, exit cost 2
//	r2 at A through AS1, MED 1, exit cost 1
//	r3 at B through AS1, MED 0, exit cost 10
//
// IGP cost A-B = 1.
func Fig1b() *Fig {
	b, ids := topology.FullMesh("A", "B")
	A, B := ids[0], ids[1]
	b.Link(A, B, 1)
	r1 := b.Exit(A, topology.ExitSpec{NextAS: 2, MED: 0, ExitCost: 2})
	r2 := b.Exit(A, topology.ExitSpec{NextAS: 1, MED: 1, ExitCost: 1})
	r3 := b.Exit(B, topology.ExitSpec{NextAS: 1, MED: 0, ExitCost: 10})
	return mustBuild(b,
		map[string]bgp.NodeID{"A": A, "B": B},
		map[string]bgp.PathID{"r1": r1, "r2": r2, "r3": r3})
}

// Fig2 is the transient-oscillation example of Figure 2: two clusters
// (RR1 with client c1, RR2 with client c2) with "dotted" IGP links that
// carry no I-BGP session, giving each reflector a cheaper IGP path to the
// *other* cluster's exit point. Both exit paths go through the same
// neighbouring AS with equal MED 0, so MED never discriminates.
//
//	r1 at c1 through AS1, MED 0
//	r2 at c2 through AS1, MED 0
//
// IGP costs: RR1-c1 = 10, RR2-c2 = 10, RR1-RR2 = 10, and the dotted links
// RR1-c2 = 1, RR2-c1 = 1.
//
// Under classic I-BGP the synchronous schedule oscillates forever while
// two distinct stable solutions exist (both reflectors on r1, or both on
// r2). The modified protocol reaches the same configuration under every
// schedule.
func Fig2() *Fig {
	b := topology.NewBuilder()
	c0 := b.NewCluster()
	c1c := b.NewCluster()
	RR1 := b.Reflector("RR1", c0)
	c1 := b.Client("c1", c0)
	RR2 := b.Reflector("RR2", c1c)
	c2 := b.Client("c2", c1c)
	b.Link(RR1, c1, 10).Link(RR2, c2, 10).Link(RR1, RR2, 10)
	b.Link(RR1, c2, 1).Link(RR2, c1, 1) // dotted: IGP only, no session
	r1 := b.Exit(c1, topology.ExitSpec{NextAS: 1, MED: 0})
	r2 := b.Exit(c2, topology.ExitSpec{NextAS: 1, MED: 0})
	return mustBuild(b,
		map[string]bgp.NodeID{"RR1": RR1, "c1": c1, "RR2": RR2, "c2": c2},
		map[string]bgp.PathID{"r1": r1, "r2": r2})
}

// Fig3 is the message-delay example of Figure 3 / Table 1: routers A, B
// and C in a full I-BGP mesh whose sessions coincide with IGP links, with
// six external routes whose MED interplay leaves two stable solutions once
// route r1 is withdrawn. Which one is reached — and how much the system
// flaps on the way — depends purely on message timing, which the
// message-level simulator (package msgsim) scripts.
//
//	r1 at A through AS2, MED 0, exit cost 2   (injected then withdrawn)
//	r2 at A through AS1, MED 0, exit cost 9
//	r3 at B through AS2, MED 1, exit cost 5
//	r4 at B through AS3, MED 0, exit cost 6
//	r5 at C through AS2, MED 0, exit cost 6
//	r6 at C through AS3, MED 1, exit cost 5
//
// IGP costs: A-B = B-C = A-C = 10. The two stable solutions (with r1
// absent) are {B:r3, C:r6} and {B:r4, C:r5}; a visible r1 MED-kills r3 and
// steers the system toward the second.
func Fig3() *Fig {
	b, ids := topology.FullMesh("A", "B", "C")
	A, B, C := ids[0], ids[1], ids[2]
	b.Link(A, B, 10).Link(B, C, 10).Link(A, C, 10)
	r1 := b.Exit(A, topology.ExitSpec{NextAS: 2, MED: 0, ExitCost: 2})
	r2 := b.Exit(A, topology.ExitSpec{NextAS: 1, MED: 0, ExitCost: 9})
	r3 := b.Exit(B, topology.ExitSpec{NextAS: 2, MED: 1, ExitCost: 5})
	r4 := b.Exit(B, topology.ExitSpec{NextAS: 3, MED: 0, ExitCost: 6})
	r5 := b.Exit(C, topology.ExitSpec{NextAS: 2, MED: 0, ExitCost: 6})
	r6 := b.Exit(C, topology.ExitSpec{NextAS: 3, MED: 1, ExitCost: 5})
	return mustBuild(b,
		map[string]bgp.NodeID{"A": A, "B": B, "C": C},
		map[string]bgp.PathID{"r1": r1, "r2": r2, "r3": r3, "r4": r4, "r5": r5, "r6": r6})
}

// Fig12 is the believed-vs-real route example of Figure 12: router u
// thinks its packets leave via x's exit path, but the intermediate router
// w prefers its own E-BGP route (E-BGP beats I-BGP regardless of cost) and
// deflects them — legally, per Lemma 7.6.
//
//	px at x through AS1, MED 0, exit cost 0
//	pw at w through AS2, MED 0, exit cost 5
//
// Full mesh u, w, x; IGP chain u-w = 1, w-x = 1.
func Fig12() *Fig {
	b, ids := topology.FullMesh("u", "w", "x")
	u, w, x := ids[0], ids[1], ids[2]
	b.Link(u, w, 1).Link(w, x, 1)
	px := b.Exit(x, topology.ExitSpec{NextAS: 1, MED: 0})
	pw := b.Exit(w, topology.ExitSpec{NextAS: 2, MED: 0, ExitCost: 5})
	return mustBuild(b,
		map[string]bgp.NodeID{"u": u, "w": w, "x": x},
		map[string]bgp.PathID{"px": px, "pw": pw})
}

// Fig13 is a Walton-et-al. counterexample standing in for the paper's
// Figure 13 (whose exact costs were not in the supplied text): a
// four-cluster configuration with a MED-induced persistent oscillation
// that survives the Walton per-neighbouring-AS advertisement but not the
// paper's modified protocol.
//
// The instance was found by the Figure 13 hunt (ibgpcensus -job fig13,
// crossed family {Clusters: 4, TwoClientOn: 0, ASes: 2, MaxMED: 2,
// DottedProb: 0.5}, seed 8905; reproduce with -start 8905 -seeds 1
// -max-states 200000) and then *exhaustively* verified: the reachable configuration graphs of both classic I-BGP and
// Walton I-BGP contain no fixed point, the modified protocol converges,
// and equalising all MEDs makes both broken protocols converge — so the
// oscillation is MED-induced, matching the paper's claim. Like the
// paper's figure, it has four clusters with clients on the first three...
// plus a fourth client here; RR1 carries two clients whose same-AS routes
// interact through MED and IGP metric.
//
// All five exit paths go through the same neighbouring AS; four carry
// MED 1 and C4's carries MED 2 (so it is MED-eliminated whenever any
// other route is visible — the visibility toggling that drives the
// oscillation).
func Fig13() *Fig {
	b := topology.NewBuilder()
	k1 := b.NewCluster()
	k2 := b.NewCluster()
	k3 := b.NewCluster()
	k4 := b.NewCluster()
	RR1 := b.Reflector("RR1", k1)
	C10 := b.Client("C1_0", k1)
	C11 := b.Client("C1_1", k1)
	RR2 := b.Reflector("RR2", k2)
	C20 := b.Client("C2_0", k2)
	RR3 := b.Reflector("RR3", k3)
	C30 := b.Client("C3_0", k3)
	RR4 := b.Reflector("RR4", k4)
	C40 := b.Client("C4_0", k4)

	// Reflector backbone.
	b.Link(RR1, RR2, 10).Link(RR2, RR3, 2).Link(RR3, RR4, 1).Link(RR1, RR4, 7)
	// Own-cluster client links.
	b.Link(RR1, C10, 9).Link(RR1, C11, 14).Link(RR2, C20, 22).Link(RR3, C30, 7).Link(RR4, C40, 23)
	// Dotted links: clients physically near foreign reflectors.
	b.Link(C10, RR2, 5).Link(C10, RR3, 10)
	b.Link(C11, RR3, 1)
	b.Link(C20, RR3, 5)
	b.Link(C30, RR4, 4).Link(RR1, C30, 8)
	b.Link(C40, RR2, 2).Link(C40, RR3, 5).Link(RR1, C40, 5)

	r1 := b.Exit(C10, topology.ExitSpec{NextAS: 1, MED: 1})
	r2 := b.Exit(C11, topology.ExitSpec{NextAS: 1, MED: 1})
	r3 := b.Exit(C20, topology.ExitSpec{NextAS: 1, MED: 1})
	r4 := b.Exit(C30, topology.ExitSpec{NextAS: 1, MED: 1})
	r5 := b.Exit(C40, topology.ExitSpec{NextAS: 1, MED: 2})
	return mustBuild(b,
		map[string]bgp.NodeID{
			"RR1": RR1, "C1_0": C10, "C1_1": C11,
			"RR2": RR2, "C2_0": C20,
			"RR3": RR3, "C3_0": C30,
			"RR4": RR4, "C4_0": C40,
		},
		map[string]bgp.PathID{"r1": r1, "r2": r2, "r3": r3, "r4": r4, "r5": r5})
}

// Fig14 is the routing-loop configuration of Figure 14 (first described by
// Dube and Scudder): clusters {RR1, c1} and {RR2, c2} whose I-BGP sessions
// do not follow the physical chain RR1 - c2 - c1 - RR2 (each physical link
// costs 5). Exit paths r1 at RR1 and r2 at RR2 share LOCAL-PREF, AS-PATH
// length, neighbouring AS and MED.
//
// Under classic I-BGP (and under Walton et al.) each reflector keeps its
// own E-BGP route and tells its client only about that route; c1 then
// forwards toward RR1 through c2 while c2 forwards toward RR2 through c1 —
// a forwarding loop. The modified protocol advertises both routes, the
// clients pick the nearer exits, and the loop disappears.
func Fig14() *Fig {
	b := topology.NewBuilder()
	k1 := b.NewCluster()
	k2 := b.NewCluster()
	RR1 := b.Reflector("RR1", k1)
	c1 := b.Client("c1", k1)
	RR2 := b.Reflector("RR2", k2)
	c2 := b.Client("c2", k2)
	b.Link(RR1, c2, 5).Link(c2, c1, 5).Link(c1, RR2, 5)
	r1 := b.Exit(RR1, topology.ExitSpec{NextAS: 1, MED: 0})
	r2 := b.Exit(RR2, topology.ExitSpec{NextAS: 1, MED: 0})
	return mustBuild(b,
		map[string]bgp.NodeID{"RR1": RR1, "c1": c1, "RR2": RR2, "c2": c2},
		map[string]bgp.PathID{"r1": r1, "r2": r2})
}
