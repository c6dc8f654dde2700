package rib

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// newRIB returns an empty RIB for router id with its own peer table and
// scratch.
func newRIB(sys *topology.System, policy protocol.Policy, id bgp.NodeID) *RIB {
	return NewShared(sys, policy, selection.Options{}, id, nil, nil)
}

func fig14RIB(t *testing.T, name string, policy protocol.Policy) (*figures.Fig, *RIB) {
	t.Helper()
	f := figures.Fig14()
	return f, newRIB(f.Sys, policy, f.Node(name))
}

// diff is the UPDATE owed to one peer.
type diff struct{ ann, wd []bgp.PathID }

// refresh runs one round the way the router core does — RecomputeBest,
// PrepareFlush, then DiffInto and ApplyDiff for every peer — and returns
// whether the best route moved plus the committed non-empty diffs.
func refresh(r *RIB) (bool, map[bgp.NodeID]diff) {
	changed := r.RecomputeBest()
	r.PrepareFlush()
	out := map[bgp.NodeID]diff{}
	for _, w := range r.pg.Peers() {
		ann, wd := r.DiffInto(w, nil, nil)
		if len(ann) > 0 || len(wd) > 0 {
			r.ApplyDiff(w, ann, wd)
			out[w] = diff{ann, wd}
		}
	}
	return changed, out
}

// announces reports whether the next round would announce path id to
// peer w, without committing anything. On a RIB that has never committed
// a diff toward w, the announcements are exactly the policy's advertise
// set filtered by the announcement rules.
func announces(r *RIB, id bgp.PathID, w bgp.NodeID) bool {
	r.RecomputeBest()
	r.PrepareFlush()
	ann, _ := r.DiffInto(w, nil, nil)
	for _, a := range ann {
		if a == id {
			return true
		}
	}
	return false
}

func TestEmptyRIB(t *testing.T) {
	_, r := fig14RIB(t, "RR1", protocol.Classic)
	if r.Best() != bgp.None {
		t.Fatal("empty RIB has a best route")
	}
	if !r.Possible().Empty() {
		t.Fatal("empty RIB has paths")
	}
	if changed, diffs := refresh(r); changed || len(diffs) != 0 {
		t.Fatalf("empty RIB refresh: changed=%v diffs=%v", changed, diffs)
	}
	if r.Best() != bgp.None {
		t.Fatal("empty RIB selected a best route")
	}
}

func TestInjectAndRefresh(t *testing.T) {
	f, r := fig14RIB(t, "RR1", protocol.Classic)
	r.Inject(f.Path("r1"))
	changed, diffs := refresh(r)
	if !changed {
		t.Fatal("injection did not flap the best route")
	}
	if r.Best() != f.Path("r1") {
		t.Fatalf("best = %d", r.Best())
	}
	// RR1's peers are RR2 and c1; its own E-BGP route goes to both.
	if len(diffs) != 2 {
		t.Fatalf("updates to %d peers, want 2: %+v", len(diffs), diffs)
	}
	for w, d := range diffs {
		if len(d.ann) != 1 || d.ann[0] != f.Path("r1") || len(d.wd) != 0 {
			t.Fatalf("update to %d = %+v", w, d)
		}
	}
	// Refresh is idempotent: no further diffs.
	changed, diffs = refresh(r)
	if changed || len(diffs) != 0 {
		t.Fatalf("second refresh: changed=%v diffs=%v", changed, diffs)
	}
}

func TestApplyUpdateAndWithdraw(t *testing.T) {
	f, r := fig14RIB(t, "RR1", protocol.Classic)
	RR2, c1 := f.Node("RR2"), f.Node("c1")
	r.Inject(f.Path("r1"))
	refresh(r)
	r.Learn(RR2, f.Path("r2"))
	if changed, _ := refresh(r); changed {
		t.Fatal("E-BGP route must stay best over the I-BGP one")
	}
	if !r.adjIn[r.pg.Index(RR2)].Contains(f.Path("r2")) {
		t.Fatal("adj-in not recorded")
	}
	// Withdraw our own; the peer's takes over.
	r.WithdrawExternal(f.Path("r1"))
	changed, diffs := refresh(r)
	if !changed || r.Best() != f.Path("r2") {
		t.Fatalf("best = %d after withdrawal", r.Best())
	}
	// r2 was learned from a non-client peer: only the client c1 hears
	// about it; RR2 gets a plain withdrawal of r1.
	if d := diffs[RR2]; len(d.ann) != 0 || len(d.wd) != 1 || d.wd[0] != f.Path("r1") {
		t.Fatalf("update to RR2 = %+v", d)
	}
	if d := diffs[c1]; len(d.ann) != 1 || d.ann[0] != f.Path("r2") {
		t.Fatalf("update to c1 = %+v", d)
	}
}

func TestApplyUpdateFromStranger(t *testing.T) {
	f, r := fig14RIB(t, "RR1", protocol.Classic)
	// c2 is not RR1's peer; its update must be dropped.
	r.Learn(f.Node("c2"), f.Path("r2"))
	if !r.Possible().Empty() {
		t.Fatal("update from non-peer accepted")
	}
}

func TestMayAnnounceRules(t *testing.T) {
	f := figures.Fig14()
	RR1, RR2, c1 := f.Node("RR1"), f.Node("RR2"), f.Node("c1")
	r1, r2 := f.Path("r1"), f.Path("r2")

	// Own E-BGP route: to everyone.
	own := newRIB(f.Sys, protocol.Classic, RR1)
	own.Inject(r1)
	if !announces(own, r1, RR2) || !announces(own, r1, c1) {
		t.Fatal("own route must go to all peers")
	}

	// Learned from non-client RR2: to own clients only.
	mesh := newRIB(f.Sys, protocol.Classic, RR1)
	mesh.Learn(RR2, r2)
	if announces(mesh, r2, RR2) {
		t.Fatal("non-client route echoed to a reflector")
	}
	if !announces(mesh, r2, c1) {
		t.Fatal("non-client route must reach the client")
	}

	// A client never forwards learned routes.
	cl := newRIB(f.Sys, protocol.Classic, c1)
	cl.Learn(RR1, r1)
	if announces(cl, r1, RR1) {
		t.Fatal("client forwarded a learned route")
	}
}

func TestClientRouteReflection(t *testing.T) {
	// A reflector reflects a client's route to everyone except that client.
	b := topology.NewBuilder()
	k := b.NewCluster()
	k2 := b.NewCluster()
	rr := b.Reflector("rr", k)
	ca := b.Client("ca", k)
	cb := b.Client("cb", k)
	rr2 := b.Reflector("rr2", k2)
	b.Link(rr, ca, 1).Link(rr, cb, 1).Link(rr, rr2, 1)
	p := b.Exit(ca, topology.ExitSpec{NextAS: 1})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := newRIB(sys, protocol.Classic, rr)
	r.Learn(ca, p)
	if announces(r, p, ca) {
		t.Fatal("client route echoed to originator")
	}
	if !announces(r, p, cb) || !announces(r, p, rr2) {
		t.Fatal("client route must be reflected to other peers")
	}
}

func TestDualInstanceKeepsClientClassification(t *testing.T) {
	// The same path arrives from both a mesh peer and a client — two route
	// instances. The announcement rules apply per instance, so the client
	// copy keeps licensing reflection everywhere even though the mesh peer
	// sorts first. (Classifying by the first holder instead livelocks a
	// reflector pair at scale: each reclassifies the path as mesh-learned
	// when the other's reflection arrives, withdraws it from the mesh, loses
	// the mesh copy, and flips back.)
	b := topology.NewBuilder()
	k := b.NewCluster()
	k2 := b.NewCluster()
	rr := b.Reflector("rr", k)
	rr2 := b.Reflector("rr2", k2) // lower node id than the client
	ca := b.Client("ca", k)
	cb := b.Client("cb", k)
	b.Link(rr, rr2, 1).Link(rr, ca, 1).Link(rr, cb, 1)
	p := b.Exit(ca, topology.ExitSpec{NextAS: 1})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := newRIB(sys, protocol.Classic, rr)
	r.Learn(ca, p)
	r.Learn(rr2, p)
	if !announces(r, p, rr2) {
		t.Fatal("client-learned route withdrawn from the mesh when a redundant mesh copy arrived")
	}
	if announces(r, p, ca) {
		t.Fatal("client route echoed to its originator")
	}
	if !announces(r, p, cb) {
		t.Fatal("client route must reach the sibling client")
	}
	// The mesh copy alone reverts to non-client rules: downward only.
	r.Unlearn(ca, p)
	if announces(r, p, rr2) {
		t.Fatal("mesh-only route echoed to a reflector")
	}
	if !announces(r, p, cb) {
		t.Fatal("mesh-only route must still flow downward")
	}
}

func TestWaltonPolicyAdvertisesPerAS(t *testing.T) {
	// Two same-cluster clients with routes through different ASes: the
	// Walton reflector advertises both, classic only the best.
	b := topology.NewBuilder()
	k := b.NewCluster()
	k2 := b.NewCluster()
	rr := b.Reflector("rr", k)
	ca := b.Client("ca", k)
	cb := b.Client("cb", k)
	rr2 := b.Reflector("rr2", k2)
	b.Link(rr, ca, 1).Link(rr, cb, 2).Link(rr, rr2, 1)
	pa := b.Exit(ca, topology.ExitSpec{NextAS: 1})
	pb := b.Exit(cb, topology.ExitSpec{NextAS: 2})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy protocol.Policy
		wantB  bool
	}{{protocol.Classic, false}, {protocol.Walton, true}, {protocol.Modified, true}} {
		r := newRIB(sys, tc.policy, rr)
		r.Learn(ca, pa)
		r.Learn(cb, pb)
		_, diffs := refresh(r)
		hasA, hasB := false, false
		for _, id := range diffs[rr2].ann {
			if id == pa {
				hasA = true
			}
			if id == pb {
				hasB = true
			}
		}
		if !hasA {
			t.Fatalf("%v: best route pa not announced", tc.policy)
		}
		if hasB != tc.wantB {
			t.Fatalf("%v: pb announced=%v, want %v", tc.policy, hasB, tc.wantB)
		}
	}
}

func TestLearnedFromPrefersLowestPeerID(t *testing.T) {
	// When two peers advertise the same path, the route the decision
	// process compares is attributed to the smaller BGP identifier; with a
	// TieBreak the attribution is fixed.
	f := figures.Fig2()
	RR1, RR2, c1 := f.Node("RR1"), f.Node("RR2"), f.Node("c1")
	r := newRIB(f.Sys, protocol.Classic, RR1)
	r.Learn(c1, f.Path("r1"))
	r.Learn(RR2, f.Path("r1"))
	if !r.RecomputeBest() || r.Best() != f.Path("r1") {
		t.Fatalf("best = %d", r.Best())
	}
	want := min(f.Sys.BGPID(c1), f.Sys.BGPID(RR2))
	if len(r.scr.cands) != 1 || r.scr.cands[0].LearnedFrom != want {
		t.Fatalf("candidates %+v, want one attributed to BGP ID %d", r.scr.cands, want)
	}
	p := f.Sys.Exit(f.Path("r1"))
	p.TieBreak = want + 7
	if got := r.learnedFrom(p); got != want+7 {
		t.Fatalf("learnedFrom with TieBreak %d = %d", p.TieBreak, got)
	}
}
