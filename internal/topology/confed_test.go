package topology

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bgp"
)

// loadConfedFig1a loads the shipped Figure 1(a) confederation: sub-AS 0
// holds border router A1 and exit owners a1, a2; sub-AS 1 holds border
// router B1 and exit owner b1; A1-B1 is the confed-BGP session.
func loadConfedFig1a(t *testing.T) *System {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "examples", "topologies", "confed-fig1a.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mustNode(t *testing.T, sys *System, name string) bgp.NodeID {
	t.Helper()
	u, ok := sys.NodeByName(name)
	if !ok {
		t.Fatalf("no router %q", name)
	}
	return u
}

func TestBuilderValidation(t *testing.T) {
	reject := func(name string, build func(b *Builder)) {
		t.Helper()
		b := NewBuilder()
		build(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	reject("empty confederation", func(b *Builder) { b.NewSubAS() })
	reject("intra-sub-AS confed session", func(b *Builder) {
		s := b.NewSubAS()
		u, v := b.Member("u", s), b.Member("v", s)
		b.Link(u, v, 1).ConfedSession(u, v)
	})
	reject("duplicate name", func(b *Builder) {
		s := b.NewSubAS()
		u := b.Member("u", s)
		b.Member("u", s)
		b.Link(u, u+1, 1)
	})
	reject("unknown sub-AS", func(b *Builder) { b.Member("u", 7) })
	reject("client in a confederation", func(b *Builder) {
		s := b.NewSubAS()
		u := b.Member("u", s)
		c := b.Client("c", b.cluster[u])
		b.Link(u, c, 1)
	})
	reject("sub-cluster in a confederation", func(b *Builder) {
		s := b.NewSubAS()
		u := b.Member("u", s)
		r := b.Reflector("r", b.SubCluster(b.cluster[u]))
		b.Link(u, r, 1)
	})
	reject("confed session without sub-ASes", func(b *Builder) {
		k0, k1 := b.NewCluster(), b.NewCluster()
		u, v := b.Reflector("u", k0), b.Reflector("v", k1)
		b.Link(u, v, 1).ConfedSession(u, v)
	})
}

func TestSystemShape(t *testing.T) {
	sys := loadConfedFig1a(t)
	if sys.NumSubASes() != 2 || sys.N() != 5 || !sys.HasConfedSessions() {
		t.Fatalf("shape: %d sub-ASes, %d routers", sys.NumSubASes(), sys.N())
	}
	A1, a1, a2 := mustNode(t, sys, "A1"), mustNode(t, sys, "a1"), mustNode(t, sys, "a2")
	B1 := mustNode(t, sys, "B1")
	for _, pair := range [][2]bgp.NodeID{{A1, a1}, {A1, a2}, {a1, a2}} {
		if !sys.HasSession(pair[0], pair[1]) || sys.IsConfedSession(pair[0], pair[1]) {
			t.Fatalf("missing internal session %s-%s", sys.Name(pair[0]), sys.Name(pair[1]))
		}
	}
	if !sys.IsConfedSession(A1, B1) || !sys.HasSession(A1, B1) {
		t.Fatal("missing confed session")
	}
	// Every member is the client-less reflector of its own cluster, and
	// the reflector mesh stops at the sub-AS boundary.
	for u := 0; u < sys.N(); u++ {
		id := bgp.NodeID(u)
		if sys.Role(id) != Reflector || len(sys.ClusterMembers(sys.Cluster(id))) != 1 {
			t.Fatalf("%s is not a client-less reflector", sys.Name(id))
		}
	}
	for _, p := range sys.Peers(a1) {
		if sys.SubAS(p) != sys.SubAS(a1) {
			t.Fatalf("a1 peers across the border with %s", sys.Name(p))
		}
	}
	if fig := loadSpecJSON(t, validSpecJSON); fig.SubAS(0) != -1 || fig.NumSubASes() != 0 || fig.HasConfedSessions() {
		t.Fatal("route-reflection system reports confederation state")
	}
}

func loadSpecJSON(t *testing.T, js string) *System {
	t.Helper()
	sys, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestConfedJSONRoundTrip(t *testing.T) {
	sys := loadConfedFig1a(t)
	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"clusters"`) {
		t.Fatalf("confederation saved with clusters:\n%s", buf.String())
	}
	sys2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sys2.N() != sys.N() || sys2.NumSubASes() != sys.NumSubASes() || sys2.NumExits() != sys.NumExits() {
		t.Fatal("shape changed over round trip")
	}
	for u := 0; u < sys.N(); u++ {
		uid := bgp.NodeID(u)
		if sys2.Name(uid) != sys.Name(uid) || sys2.SubAS(uid) != sys.SubAS(uid) || sys2.BGPID(uid) != sys.BGPID(uid) {
			t.Fatalf("node %d changed", u)
		}
		for v := 0; v < sys.N(); v++ {
			vid := bgp.NodeID(v)
			if sys.HasSession(uid, vid) != sys2.HasSession(uid, vid) ||
				sys.IsConfedSession(uid, vid) != sys2.IsConfedSession(uid, vid) ||
				sys.Phys().EdgeCost(uid, vid) != sys2.Phys().EdgeCost(uid, vid) {
				t.Fatalf("session or link %d-%d changed", u, v)
			}
			// Behavioural equivalence: the model's announcement relation
			// is the same on every path.
			for _, p := range sys.Exits() {
				if sys.Transfers(uid, vid, p) != sys2.Transfers(uid, vid, sys2.Exit(p.ID)) {
					t.Fatalf("Transfers(%d, %d, p%d) changed", u, v, p.ID)
				}
			}
		}
	}
	for _, p := range sys.Exits() {
		if sys2.Exit(p.ID) != p {
			t.Fatalf("exit p%d changed: %+v vs %+v", p.ID, sys2.Exit(p.ID), p)
		}
	}
}

func TestConfedJSONErrors(t *testing.T) {
	for _, tc := range []struct{ name, json, errPart string }{
		{"garbage", "{bad", "decoding spec"},
		{"unknown field", `{"subASes":[["a"]],"bogus":1}`, "unknown field"},
		{"unknown router in link", `{"subASes":[["a"]],"links":[{"a":"a","b":"ghost","cost":1}],"exits":[]}`, "ghost"},
		{"unknown router in confed session", `{"subASes":[["a"],["b"]],"links":[{"a":"a","b":"b","cost":1}],"confedSessions":[{"a":"a","b":"ghost"}],"exits":[]}`, "ghost"},
		{"confed session within one sub-AS", `{"subASes":[["a","b"]],"links":[{"a":"a","b":"b","cost":1}],"confedSessions":[{"a":"a","b":"b"}],"exits":[]}`, "within one sub-AS"},
		{"clusters and sub-ASes", `{"clusters":[{"reflectors":["r"]}],"subASes":[["a"]],"links":[],"exits":[]}`, "not both"},
	} {
		_, err := Load(strings.NewReader(tc.json))
		if err == nil || !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.errPart)
		}
	}
}

// TestConfedTransfers tabulates the confed cases of Transfers on a
// four-sub-AS tree A-B, B-C, B-D in which B has two border routers (b1
// toward A, b2 toward C and D) and an interior router b3, plus a
// parallel-session variant where both borders of B face A.
func TestConfedTransfers(t *testing.T) {
	b := NewBuilder()
	A, B, C, D := b.NewSubAS(), b.NewSubAS(), b.NewSubAS(), b.NewSubAS()
	a1, a2 := b.Member("a1", A), b.Member("a2", A)
	b1, b2, b3 := b.Member("b1", B), b.Member("b2", B), b.Member("b3", B)
	c1, d1 := b.Member("c1", C), b.Member("d1", D)
	b.Link(a1, a2, 1).Link(a1, b1, 1).Link(b1, b2, 1).Link(b2, b3, 1).Link(b2, c1, 1).Link(b2, d1, 1)
	b.ConfedSession(a1, b1).ConfedSession(b2, c1).ConfedSession(b2, d1)
	pA := b.Exit(a2, ExitSpec{NextAS: 1})
	pC := b.Exit(c1, ExitSpec{NextAS: 2})
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v, u bgp.NodeID
		p    bgp.PathID
		want bool
	}{
		{a2, a1, pA, true},  // own exit, internal
		{a1, a2, pA, false}, // local path, not from its exit point
		{a1, b1, pA, true},  // confed: away from A
		{b1, a1, pA, false}, // confed: back toward A
		{b1, b2, pA, true},  // b1 is B's ingress for A, b2 is not
		{b1, b3, pA, true},
		{b2, b1, pA, false}, // b2 is no ingress for A
		{b3, b2, pA, false},
		{b2, c1, pA, true},
		{b2, d1, pA, true},
		{c1, b2, pA, false},
		{c1, b2, pC, true}, // own exit over confed
		{b2, b1, pC, true}, // b2 is B's ingress for C
		{b2, b3, pC, true},
		{b1, b2, pC, false}, // b1 is no ingress for C
		{b3, b1, pC, false},
		{b1, a1, pC, true},  // confed: away from C
		{b2, d1, pC, true},  // D and A are both two hops from C
		{d1, b2, pC, false}, // toward C
		{a1, b1, pC, false},
		{b1, c1, pC, false}, // no session
	} {
		if got := sys.Transfers(tc.v, tc.u, sys.Exit(tc.p)); got != tc.want {
			t.Errorf("Transfers(%s, %s, p%d) = %v, want %v", sys.Name(tc.v), sys.Name(tc.u), tc.p, got, tc.want)
		}
	}

	// Parallel sessions: both borders of B are ingresses for A, and
	// neither passes A's path to the other, so no pair of ingresses can
	// keep a withdrawn path alive between them.
	b = NewBuilder()
	A, B = b.NewSubAS(), b.NewSubAS()
	a1 = b.Member("a1", A)
	b1, b2 = b.Member("b1", B), b.Member("b2", B)
	b.Link(a1, b1, 1).Link(a1, b2, 1)
	b.ConfedSession(a1, b1).ConfedSession(a1, b2)
	pA = b.Exit(a1, ExitSpec{NextAS: 1})
	if sys, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	p := sys.Exit(pA)
	if !sys.Transfers(a1, b1, p) || !sys.Transfers(a1, b2, p) || sys.Transfers(b1, b2, p) || sys.Transfers(b2, b1, p) {
		t.Fatal("parallel confed sessions: ingresses exchange the path")
	}
}
