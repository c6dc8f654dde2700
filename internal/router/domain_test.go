package router

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// TestNewDomainErrorPaths pins the multi-prefix construction errors: nil
// systems and prefixes over mismatched session graphs are rejected with
// the offending prefix named, and looking up an uncarried prefix is a
// defined miss rather than a panic.
func TestNewDomainErrorPaths(t *testing.T) {
	sysA, _, _ := star(t)

	_, err := NewDomain(map[uint32]*topology.System{0: sysA, 7: nil},
		protocol.Modified, selection.Options{})
	if err == nil || !strings.Contains(err.Error(), "prefix 7") {
		t.Fatalf("nil system: got %v, want an error naming prefix 7", err)
	}

	b := topology.NewBuilder()
	c0 := b.NewCluster()
	rr := b.Reflector("RR", c0)
	c1 := b.Client("c1", c0)
	b.Link(rr, c1, 5)
	b.Exit(rr, topology.ExitSpec{NextAS: 1})
	sysB, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewDomain(map[uint32]*topology.System{0: sysA, 3: sysB},
		protocol.Modified, selection.Options{})
	if err == nil || !strings.Contains(err.Error(), "prefix 3") {
		t.Fatalf("mismatched session graph: got %v, want an error naming prefix 3", err)
	}

	dom, err := NewDomain(map[uint32]*topology.System{2: sysA, 9: sysA},
		protocol.Modified, selection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dom.Prefixes(); len(got) != 2 || got[0] != 2 || got[1] != 9 {
		t.Fatalf("Prefixes() = %v, want [2 9]", got)
	}
	if dom.System(5) != nil {
		t.Fatal("System(5) returned a system for an uncarried prefix")
	}
	if dom.System(9) != sysA {
		t.Fatal("System(9) did not return the registered system")
	}
	if dom.NumPrefixes() != 2 {
		t.Fatalf("NumPrefixes() = %d, want 2", dom.NumPrefixes())
	}
}

// TestNewDomainAcceptsSharedGraphOverlays: per-prefix exit overlays built
// with WithExits share the base session graph by identity and must be
// accepted without a deep topology comparison.
func TestNewDomainAcceptsSharedGraphOverlays(t *testing.T) {
	sys, rr, _ := star(t)
	overlay, err := sys.WithExits([]topology.PrefixExit{
		{At: rr, Spec: topology.ExitSpec{NextAS: 2, MED: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dom, err := NewDomain(map[uint32]*topology.System{0: sys, 1: overlay},
		protocol.Modified, selection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dom.System(1) != overlay {
		t.Fatal("overlay prefix lost")
	}
}

// TestPrefixesAllocationFree: the per-refresh hot path iterates the
// domain's prefix list, so Prefixes() must return the cached slice
// without allocating.
func TestPrefixesAllocationFree(t *testing.T) {
	sys, _, _ := star(t)
	dom, err := NewDomain(map[uint32]*topology.System{0: sys, 1: sys, 2: sys},
		protocol.Modified, selection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		n += len(dom.Prefixes())
	})
	if allocs != 0 {
		t.Fatalf("Prefixes() allocates %.1f per call, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("Prefixes() returned nothing")
	}
}

// TestNewDomainRefusesConfederations: the core's announcement rules are
// per-instance reflection rules, so a system with confed-BGP sessions is
// refused rather than run on the wrong model.
func TestNewDomainRefusesConfederations(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "examples", "topologies", "confed-fig1a.json"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := topology.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewDomain(map[uint32]*topology.System{0: sys}, protocol.Classic, selection.Options{})
	if err == nil || !strings.Contains(err.Error(), "confederations are not supported") {
		t.Fatalf("confederation: got %v, want a refusal", err)
	}
}
