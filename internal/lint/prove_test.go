package lint

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
	"repro/internal/workload"
)

// findingOf returns the single finding of the named pass, or nil.
func findingOf(t *testing.T, r *Report, pass string) *Finding {
	t.Helper()
	var got *Finding
	for i := range r.Findings {
		if r.Findings[i].Pass == pass {
			if got != nil {
				t.Fatalf("%s: pass %s emitted more than one finding", r.Source, pass)
			}
			got = &r.Findings[i]
		}
	}
	return got
}

// parseConfig turns a Witness configuration (router name -> "p3"/"none")
// back into a per-node advertisement assignment.
func parseConfig(t *testing.T, sys *topology.System, cfg map[string]string) []bgp.PathSet {
	t.Helper()
	if len(cfg) != sys.N() {
		t.Fatalf("witness config names %d routers, system has %d", len(cfg), sys.N())
	}
	adv := make([]bgp.PathSet, sys.N())
	for name, label := range cfg {
		u, ok := sys.NodeByName(name)
		if !ok {
			t.Fatalf("witness names unknown router %q", name)
		}
		if label == "none" {
			continue
		}
		id, err := strconv.Atoi(strings.TrimPrefix(label, "p"))
		if err != nil || !strings.HasPrefix(label, "p") {
			t.Fatalf("witness selection %q for %s is neither none nor p<ID>", label, name)
		}
		adv[u].Add(bgp.PathID(id))
	}
	return adv
}

// replayStable asserts that a witness configuration is a true protocol
// fixed point under classic I-BGP.
func replayStable(t *testing.T, source string, sys *topology.System, cfg map[string]string) {
	t.Helper()
	adv := parseConfig(t, sys, cfg)
	e := protocol.New(sys, protocol.Classic, selection.Options{})
	if !e.InducedConfig(adv) || !e.Stable() {
		t.Errorf("%s: witness configuration does not replay as a stable fixed point", source)
	}
}

// TestProveFigureAgreement checks the exact prover against ground truth on
// every bundled paper figure: the exact-mode verdict must equal the
// figure's oscillation flag (in particular, zero false negatives), and the
// prove-pass outcomes must match the brute-force stable-solution
// enumeration wherever the enumeration completes.
func TestProveFigureAgreement(t *testing.T) {
	for _, ent := range figures.All() {
		f := ent.Build()
		r := ProveSystem(ent.Name, f.Sys)

		want := VerdictPass
		if ent.Oscillates {
			want = VerdictRisk
		}
		if r.Verdict != want {
			t.Errorf("fig %s: exact verdict %v, ground truth %v", ent.Name, r.Verdict, want)
		}

		stable := findingOf(t, r, "prove-stable")
		if stable == nil {
			t.Fatalf("fig %s: no prove-stable finding", ent.Name)
		}
		wheel := findingOf(t, r, "prove-wheel")
		if (stable.Severity == Info) != (wheel != nil) {
			t.Fatalf("fig %s: prove-wheel should fire exactly when a stable routing exists", ent.Name)
		}

		// Brute-force ground truth; a small budget keeps the test fast and
		// the large figures (13) are exactly the ones the prover decides
		// without enumeration.
		e := protocol.New(f.Sys, protocol.Classic, selection.Options{})
		enum := explore.EnumerateStableClassic(e, 2_000_000)
		if enum.Truncated {
			continue
		}
		if gotStable := stable.Severity == Info; gotStable != (len(enum.Solutions) > 0) {
			t.Errorf("fig %s: prove-stable SAT=%v, enumeration found %d stable solutions",
				ent.Name, gotStable, len(enum.Solutions))
		}
		if len(enum.Solutions) > 0 {
			if gotMulti := wheel.Severity == Risk; gotMulti != (len(enum.Solutions) > 1) {
				t.Errorf("fig %s: prove-wheel risk=%v, enumeration found %d stable solutions",
					ent.Name, gotMulti, len(enum.Solutions))
			}
		}
	}
}

// TestProveWitnessReplay replays every decoded witness through the
// protocol engine: stable configurations must be true fixed points, and
// dispute wheels must be genuine dependency cycles (consecutive spokes
// are I-BGP peers whose transferred advertisements differ between the two
// configurations).
func TestProveWitnessReplay(t *testing.T) {
	sawWheel := false
	for _, ent := range figures.All() {
		f := ent.Build()
		r := ProveSystem(ent.Name, f.Sys)

		if stable := findingOf(t, r, "prove-stable"); stable.Severity == Info {
			if stable.Witness == nil || stable.Witness.Config == nil {
				t.Fatalf("fig %s: SAT prove-stable finding carries no configuration witness", ent.Name)
			}
			replayStable(t, "fig "+ent.Name+" config", f.Sys, stable.Witness.Config)
		}

		wheel := findingOf(t, r, "prove-wheel")
		if wheel == nil || wheel.Severity != Risk {
			continue
		}
		w := wheel.Witness
		if w == nil || w.Config == nil || w.Alt == nil {
			t.Fatalf("fig %s: prove-wheel risk finding lacks the two configurations", ent.Name)
		}
		replayStable(t, "fig "+ent.Name+" hold", f.Sys, w.Config)
		replayStable(t, "fig "+ent.Name+" alt", f.Sys, w.Alt)
		if len(w.Wheel) < 2 {
			t.Fatalf("fig %s: dispute wheel has %d spokes, need a cycle", ent.Name, len(w.Wheel))
		}
		sawWheel = true
		for i, s := range w.Wheel {
			if s.Hold == s.Alt {
				t.Errorf("fig %s: spoke %s does not change selection between the configurations", ent.Name, s.Node)
			}
			u, ok := f.Sys.NodeByName(s.Node)
			if !ok {
				t.Fatalf("fig %s: wheel names unknown router %q", ent.Name, s.Node)
			}
			// The next spoke (cyclically) is the cause: a peer whose
			// transferred advertisement differs between the configurations.
			c := w.Wheel[(i+1)%len(w.Wheel)]
			v, ok := f.Sys.NodeByName(c.Node)
			if !ok {
				t.Fatalf("fig %s: wheel names unknown router %q", ent.Name, c.Node)
			}
			if !f.Sys.HasSession(u, v) {
				t.Errorf("fig %s: wheel edge %s -> %s is not an I-BGP session", ent.Name, s.Node, c.Node)
				continue
			}
			transferred := func(label string) string {
				if label == "none" {
					return "none"
				}
				id, _ := strconv.Atoi(strings.TrimPrefix(label, "p"))
				if f.Sys.Transfers(v, u, f.Sys.Exit(bgp.PathID(id))) {
					return label
				}
				return "none"
			}
			if transferred(c.Hold) == transferred(c.Alt) {
				t.Errorf("fig %s: wheel edge %s -> %s: the cause's transferred advertisement does not differ",
					ent.Name, s.Node, c.Node)
			}
		}
	}
	if !sawWheel {
		t.Error("no figure produced a dispute-wheel witness (figure 2 should)")
	}
}

// TestProveMatchesEnumeration cross-checks the CNF encoding against the
// brute-force stable-solution enumeration on a family of small generated
// systems: existence of a stable routing and uniqueness must agree
// exactly, seed by seed.
func TestProveMatchesEnumeration(t *testing.T) {
	params := workload.Params{
		Clusters:   3,
		MinClients: 1,
		MaxClients: 2,
		ASes:       2,
		Exits:      4,
		MaxMED:     2,
		MaxCost:    8,
		ExtraLinks: 2,
	}
	seeds := 40
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		sys, err := workload.Generate(params, int64(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := ProveSystem("seed", sys)
		stable := findingOf(t, r, "prove-stable")
		wheel := findingOf(t, r, "prove-wheel")

		e := protocol.New(sys, protocol.Classic, selection.Options{})
		enum := explore.EnumerateStableClassic(e, 0)
		if enum.Truncated {
			t.Fatalf("seed %d: enumeration truncated on a small system", seed)
		}
		if gotStable := stable.Severity == Info; gotStable != (len(enum.Solutions) > 0) {
			t.Errorf("seed %d: prove-stable SAT=%v, enumeration found %d stable solutions",
				seed, gotStable, len(enum.Solutions))
		}
		if stable.Severity == Info {
			replayStable(t, "seed config", sys, stable.Witness.Config)
			if gotMulti := wheel.Severity == Risk; gotMulti != (len(enum.Solutions) > 1) {
				t.Errorf("seed %d: prove-wheel risk=%v, enumeration found %d stable solutions",
					seed, gotMulti, len(enum.Solutions))
			}
		}
	}
}

// TestConfedSpecLint lints the shipped Figure 1(a) confederation through
// the ordinary spec entry point. Confed sessions carry only the best route
// under classic I-BGP, so the full-mesh certificate must not fire although
// every member is a client-less reflector, and the exact prover must agree
// with the brute-force enumeration that no stable routing exists.
func TestConfedSpecLint(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "examples", "topologies", "confed-fig1a.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := topology.ParseSpec(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	r := ProveSpec("confed-fig1a.json", spec)
	for _, fd := range r.Findings {
		if fd.Pass == "safety-certificate" && !strings.HasPrefix(fd.Detail, "med-free") {
			t.Errorf("unsound certificate on a confederation: %s", fd.Detail)
		}
	}
	stable := findingOf(t, r, "prove-stable")
	if stable == nil || !strings.Contains(stable.Detail, "no stable routing exists") {
		t.Fatalf("prove-stable did not prove oscillation; findings:\n%s", findingDump(r))
	}
	if r.Verdict != VerdictRisk {
		t.Fatalf("verdict = %v, want RISK", r.Verdict)
	}
	sys, err := topology.BuildSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	enum := explore.EnumerateStableClassic(protocol.New(sys, protocol.Classic, selection.Options{}), 0)
	if enum.Truncated || len(enum.Solutions) != 0 {
		t.Fatalf("enumeration: %d stable solutions (truncated %v), want none", len(enum.Solutions), enum.Truncated)
	}
}
