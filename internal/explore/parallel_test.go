package explore

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topology"
)

// diffWorkers is the parallel worker count the differential tests compare
// against the serial search: at least 2 so the parallel path actually
// runs, and the full machine width when more cores are available.
func diffWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	return w
}

// requireSameAnalysis asserts the determinism contract of Options.Workers:
// the whole Analysis — counts, truncation flag, and fixed points in
// discovery order — must be identical.
func requireSameAnalysis(t *testing.T, label string, serial, parallel Analysis) {
	t.Helper()
	if serial.States != parallel.States {
		t.Errorf("%s: States %d (serial) != %d (parallel)", label, serial.States, parallel.States)
	}
	if serial.Transitions != parallel.Transitions {
		t.Errorf("%s: Transitions %d (serial) != %d (parallel)", label, serial.Transitions, parallel.Transitions)
	}
	if serial.Truncated != parallel.Truncated {
		t.Errorf("%s: Truncated %v (serial) != %v (parallel)", label, serial.Truncated, parallel.Truncated)
	}
	if len(serial.FixedPoints) != len(parallel.FixedPoints) {
		t.Errorf("%s: %d fixed points (serial) != %d (parallel)",
			label, len(serial.FixedPoints), len(parallel.FixedPoints))
		return
	}
	for i := range serial.FixedPoints {
		if !serial.FixedPoints[i].Equal(parallel.FixedPoints[i]) {
			t.Errorf("%s: fixed point %d differs between serial and parallel", label, i)
		}
	}
}

// TestParallelMatchesSerialOnFigures runs every bundled paper figure under
// every policy with the serial search and with a parallel one, and
// requires byte-identical analyses.
func TestParallelMatchesSerialOnFigures(t *testing.T) {
	policies := []protocol.Policy{protocol.Classic, protocol.Walton, protocol.Modified, protocol.Adaptive}
	for _, entry := range figures.All() {
		for _, policy := range policies {
			label := "fig" + entry.Name + "/" + policy.String()
			sys := entry.Build().Sys
			opts := Options{Mode: SingletonsPlusAll, MaxStates: 5000}

			serial := Reachable(protocol.New(sys, policy, selection.Options{}), opts)
			opts.Workers = diffWorkers()
			parallel := Reachable(protocol.New(sys, policy, selection.Options{}), opts)
			requireSameAnalysis(t, label, serial, parallel)
		}
	}
}

// TestParallelMatchesSerialOnFixtures does the same over the example
// topology files shipped in the repo. Files that do not load (the
// deliberately broken fixture) are skipped — the point is coverage of
// every system the examples directory can produce, not of the parser.
func TestParallelMatchesSerialOnFixtures(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "topologies", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example topologies found")
	}
	tested := 0
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := topology.Load(f)
		f.Close()
		if err != nil {
			t.Logf("skipping %s: %v", filepath.Base(path), err)
			continue
		}
		tested++
		label := filepath.Base(path)
		opts := Options{Mode: SingletonsPlusAll, MaxStates: 5000}
		serial := Reachable(protocol.New(sys, protocol.Classic, selection.Options{}), opts)
		opts.Workers = diffWorkers()
		parallel := Reachable(protocol.New(sys, protocol.Classic, selection.Options{}), opts)
		requireSameAnalysis(t, label, serial, parallel)
	}
	if tested == 0 {
		t.Fatal("every example topology failed to load; fixture coverage is gone")
	}
}

// TestParallelMatchesSerialWhenTruncated pins determinism at the boundary
// the fold has to get exactly right: a state budget that cuts the search
// off mid-frontier must truncate at the same state count for every worker
// count.
func TestParallelMatchesSerialWhenTruncated(t *testing.T) {
	sys := figures.Fig1a().Sys
	for _, maxStates := range []int{1, 2, 3, 7, 20} {
		opts := Options{Mode: SingletonsPlusAll, MaxStates: maxStates}
		serial := Reachable(protocol.New(sys, protocol.Classic, selection.Options{}), opts)
		if !serial.Truncated {
			t.Fatalf("MaxStates=%d did not truncate fig1a; the boundary test is vacuous", maxStates)
		}
		for _, workers := range []int{2, 3, diffWorkers()} {
			opts.Workers = workers
			parallel := Reachable(protocol.New(sys, protocol.Classic, selection.Options{}), opts)
			requireSameAnalysis(t, "fig1a/truncated", serial, parallel)
		}
	}
}
