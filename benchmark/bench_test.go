package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/internal/msgsim"
	"repro/internal/protocol"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
)

// stage schedules one batch of events on a simulator and runs it.
type stage func(s sim) msgsim.Result

// TestReplayMatchesMsgsim drives msgsim and the replay through the same
// schedule on figures 1a and 13 under random delays with MRAI pacing (the
// regime isp-warmup leaves out), across two prefixes, with E-BGP
// withdrawals and re-announcements after the warm-up, and under the
// classic policy cut off by the event budget. Every stage must end in the
// identical state.
func TestReplayMatchesMsgsim(t *testing.T) {
	for _, fig := range []struct {
		name string
		sys  *topology.System
	}{{"1a", figures.Fig1a().Sys}, {"13", figures.Fig13().Sys}} {
		systems := map[uint32]*topology.System{0: fig.sys, 1: fig.sys}
		exits := exitIDs(fig.sys)
		for _, tc := range []struct {
			policy protocol.Policy
			mrai   int64
			seed   int64
			budget int
		}{
			{protocol.Modified, 3, 1, 1_000_000},
			{protocol.Modified, 10, 7, 1_000_000},
			{protocol.Classic, 5, 3, 3_000},
		} {
			stages := []stage{
				func(s sim) msgsim.Result { s.InjectAll(); return s.Run(tc.budget) },
				func(s sim) msgsim.Result {
					at := s.Now() + 1
					for i, id := range exits {
						s.WithdrawPrefixAt(at+int64(i), uint32(i%2), id)
					}
					return s.Run(2 * tc.budget)
				},
				func(s sim) msgsim.Result {
					at := s.Now() + 1
					for i, id := range exits {
						s.InjectPrefixAt(at+int64(2*i), uint32(i%2), id)
					}
					return s.Run(3 * tc.budget)
				},
			}
			ms := msgsim.NewMulti(systems, tc.policy, selection.Options{}, msgsim.MustRandomDelay(tc.seed, 1, 10))
			ms.SetMRAI(tc.mrai)
			rp, err := newReplay(systems, tc.policy, msgsim.MustRandomDelay(tc.seed, 1, 10))
			if err != nil {
				t.Fatal(err)
			}
			rp.setMRAI(tc.mrai)
			for i, st := range stages {
				want, got := st(ms), st(rp)
				if err := rp.Err(); err != nil {
					t.Fatalf("figure %s %v stage %d: replay: %v", fig.name, tc.policy, i, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("figure %s %v stage %d: replay %+v, msgsim %+v", fig.name, tc.policy, i, got, want)
				}
				n := fig.sys.N()
				if g, w := simBest(rp, 2, n), simBest(ms, 2, n); !reflect.DeepEqual(g, w) {
					t.Fatalf("figure %s %v stage %d: best vectors %v, msgsim %v", fig.name, tc.policy, i, g, w)
				}
				if g, w := rp.counters.Snapshot(), ms.Counters(); g != w {
					t.Fatalf("figure %s %v stage %d: counters %+v, msgsim %+v", fig.name, tc.policy, i, g, w)
				}
			}
			if tc.policy == protocol.Modified && rp.counters.Deferrals.Load() == 0 {
				t.Errorf("figure %s: MRAI %d deferred nothing; the case does not cover MRAI pacing", fig.name, tc.mrai)
			}
		}
	}
}

// Small configurations of the three workloads, for tests.
func smallISP(seed int64) ispConfig {
	return ispConfig{topo: topogen.Small(), prefixes: 4, seed: seed, maxEvents: 1_000_000, sliceEvents: 50}
}

func smallChurn(seed int64) churnConfig {
	return churnConfig{topo: topogen.Small(), seed: seed, prefixes: 2, rounds: 12, mrai: 10}
}

func smallAnalysis(seed int64) analysisConfig {
	cfg := analysisFor(seed)
	cfg.topo, cfg.topologies, cfg.censusSeeds, cfg.pin = topogen.Small(), 2, 24, nil
	return cfg
}

// smallWorkloads runs the small configurations with the given pins (nil
// for none) through the workloads' own drivers.
func smallWorkloads(isp *ispPin, ch *churnPin, an *analysisPin) map[string]func(options) (*outcome, error) {
	return map[string]func(options) (*outcome, error){
		"isp-warmup": func(o options) (*outcome, error) {
			cfg := smallISP(o.seed)
			cfg.pin = isp
			if o.trace {
				return ispTraced(cfg)
			}
			return ispUntraced(cfg, o.budget)
		},
		"churn-soak": func(o options) (*outcome, error) {
			cfg := smallChurn(o.seed)
			cfg.pin = ch
			if o.trace {
				return churnTraced(cfg)
			}
			return churnUntraced(cfg, o.budget)
		},
		"analysis": func(o options) (*outcome, error) {
			cfg := smallAnalysis(o.seed)
			cfg.pin = an
			if o.trace {
				return analysisTraced(cfg)
			}
			return analysisUntraced(cfg, o.budget)
		},
	}
}

func TestWorkloadSmoke(t *testing.T) {
	for name, drive := range smallWorkloads(nil, nil, nil) {
		for _, trace := range []bool{false, true} {
			o, err := drive(options{seed: 1, budget: time.Millisecond, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(o.problems) > 0 || o.failed != 0 || o.attempted < 1 {
				t.Fatalf("%s trace=%v: attempted %d failed %d problems %v", name, trace, o.attempted, o.failed, o.problems)
			}
			if !trace {
				for _, d := range endToEnd {
					if v, ok := o.metrics[d.name]; !ok || v <= 0 {
						t.Errorf("%s: %s = %v, want a positive measurement", name, d.name, v)
					}
				}
			}
		}
	}
}

// withWorkloads swaps the command's workloads for the duration of a test.
func withWorkloads(t *testing.T, w map[string]func(options) (*outcome, error)) {
	saved := workloads
	workloads = w
	t.Cleanup(func() { workloads = saved })
}

// lastLine decodes the command's final output line.
func lastLine(t *testing.T, out []byte) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return m
}

func TestCommandOutput(t *testing.T) {
	withWorkloads(t, smallWorkloads(nil, nil, nil))
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "churn-soak", "--seed", "2", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		res := lastLine(t, stdout.Bytes())
		var keys []string
		for k := range res {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
			t.Fatalf("trace %s: result keys %s", trace, got)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, d.name, m, d.unit)
			}
		}
	}
}

// TestWrongPinFails checks that a pinned outcome that does not match
// makes the command fail on each workload.
func TestWrongPinFails(t *testing.T) {
	withWorkloads(t, smallWorkloads(&ispPin{events: 1}, &churnPin{stateHash: "0"}, &analysisPin{verdicts: "PASS"}))
	for _, name := range []string{"isp-warmup", "churn-soak", "analysis"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", name, "--seconds", "1"}, &stdout, &stderr)
		if code != 1 {
			t.Fatalf("%s: exit %d with a wrong pin, want 1", name, code)
		}
		if res := lastLine(t, stdout.Bytes()); string(res["correct"]) != "false" {
			t.Errorf("%s: correct = %s with a wrong pin", name, res["correct"])
		}
		if !strings.Contains(stderr.String(), "pinned outcome") {
			t.Errorf("%s: stderr does not name the pin: %s", name, stderr.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "analysis", "--seed", "0"},
		{"--workload", "analysis", "--trace", "2"},
		{"--workload", "analysis", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want 2 and no result", args, code, stdout.String())
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the command prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, command has %v", names, workloadNames())
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics declared, command has %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, command has %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, command has %+v", i, m, d)
		}
	}
}
