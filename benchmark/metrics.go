package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it; bound is set for
// end-to-end metrics only.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics every untraced run reports, on every workload.
// Each has one meaning per workload (README.md has the table): setup_s is
// the median set-up time, throughput_per_s the median work rate and
// heap_mb the live heap of the workload's working set. All carry the
// widest bound allowed: the rate because of the run-to-run spread on the
// shared 2-vCPU machine the benchmark was tuned on, the heap because on
// churn-soak it moves with the seed by up to 15%. Per-step times spread
// as widely as the rate without adding to it, so they are in each run's
// record rather than bounded metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"heap_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not touch reads 0.
var perLayer = []metricDef{
	{name: "msgsim.events", unit: "count", better: "lower"},
	{name: "msgsim.queue_depth_mean", unit: "count", better: "lower"},
	{name: "msgsim.queue_depth_max", unit: "count", better: "lower"},
	{name: "msgsim.self_s", unit: "s", better: "lower"},
	{name: "router.refresh.calls", unit: "count", better: "lower"},
	{name: "router.refresh.busy_s", unit: "s", better: "lower"},
	{name: "router.refresh.useful_ratio", unit: "ratio", better: "higher"},
	{name: "router.apply.busy_s", unit: "s", better: "lower"},
	{name: "router.flaps", unit: "count", better: "lower"},
	{name: "router.deferrals", unit: "count", better: "lower"},
	{name: "router.heap_bytes_per_route", unit: "B", better: "lower"},
	{name: "wire.encode.busy_s", unit: "s", better: "lower"},
	{name: "wire.decode.busy_s", unit: "s", better: "lower"},
	{name: "wire.bytes_per_update", unit: "B", better: "lower"},
	{name: "wire.bgp4.encode.busy_s", unit: "s", better: "lower"},
	{name: "wire.bgp4.decode.busy_s", unit: "s", better: "lower"},
	{name: "wire.bgp4.bytes_per_update", unit: "B", better: "lower"},
	{name: "churn.reference_s", unit: "s", better: "lower"},
	{name: "churn.harness_s", unit: "s", better: "lower"},
	{name: "lint.heuristic_s", unit: "s", better: "lower"},
	{name: "lint.exact_s", unit: "s", better: "lower"},
	{name: "topology.build_s", unit: "s", better: "lower"},
	{name: "explore.states", unit: "count", better: "lower"},
	{name: "explore.states_per_s", unit: "1/s", better: "higher"},
	{name: "campaign.seed_ms_p50", unit: "ms", better: "lower"},
	{name: "runtime.gc_cpu_s", unit: "s", better: "lower"},
	{name: "runtime.alloc_bytes", unit: "B", better: "lower"},
	{name: "runtime.mallocs", unit: "count", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// minSetups is the least number of set-ups a run times. Set-up is short
// beside a repetition, so it is repeated alone until its median rests on
// this many samples.
const minSetups = 7

// runSamples is what the untraced repetitions of a run measured.
type runSamples struct {
	setups, walls, steps, rates, heaps []float64
}

// report sets the end-to-end metrics from a run's samples, timing setup
// alone first until there are minSetups set-up samples, and records the
// per-step and per-repetition figures.
func (o *outcome) report(s runSamples, setup func() error) error {
	for len(s.setups) < minSetups {
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
	}
	o.metrics["setup_s"] = median(s.setups)
	o.metrics["throughput_per_s"] = median(s.rates)
	o.metrics["heap_mb"] = median(s.heaps)
	o.detail["step_ms_p50"] = median(s.steps)
	o.detail["step_ms_p90"] = quantile(s.steps, 0.9)
	o.detail["walls_s"] = s.walls
	o.detail["rates_per_s"] = s.rates
	o.detail["steps"] = len(s.steps)
	o.detail["setups"] = len(s.setups)
	return nil
}

// median returns the middle value (mean of the two middle values for an
// even count) of xs, or 0 when empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// runtimeCounters are the cumulative runtime/metrics counters the traced
// runs difference around an untraced repetition.
type runtimeCounters struct {
	gcCPU  float64 // seconds of CPU spent in the garbage collector
	alloc  uint64  // bytes allocated
	malloc uint64  // objects allocated
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return runtimeCounters{gcCPU: s[0].Value.Float64(), alloc: s[1].Value.Uint64(), malloc: s[2].Value.Uint64()}
}

func (o *outcome) runtimeDelta(before, after runtimeCounters) {
	o.metrics["runtime.gc_cpu_s"] = after.gcCPU - before.gcCPU
	o.metrics["runtime.alloc_bytes"] = float64(after.alloc - before.alloc)
	o.metrics["runtime.mallocs"] = float64(after.malloc - before.malloc)
}

// liveHeap collects garbage and returns the bytes of live heap left. The
// caller keeps its working set reachable across the call.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stamp describes the machine and build a result was measured on.
func stamp() map[string]any {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"revision":   "unknown",
		"modified":   false,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["revision"] = s.Value
			case "vcs.modified":
				env["modified"] = s.Value == "true"
			}
		}
	}
	if n, err := goLines("."); err == nil {
		env["non_test_go_lines"] = n
	}
	return env
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// goLines counts the lines of the non-test Go files under root, skipping
// hidden directories, testdata and this benchmark's own directory, so the
// figure tracks the size of the program being measured.
func goLines(root string) (int, error) {
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != root && (strings.HasPrefix(base, ".") || base == "testdata" || base == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n += strings.Count(string(b), "\n")
		return nil
	})
	return n, err
}
