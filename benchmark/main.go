// Command ibgpbench is the repository's benchmark. It runs one of three
// workloads over the operational core and the offline analysis path,
// checks every output it can pin, and prints one result record:
//
//	go run . --workload isp-warmup --seed 1 --seconds 25 --trace 0
//
// Untraced runs (--trace 0) time the program's own entry points
// (msgsim.Sim.Run, churn.SoakSim, lint.ProveSystem, campaign.Run) and
// report the end-to-end metrics. Traced runs (--trace 1) repeat the
// workload once untraced and once through a replay of the simulator loop
// that times every call into msgsim, router, wire, wire/bgp4, churn, lint,
// campaign and topology from outside, and report the per-layer metrics.
// README.md maps each metric to the layer and workload it measures.
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics; the line before it is the full record
// with the environment stamp and the checked values. The exit status is 0
// when every check passed, 1 when a check failed or a workload could not
// run, and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings one workload runs under.
type options struct {
	seed   int64
	budget time.Duration // measured time per run, set-up excluded
	trace  bool
}

// outcome is what a workload reports: the operations it attempted and
// how many failed, the correctness problems it found, the metric values
// (by name, see metrics.go) and informational details for the record.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	detail            map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
}

// problem records one failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(options) (*outcome, error){
	"isp-warmup": runISPWarmup,
	"churn-soak": runChurnSoak,
	"analysis":   runAnalysis,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ibgpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the pinned outputs are for seed 1")
	seconds := fs.Int("seconds", 25, "measured seconds per run (set-up excluded)")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "ibgpbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seed < 1:
		fmt.Fprintf(stderr, "ibgpbench: --seed %d, need a positive seed\n", *seed)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "ibgpbench: --seconds %d, need at least 1\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "ibgpbench: --trace %d, want 0 or 1\n", *trace)
		return 2
	}
	opts := options{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	out, err := drive(opts)
	if err != nil {
		fmt.Fprintf(stderr, "ibgpbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			if !opts.trace {
				// Every workload must report every end-to-end metric.
				res.Correct = false
				out.problem("metric %s not measured", d.name)
			}
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		res.Correct = false
		out.problem("no operation attempted")
	}
	record := map[string]any{
		"workload": *name,
		"seed":     opts.seed,
		"seconds":  *seconds,
		"trace":    *trace,
		"env":      stamp(),
		"problems": out.problems,
		"detail":   out.detail,
		"result":   res,
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "ibgpbench: %s: check failed: %s\n", *name, p)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(record); err != nil {
		fmt.Fprintf(stderr, "ibgpbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "ibgpbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
