// Package cli holds the option parsing shared by the command-line tools:
// resolving a system from a topology file or a paper-figure name, and
// parsing policy / schedule selections.
package cli

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/churn"
	"repro/internal/figures"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/selection"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Figures maps the figure names accepted by -figure flags. It is derived
// from the figures.All registry so new figures become addressable
// everywhere at once.
var Figures = func() map[string]func() *figures.Fig {
	m := make(map[string]func() *figures.Fig)
	for _, e := range figures.All() {
		m[e.Name] = e.Build
	}
	return m
}()

// FigureNames returns the accepted -figure values in figure order.
func FigureNames() []string {
	var names []string
	for _, e := range figures.All() {
		names = append(names, e.Name)
	}
	return names
}

// LoadSystem resolves a System from exactly one of a topology JSON path or
// a figure name.
func LoadSystem(path, figure string) (*topology.System, error) {
	switch {
	case path != "" && figure != "":
		return nil, fmt.Errorf("use either -topology or -figure, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topology.Load(f)
	case figure != "":
		fn, ok := Figures[figure]
		if !ok {
			return nil, fmt.Errorf("unknown figure %q (want one of %v)", figure, FigureNames())
		}
		return fn().Sys, nil
	default:
		return nil, fmt.Errorf("need -topology FILE or -figure N")
	}
}

// CheckOperational reports why the operational substrates (the message
// simulator and the TCP speakers) cannot run sys, or nil. The router core
// refuses confederations; checking up front turns that into a usage error
// instead of a failure inside a substrate constructor.
func CheckOperational(sys *topology.System) error {
	_, err := router.NewDomain(map[uint32]*topology.System{0: sys}, protocol.Classic, selection.Options{})
	return err
}

// ParsePolicy maps a -policy flag value.
func ParsePolicy(s string) (protocol.Policy, error) {
	switch s {
	case "classic":
		return protocol.Classic, nil
	case "walton":
		return protocol.Walton, nil
	case "modified":
		return protocol.Modified, nil
	case "adaptive":
		return protocol.Adaptive, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want classic, walton, modified or adaptive)", s)
	}
}

// ParseOptions maps -order and -med flag values.
func ParseOptions(order, med string) (selection.Options, error) {
	var opts selection.Options
	switch order {
	case "", "paper":
	case "rfc":
		opts.Order = selection.RFCOrder
	default:
		return opts, fmt.Errorf("unknown rule order %q (want paper or rfc)", order)
	}
	switch med {
	case "", "standard":
	case "always":
		opts.MED = selection.AlwaysCompare
	default:
		return opts, fmt.Errorf("unknown MED mode %q (want standard or always)", med)
	}
	return opts, nil
}

// ParseWorkloadParams maps a -params flag value — a comma-separated
// key=value list like "clusters=4,maxmed=2" — onto base, overriding only
// the named fields. The result is validated.
func ParseWorkloadParams(s string, base workload.Params) (workload.Params, error) {
	p := base
	err := parseKVList("-params", s, map[string]func(string) error{
		"clusters":   intField(&p.Clusters),
		"minclients": intField(&p.MinClients),
		"maxclients": intField(&p.MaxClients),
		"ases":       intField(&p.ASes),
		"exits":      intField(&p.Exits),
		"maxmed":     intField(&p.MaxMED),
		"maxcost":    int64Field(&p.MaxCost),
		"extralinks": intField(&p.ExtraLinks),
	})
	if err != nil {
		return p, err
	}
	return p, p.Validate()
}

// ParseCrossedSpec maps a -params value onto the crossed (Figure 13)
// family: keys clusters, twoclienton, ases, maxmed, dotted.
func ParseCrossedSpec(s string, base workload.CrossedSpec) (workload.CrossedSpec, error) {
	spec := base
	err := parseKVList("-params", s, map[string]func(string) error{
		"clusters":    intField(&spec.Clusters),
		"twoclienton": intField(&spec.TwoClientOn),
		"ases":        intField(&spec.ASes),
		"maxmed":      intField(&spec.MaxMED),
		"dotted":      floatField(&spec.DottedProb),
	})
	if err != nil {
		return spec, err
	}
	return spec, spec.Validate()
}

// ParseTopogenSpec maps a -params / -gen value onto the ISP topology
// generator family: keys regions, rrs, pops, poprrs, clients, ases,
// exits, prefixes, maxmed, corecost, accesscost.
func ParseTopogenSpec(s string, base topogen.Spec) (topogen.Spec, error) {
	spec := base
	err := parseKVList("-params", s, map[string]func(string) error{
		"regions":    intField(&spec.Regions),
		"rrs":        intField(&spec.RRsPerRegion),
		"pops":       intField(&spec.PoPs),
		"poprrs":     intField(&spec.RRsPerPoP),
		"clients":    intField(&spec.ClientsPerPoP),
		"ases":       intField(&spec.ASes),
		"exits":      intField(&spec.Exits),
		"prefixes":   intField(&spec.Prefixes),
		"maxmed":     intField(&spec.MaxMED),
		"corecost":   int64Field(&spec.CoreCost),
		"accesscost": int64Field(&spec.AccessCost),
	})
	if err != nil {
		return spec, err
	}
	return spec, spec.Validate()
}

// ParseChurnSpec maps a -churn value — a comma-separated key=value list
// like "rate=40,period=500,flap=0.3" — onto base, overriding only the
// named fields: seed, prefixes, rate, period, burst, flap. The result is
// validated, so degenerate workloads (zero rate, burst past the period)
// are rejected here rather than deep in a soak.
func ParseChurnSpec(s string, base churn.Spec) (churn.Spec, error) {
	spec := base
	err := parseKVList("-churn", s, map[string]func(string) error{
		"seed":     int64Field(&spec.Seed),
		"prefixes": intField(&spec.Prefixes),
		"rate":     floatField(&spec.Rate),
		"period":   int64Field(&spec.Period),
		"burst":    int64Field(&spec.Burst),
		"flap":     floatField(&spec.FlapProb),
	})
	if err != nil {
		return spec, err
	}
	return spec, spec.Validate()
}

// parseKVList applies a comma-separated key=value list via per-key
// setters; the empty string sets nothing. flag names the command-line
// flag being parsed, so an error can tell the operator exactly which
// flag and which key is wrong instead of surfacing a raw strconv
// message with no context.
func parseKVList(flag, s string, fields map[string]func(string) error) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		key = strings.ToLower(strings.TrimSpace(key))
		set := fields[key]
		if !ok || set == nil {
			keys := make([]string, 0, len(fields))
			for k := range fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return fmt.Errorf("bad %s entry %q (want key=value with keys %s)", flag, kv, strings.Join(keys, ", "))
		}
		if err := set(strings.TrimSpace(val)); err != nil {
			return fmt.Errorf("bad %s value for %q: %v", flag, key, err)
		}
	}
	return nil
}

// The field setters leave the destination untouched on a parse failure
// and return an error naming the offending value in plain language; the
// flag and key context is added by parseKVList.

func intField(dst *int) func(string) error {
	return func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("%q is not an integer", v)
		}
		*dst = n
		return nil
	}
}

func int64Field(dst *int64) func(string) error {
	return func(v string) error {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("%q is not an integer", v)
		}
		*dst = n
		return nil
	}
}

func floatField(dst *float64) func(string) error {
	return func(v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("%q is not a number", v)
		}
		*dst = f
		return nil
	}
}

// ParseSchedule maps a -schedule flag value to a schedule over n nodes.
func ParseSchedule(s string, n int, seed int64) (protocol.Schedule, error) {
	switch s {
	case "", "roundrobin":
		return protocol.RoundRobin(n), nil
	case "allatonce":
		return protocol.AllAtOnce(n), nil
	case "random":
		return protocol.PermutationRounds(n, seed), nil
	case "subsets":
		return protocol.SubsetRounds(n, seed), nil
	default:
		return nil, fmt.Errorf("unknown schedule %q (want roundrobin, allatonce, random or subsets)", s)
	}
}
