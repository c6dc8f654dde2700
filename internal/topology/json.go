package topology

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/bgp"
)

// Spec is the JSON-serializable description of a System, consumed by the
// command-line tools. Nodes are referenced by name. A route-reflection
// spec declares Clusters; a confederation spec declares SubASes and
// ConfedSessions instead.
type Spec struct {
	// Comment is free-form and ignored by the loader.
	Comment string `json:"comment,omitempty"`
	// Clusters lists the route-reflection clusters.
	Clusters []ClusterSpec `json:"clusters,omitempty"`
	// SubASes lists the member sub-ASes of a confederation, each naming
	// its routers.
	SubASes [][]string `json:"subASes,omitempty"`
	// Links lists the physical IGP links.
	Links []LinkSpec `json:"links"`
	// ClientSessions lists optional same-cluster client-client sessions.
	ClientSessions []SessionSpec `json:"clientSessions,omitempty"`
	// ConfedSessions lists the confed-BGP sessions between border routers
	// of different sub-ASes.
	ConfedSessions []SessionSpec `json:"confedSessions,omitempty"`
	// Exits lists the injected exit paths (prefix 0 in a multi-prefix
	// domain).
	Exits []ExitJSON `json:"exits"`
	// PrefixExits optionally lists exit sets for additional prefixes:
	// PrefixExits[i] is the exit list of prefix i+1, layered over the same
	// session graph (BuildSpecAll). Absent for single-prefix specs, so
	// existing files round-trip byte-identically.
	PrefixExits [][]ExitJSON `json:"prefixExits,omitempty"`
	// BGPIDs optionally overrides per-node BGP identifiers.
	BGPIDs map[string]int `json:"bgpIds,omitempty"`
}

// ClusterSpec names the reflectors and clients of one cluster. Parent,
// when present, nests the cluster under an earlier cluster (by index),
// building a multi-level hierarchy.
type ClusterSpec struct {
	Reflectors []string `json:"reflectors"`
	Clients    []string `json:"clients,omitempty"`
	Parent     *int     `json:"parent,omitempty"`
}

// LinkSpec is one physical link.
type LinkSpec struct {
	A    string `json:"a"`
	B    string `json:"b"`
	Cost int64  `json:"cost"`
}

// SessionSpec is one extra client-client or confed-BGP session.
type SessionSpec struct {
	A string `json:"a"`
	B string `json:"b"`
}

// ExitJSON is one exit path.
type ExitJSON struct {
	At        string  `json:"at"`
	LocalPref int     `json:"localPref,omitempty"`
	ASPathLen int     `json:"asPathLen,omitempty"`
	NextAS    bgp.ASN `json:"nextAS"`
	MED       int     `json:"med"`
	ExitCost  int64   `json:"exitCost,omitempty"`
	NextHopID int     `json:"nextHopId,omitempty"`
	TieBreak  int     `json:"tieBreak,omitempty"`
}

// BuildSpec converts a Spec into a System.
func BuildSpec(spec *Spec) (*System, error) {
	if len(spec.Clusters) > 0 && len(spec.SubASes) > 0 {
		return nil, fmt.Errorf("topology: a spec declares clusters or subASes, not both")
	}
	b := NewBuilder()
	ids := map[string]bgp.NodeID{}
	for _, members := range spec.SubASes {
		sub := b.NewSubAS()
		for _, name := range members {
			ids[name] = b.Member(name, sub)
		}
	}
	for i, c := range spec.Clusters {
		var ci int
		if c.Parent != nil {
			if *c.Parent < 0 || *c.Parent >= i {
				return nil, fmt.Errorf("topology: cluster %d has invalid parent %d", i, *c.Parent)
			}
			ci = b.SubCluster(*c.Parent)
		} else {
			ci = b.NewCluster()
		}
		for _, name := range c.Reflectors {
			ids[name] = b.Reflector(name, ci)
		}
		for _, name := range c.Clients {
			ids[name] = b.Client(name, ci)
		}
	}
	lookup := func(name string) (bgp.NodeID, error) {
		id, ok := ids[name]
		if !ok {
			return -1, fmt.Errorf("topology: unknown node name %q", name)
		}
		return id, nil
	}
	for _, l := range spec.Links {
		a, err := lookup(l.A)
		if err != nil {
			return nil, err
		}
		bn, err := lookup(l.B)
		if err != nil {
			return nil, err
		}
		b.Link(a, bn, l.Cost)
	}
	for _, kind := range []struct {
		sessions []SessionSpec
		add      func(u, v bgp.NodeID) *Builder
	}{{spec.ClientSessions, b.ClientSession}, {spec.ConfedSessions, b.ConfedSession}} {
		for _, cs := range kind.sessions {
			a, err := lookup(cs.A)
			if err != nil {
				return nil, err
			}
			bn, err := lookup(cs.B)
			if err != nil {
				return nil, err
			}
			kind.add(a, bn)
		}
	}
	for _, e := range spec.Exits {
		at, err := lookup(e.At)
		if err != nil {
			return nil, err
		}
		b.Exit(at, ExitSpec{
			LocalPref: e.LocalPref,
			ASPathLen: e.ASPathLen,
			NextAS:    e.NextAS,
			MED:       e.MED,
			ExitCost:  e.ExitCost,
			NextHopID: e.NextHopID,
			TieBreak:  e.TieBreak,
		})
	}
	// Apply BGP id overrides in sorted name order so that which error is
	// reported (and which duplicate wins the Build-time check) does not
	// depend on map iteration order.
	names := make([]string, 0, len(spec.BGPIDs))
	for name := range spec.BGPIDs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n, err := lookup(name)
		if err != nil {
			return nil, err
		}
		b.SetBGPID(n, spec.BGPIDs[name])
	}
	return b.Build()
}

// BuildSpecAll converts a Spec into the per-prefix systems of a
// multi-prefix domain: index 0 is the base System built from Exits, and
// each PrefixExits entry becomes a WithExits overlay sharing the base's
// session graph. Single-prefix specs return a one-element slice.
func BuildSpecAll(spec *Spec) ([]*System, error) {
	base, err := BuildSpec(spec)
	if err != nil {
		return nil, err
	}
	out := make([]*System, 1, 1+len(spec.PrefixExits))
	out[0] = base
	for pi, exits := range spec.PrefixExits {
		pes := make([]PrefixExit, len(exits))
		for i, e := range exits {
			at, ok := base.NodeByName(e.At)
			if !ok {
				return nil, fmt.Errorf("topology: prefix %d: unknown node name %q", pi+1, e.At)
			}
			pes[i] = PrefixExit{At: at, Spec: ExitSpec{
				LocalPref: e.LocalPref,
				ASPathLen: e.ASPathLen,
				NextAS:    e.NextAS,
				MED:       e.MED,
				ExitCost:  e.ExitCost,
				NextHopID: e.NextHopID,
				TieBreak:  e.TieBreak,
			}}
		}
		ov, err := base.WithExits(pes)
		if err != nil {
			return nil, fmt.Errorf("topology: prefix %d: %w", pi+1, err)
		}
		out = append(out, ov)
	}
	return out, nil
}

// ParseSpec decodes a JSON Spec without validating or building it. Unknown
// fields are rejected, so a misspelt key does not silently half-parse. The
// static analyzer (package lint) uses this to inspect configurations too
// broken for Build to accept.
func ParseSpec(r io.Reader) (*Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("topology: decoding spec: %w", err)
	}
	return &spec, nil
}

// Load reads a JSON Spec and builds the System.
func Load(r io.Reader) (*System, error) {
	spec, err := ParseSpec(r)
	if err != nil {
		return nil, err
	}
	return BuildSpec(spec)
}

// ToSpec converts a System back into a serializable Spec. Link costs are
// recovered from the physical graph, so parallel links collapse to the
// cheapest.
func ToSpec(s *System) *Spec {
	spec := &Spec{}
	n := s.N()
	if s.NumSubASes() > 0 {
		spec.SubASes = make([][]string, s.NumSubASes())
		for u := 0; u < n; u++ {
			sub := s.SubAS(bgp.NodeID(u))
			spec.SubASes[sub] = append(spec.SubASes[sub], s.Name(bgp.NodeID(u)))
		}
	}
	// A confederation's single-member clusters are implied by SubASes.
	for c := 0; c < s.NumClusters() && spec.SubASes == nil; c++ {
		var cs ClusterSpec
		if p := s.ClusterParent(c); p >= 0 {
			pp := p
			cs.Parent = &pp
		}
		for _, u := range s.ClusterMembers(c) {
			if s.Role(u) == Reflector {
				cs.Reflectors = append(cs.Reflectors, s.Name(u))
			} else {
				cs.Clients = append(cs.Clients, s.Name(u))
			}
		}
		spec.Clusters = append(spec.Clusters, cs)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if s.Phys().HasEdge(bgp.NodeID(u), bgp.NodeID(v)) {
				spec.Links = append(spec.Links, LinkSpec{
					A:    s.Name(bgp.NodeID(u)),
					B:    s.Name(bgp.NodeID(v)),
					Cost: s.Phys().EdgeCost(bgp.NodeID(u), bgp.NodeID(v)),
				})
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			uID, vID := bgp.NodeID(u), bgp.NodeID(v)
			if s.Role(uID) == Client && s.Role(vID) == Client && s.HasSession(uID, vID) {
				spec.ClientSessions = append(spec.ClientSessions, SessionSpec{A: s.Name(uID), B: s.Name(vID)})
			}
			if s.IsConfedSession(uID, vID) {
				spec.ConfedSessions = append(spec.ConfedSessions, SessionSpec{A: s.Name(uID), B: s.Name(vID)})
			}
		}
	}
	for _, p := range s.Exits() {
		spec.Exits = append(spec.Exits, ExitJSON{
			At:        s.Name(p.ExitPoint),
			LocalPref: p.LocalPref,
			ASPathLen: p.ASPathLen,
			NextAS:    p.NextAS,
			MED:       p.MED,
			ExitCost:  p.ExitCost,
			NextHopID: p.NextHopID,
			TieBreak:  p.TieBreak,
		})
	}
	spec.BGPIDs = map[string]int{}
	for u := 0; u < n; u++ {
		spec.BGPIDs[s.Name(bgp.NodeID(u))] = s.BGPID(bgp.NodeID(u))
	}
	return spec
}

// Save writes the System as indented JSON.
func Save(w io.Writer, s *System) error {
	spec := ToSpec(s)
	sort.Slice(spec.Links, func(i, j int) bool {
		if spec.Links[i].A != spec.Links[j].A {
			return spec.Links[i].A < spec.Links[j].A
		}
		return spec.Links[i].B < spec.Links[j].B
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
