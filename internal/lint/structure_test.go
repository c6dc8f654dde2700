package lint

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

// specOf builds a minimal valid two-cluster spec the structural tests then
// break in targeted ways.
func specOf(mutate func(*topology.Spec)) *topology.Spec {
	spec := &topology.Spec{
		Clusters: []topology.ClusterSpec{
			{Reflectors: []string{"r1"}, Clients: []string{"c1"}},
			{Reflectors: []string{"r2"}, Clients: []string{"c2"}},
		},
		Links: []topology.LinkSpec{
			{A: "r1", B: "c1", Cost: 1},
			{A: "r2", B: "c2", Cost: 1},
			{A: "r1", B: "r2", Cost: 1},
		},
		Exits: []topology.ExitJSON{
			{At: "c1", NextAS: 1, MED: 0},
			{At: "c2", NextAS: 2, MED: 0},
		},
	}
	if mutate != nil {
		mutate(spec)
	}
	return spec
}

// asConfed turns the specOf system into a two-member confederation, with
// r1-r2 as the confed-BGP session.
func asConfed(s *topology.Spec) {
	s.Clusters = nil
	s.SubASes = [][]string{{"r1", "c1"}, {"r2", "c2"}}
	s.ConfedSessions = []topology.SessionSpec{{A: "r1", B: "r2"}}
}

func TestSpecPassesFlagStructuralBreakage(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*topology.Spec)
		pass   string
		detail string
	}{
		{
			name:   "valid spec passes",
			mutate: nil,
			pass:   "",
		},
		{
			name: "client with no reflector",
			mutate: func(s *topology.Spec) {
				s.Clusters[0].Reflectors = nil
			},
			pass:   "cluster-structure",
			detail: "no route reflector",
		},
		{
			name: "cluster parent cycle",
			mutate: func(s *topology.Spec) {
				one, zero := 1, 0
				s.Clusters[0].Parent = &one
				s.Clusters[1].Parent = &zero
			},
			pass:   "cluster-structure",
			detail: "cluster cycle",
		},
		{
			name: "self parent",
			mutate: func(s *topology.Spec) {
				zero := 0
				s.Clusters[0].Parent = &zero
			},
			pass:   "cluster-structure",
			detail: "cluster cycle",
		},
		{
			name: "unknown parent",
			mutate: func(s *topology.Spec) {
				nine := 9
				s.Clusters[0].Parent = &nine
			},
			pass:   "cluster-structure",
			detail: "unknown parent",
		},
		{
			name: "dual-role node",
			mutate: func(s *topology.Spec) {
				s.Clusters[1].Clients = append(s.Clusters[1].Clients, "r1")
			},
			pass:   "cluster-structure",
			detail: "non-hierarchical reflection",
		},
		{
			name: "unknown reflector reference in link",
			mutate: func(s *topology.Spec) {
				s.Links[2].B = "ghost"
			},
			pass:   "node-references",
			detail: `unknown router "ghost"`,
		},
		{
			name: "unknown exit point",
			mutate: func(s *topology.Spec) {
				s.Exits[0].At = "nowhere"
			},
			pass:   "node-references",
			detail: `unknown router "nowhere"`,
		},
		{
			name: "self link",
			mutate: func(s *topology.Spec) {
				s.Links[0].B = "r1"
			},
			pass:   "node-references",
			detail: "to itself",
		},
		{
			name: "negative MED",
			mutate: func(s *topology.Spec) {
				s.Exits[0].MED = -3
			},
			pass:   "attributes",
			detail: "malformed MED",
		},
		{
			name:   "confederation passes",
			mutate: asConfed,
			pass:   "",
		},
		{
			name: "confederation without confed sessions",
			mutate: func(s *topology.Spec) {
				asConfed(s)
				s.ConfedSessions = nil
			},
			pass:   "gi-connectivity",
			detail: "disconnected",
		},
		{
			name: "unknown router in confed session",
			mutate: func(s *topology.Spec) {
				asConfed(s)
				s.ConfedSessions[0].B = "ghost"
			},
			pass:   "node-references",
			detail: `confed session 0 references unknown router "ghost"`,
		},
		{
			name: "router in two sub-ASes",
			mutate: func(s *topology.Spec) {
				asConfed(s)
				s.SubASes[1] = append(s.SubASes[1], "c1")
			},
			pass:   "cluster-structure",
			detail: "sub-ASes 0 and 1",
		},
		{
			name: "clusters and sub-ASes",
			mutate: func(s *topology.Spec) {
				s.SubASes = [][]string{{"x"}}
			},
			pass:   "cluster-structure",
			detail: "both clusters and confederation sub-ASes",
		},
		{
			name: "negative link cost",
			mutate: func(s *topology.Spec) {
				s.Links[0].Cost = -1
			},
			pass:   "attributes",
			detail: "negative cost",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rep := LintSpec(tc.name, specOf(tc.mutate))
			if tc.pass == "" {
				if rep.Verdict != VerdictPass {
					t.Fatalf("verdict = %v, want PASS; findings:\n%s", rep.Verdict, findingDump(rep))
				}
				return
			}
			if rep.Verdict != VerdictFail {
				t.Fatalf("verdict = %v, want FAIL; findings:\n%s", rep.Verdict, findingDump(rep))
			}
			if !rep.HasPass(tc.pass) {
				t.Fatalf("no %q finding; findings:\n%s", tc.pass, findingDump(rep))
			}
			if !strings.Contains(findingDump(rep), tc.detail) {
				t.Errorf("findings lack %q; got:\n%s", tc.detail, findingDump(rep))
			}
		})
	}
}

// TestGIConnectivity checks the derived-session connectivity pass directly:
// a sub-cluster whose reflector is served by its parent is connected, while
// a reflector-less cluster's clients are not.
func TestGIConnectivity(t *testing.T) {
	spec := specOf(func(s *topology.Spec) {
		s.Clusters[0].Reflectors = nil // orphans c1
	})
	rep := LintSpec("gi", spec)
	if !rep.HasPass("gi-connectivity") {
		t.Fatalf("expected gi-connectivity finding; got:\n%s", findingDump(rep))
	}
	found := false
	for _, f := range rep.Findings {
		if f.Pass == "gi-connectivity" {
			for _, n := range f.Nodes {
				if n == "c1" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("gi-connectivity finding does not name the orphaned client c1:\n%s", findingDump(rep))
	}
}
