package topology

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bgp"
)

// validSpecJSON is a minimal two-cluster configuration the error-path
// tests then corrupt.
const validSpecJSON = `{
  "clusters": [
    {"reflectors": ["r1"], "clients": ["c1"]},
    {"reflectors": ["r2"], "clients": ["c2"]}
  ],
  "links": [
    {"a": "r1", "b": "c1", "cost": 1},
    {"a": "r2", "b": "c2", "cost": 1},
    {"a": "r1", "b": "r2", "cost": 1}
  ],
  "exits": [
    {"at": "c1", "nextAS": 1, "med": 0},
    {"at": "c2", "nextAS": 2, "med": 5}
  ]
}`

func TestLoadValidSpec(t *testing.T) {
	sys, err := Load(strings.NewReader(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 4 {
		t.Fatalf("N = %d, want 4", sys.N())
	}
}

// TestLoadErrorPaths drives every rejection path of ParseSpec + BuildSpec:
// malformed JSON, unknown fields, duplicate node names, duplicate BGP
// identifiers, references to undeclared routers, malformed (negative)
// MEDs and invalid cluster parents.
func TestLoadErrorPaths(t *testing.T) {
	tests := []struct {
		name    string
		json    string
		errPart string
	}{
		{
			name:    "malformed JSON",
			json:    `{"clusters": [`,
			errPart: "decoding spec",
		},
		{
			name:    "unknown field",
			json:    `{"clusters": [{"reflectors": ["r"]}], "bogus": []}`,
			errPart: "unknown field",
		},
		{
			name: "malformed MED string",
			json: `{
  "clusters": [{"reflectors": ["r"]}],
  "links": [],
  "exits": [{"at": "r", "nextAS": 1, "med": "ten"}]
}`,
			errPart: "decoding spec",
		},
		{
			name: "duplicate node names across clusters",
			json: `{
  "clusters": [
    {"reflectors": ["r1"], "clients": ["dup"]},
    {"reflectors": ["r2"], "clients": ["dup"]}
  ],
  "links": [
    {"a": "r1", "b": "dup", "cost": 1},
    {"a": "r1", "b": "r2", "cost": 1}
  ],
  "exits": [{"at": "dup", "nextAS": 1, "med": 0}]
}`,
			errPart: `duplicate node name "dup"`,
		},
		{
			name: "duplicate node name within a cluster",
			json: `{
  "clusters": [{"reflectors": ["r1"], "clients": ["c1", "c1"]}],
  "links": [{"a": "r1", "b": "c1", "cost": 1}],
  "exits": [{"at": "c1", "nextAS": 1, "med": 0}]
}`,
			errPart: `duplicate node name "c1"`,
		},
		{
			name: "unknown router in link",
			json: `{
  "clusters": [{"reflectors": ["r1"], "clients": ["c1"]}],
  "links": [{"a": "r1", "b": "ghost", "cost": 1}],
  "exits": [{"at": "c1", "nextAS": 1, "med": 0}]
}`,
			errPart: `unknown node name "ghost"`,
		},
		{
			name: "unknown router in exit",
			json: `{
  "clusters": [{"reflectors": ["r1"], "clients": ["c1"]}],
  "links": [{"a": "r1", "b": "c1", "cost": 1}],
  "exits": [{"at": "nowhere", "nextAS": 1, "med": 0}]
}`,
			errPart: `unknown node name "nowhere"`,
		},
		{
			name: "unknown router in bgpIds",
			json: `{
  "clusters": [{"reflectors": ["r1"], "clients": ["c1"]}],
  "links": [{"a": "r1", "b": "c1", "cost": 1}],
  "exits": [{"at": "c1", "nextAS": 1, "med": 0}],
  "bgpIds": {"phantom": 7}
}`,
			errPart: `unknown node name "phantom"`,
		},
		{
			name: "unknown router in client session",
			json: `{
  "clusters": [{"reflectors": ["r1"], "clients": ["c1"]}],
  "links": [{"a": "r1", "b": "c1", "cost": 1}],
  "clientSessions": [{"a": "c1", "b": "missing"}],
  "exits": [{"at": "c1", "nextAS": 1, "med": 0}]
}`,
			errPart: `unknown node name "missing"`,
		},
		{
			name: "duplicate BGP ids",
			json: `{
  "clusters": [{"reflectors": ["r1"], "clients": ["c1", "c2"]}],
  "links": [
    {"a": "r1", "b": "c1", "cost": 1},
    {"a": "r1", "b": "c2", "cost": 1}
  ],
  "exits": [{"at": "c1", "nextAS": 1, "med": 0}],
  "bgpIds": {"c1": 42, "c2": 42}
}`,
			errPart: "share BGP id 42",
		},
		{
			name: "negative MED rejected at build",
			json: `{
  "clusters": [{"reflectors": ["r1"], "clients": ["c1"]}],
  "links": [{"a": "r1", "b": "c1", "cost": 1}],
  "exits": [{"at": "c1", "nextAS": 1, "med": -4}]
}`,
			errPart: "negative attribute",
		},
		{
			name: "forward cluster parent",
			json: `{
  "clusters": [
    {"reflectors": ["r1"], "parent": 1},
    {"reflectors": ["r2"]}
  ],
  "links": [{"a": "r1", "b": "r2", "cost": 1}],
  "exits": [{"at": "r1", "nextAS": 1, "med": 0}]
}`,
			errPart: "invalid parent 1",
		},
		{
			name: "out-of-range cluster parent",
			json: `{
  "clusters": [
    {"reflectors": ["r1"]},
    {"reflectors": ["r2"], "parent": 9}
  ],
  "links": [{"a": "r1", "b": "r2", "cost": 1}],
  "exits": [{"at": "r1", "nextAS": 1, "med": 0}]
}`,
			errPart: "invalid parent 9",
		},
		{
			name: "disconnected physical graph",
			json: `{
  "clusters": [{"reflectors": ["r1", "r2"]}],
  "links": [],
  "exits": [{"at": "r1", "nextAS": 1, "med": 0}]
}`,
			errPart: "not connected",
		},
		{
			name:    "no routers",
			json:    `{"clusters": [], "links": [], "exits": []}`,
			errPart: "no routers",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.json))
			if err == nil {
				t.Fatal("Load accepted a malformed spec")
			}
			if !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("error = %q, want mention of %q", err, tc.errPart)
			}
		})
	}
}

// TestParseSpecDoesNotValidate pins the split the static analyzer relies
// on: ParseSpec accepts structurally broken (but well-formed JSON) specs
// that BuildSpec then rejects.
func TestParseSpecDoesNotValidate(t *testing.T) {
	broken := `{
  "clusters": [{"clients": ["orphan"]}],
  "links": [],
  "exits": [{"at": "orphan", "nextAS": 1, "med": -1}]
}`
	spec, err := ParseSpec(strings.NewReader(broken))
	if err != nil {
		t.Fatalf("ParseSpec rejected decodable JSON: %v", err)
	}
	if len(spec.Clusters) != 1 || spec.Exits[0].MED != -1 {
		t.Fatalf("ParseSpec mangled the spec: %+v", spec)
	}
	if _, err := BuildSpec(spec); err == nil {
		t.Fatal("BuildSpec accepted a spec with a negative MED")
	}
}

// TestSaveLoadRoundTrip checks Save's output reloads into an equivalent
// system, BGP id overrides included.
func TestSaveLoadRoundTrip(t *testing.T) {
	sys, err := Load(strings.NewReader(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		t.Fatal(err)
	}
	sys2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Save output does not reload: %v\n%s", err, buf.String())
	}
	if sys2.N() != sys.N() || sys2.NumClusters() != sys.NumClusters() {
		t.Fatalf("round trip changed shape: N %d->%d, clusters %d->%d",
			sys.N(), sys2.N(), sys.NumClusters(), sys2.NumClusters())
	}
	for u := 0; u < sys.N(); u++ {
		if sys2.BGPID(bgp.NodeID(u)) != sys.BGPID(bgp.NodeID(u)) {
			t.Fatalf("BGP id not preserved for node %q", sys.Name(bgp.NodeID(u)))
		}
	}
}
