package lint

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/topology"
)

// certificatePass emits informational safety certificates: sufficient
// conditions under which classic I-BGP provably converges, so a PASS
// verdict can say *why* the configuration is safe rather than merely that
// no risk pattern fired.
//
// Certificates emitted:
//
//   - full-mesh: every router is a client-less reflector and no
//     confed-BGP session exists. Route reflection then hides nothing;
//     with additionally MED-free selection (below) the system is an
//     instance the paper's Section 2 analysis covers and classic I-BGP
//     converges.
//   - med-free-selection: among the rule-1/2 survivors every neighbouring
//     AS announces a single MED value, so rule 3 never eliminates a
//     route based on visibility. Selection degenerates to the
//     shortest-path comparison whose stable solution always exists.
//   - monotone-hierarchy: every reflector weakly prefers (by IGP metric)
//     its best own-subtree exit to every foreign exit, so no preference
//     edge between reflectors exists at all and the dispute digraph of
//     the dispute-cycle pass is empty.
//
// Certificates are heuristic *sufficient* conditions: their absence is
// not a finding (deciding stability exactly is NP-complete, Section 5).
func certificatePass() Pass {
	p := Pass{
		Name: "safety-certificate",
		Doc:  "sufficient conditions under which classic I-BGP provably converges",
		Ref:  "Section 2; Section 5",
	}
	p.System = func(ctx *Context) []Finding {
		sys := ctx.Sys
		var out []Finding
		n := sys.N()

		// Confed sessions carry only the best route under classic I-BGP,
		// so a confederation hides routes although every member is a
		// client-less reflector; the subtree comparison of the
		// monotone-hierarchy certificate is vacuous there as well.
		confed := sys.HasConfedSessions()
		fullMesh := !confed
		for u := 0; u < n && fullMesh; u++ {
			if sys.Role(bgp.NodeID(u)) != topology.Reflector || len(sys.ClusterMembers(sys.Cluster(bgp.NodeID(u)))) != 1 {
				fullMesh = false
			}
		}
		if fullMesh {
			out = append(out, Finding{
				Pass: p.Name, Severity: Info, Ref: "Section 2",
				Detail: fmt.Sprintf("full-mesh: all %d routers are client-less reflectors; route reflection hides no routes", n),
			})
		}

		cands := ctx.Cands
		medByAS := map[bgp.ASN]int{}
		medFree := true
		for _, e := range cands {
			if med, ok := medByAS[e.NextAS]; ok && med != e.MED {
				medFree = false
				break
			}
			medByAS[e.NextAS] = e.MED
		}
		if medFree {
			out = append(out, Finding{
				Pass: p.Name, Severity: Info, Ref: "Section 2; Section 6",
				Detail: "med-free-selection: every neighbouring AS announces a single MED among the rule-1/2 survivors, " +
					"so MED elimination never depends on route visibility",
			})
		}

		monotone := true
		for u := 0; u < n && monotone; u++ {
			r := bgp.NodeID(u)
			if sys.Role(r) != topology.Reflector {
				continue
			}
			var bestOwn int64 = -1
			for _, e := range cands {
				if e.ExitPoint != r && sys.BelowOrSelf(r, e.ExitPoint) {
					if m := sys.Metric(r, e); bestOwn < 0 || m < bestOwn {
						bestOwn = m
					}
				}
			}
			if bestOwn < 0 {
				continue
			}
			for _, e := range cands {
				if !sys.BelowOrSelf(r, e.ExitPoint) && sys.Metric(r, e) < bestOwn {
					monotone = false
					break
				}
			}
		}
		if monotone && !fullMesh && !confed {
			out = append(out, Finding{
				Pass: p.Name, Severity: Info, Ref: "Section 3, Figure 2 (contrapositive)",
				Detail: "monotone-hierarchy: every reflector weakly prefers its own subtree's exits by IGP metric, " +
					"so the cross-cluster preference digraph has no edges",
			})
		}
		return out
	}
	return p
}
