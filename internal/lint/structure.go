package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/topology"
)

// specNodes inventories the routers a spec declares, in declaration order.
// Duplicate declarations are kept so the structural passes can report them.
// Confederation members are reflectors with cluster -1 and their sub-AS
// recorded; cluster routers have subAS -1.
type specNode struct {
	name      string
	cluster   int
	subAS     int
	reflector bool
}

func specInventory(spec *topology.Spec) []specNode {
	var nodes []specNode
	for ci, c := range spec.Clusters {
		for _, n := range c.Reflectors {
			nodes = append(nodes, specNode{name: n, cluster: ci, subAS: -1, reflector: true})
		}
		for _, n := range c.Clients {
			nodes = append(nodes, specNode{name: n, cluster: ci, subAS: -1, reflector: false})
		}
	}
	for si, members := range spec.SubASes {
		for _, n := range members {
			nodes = append(nodes, specNode{name: n, cluster: -1, subAS: si, reflector: true})
		}
	}
	return nodes
}

// clusterStructurePass checks the cluster skeleton: every cluster has a
// reflector and at least one member, parent references stay inside the
// declared clusters and form a forest (no cycles, no self-parents), and no
// router is declared twice — a router serving as both reflector and client
// or sitting in two clusters breaks the acyclic reflection hierarchy the
// paper's model assumes. A confederation spec declares sub-ASes instead,
// each with at least one member.
func clusterStructurePass() Pass {
	p := Pass{
		Name: "cluster-structure",
		Doc:  "clusters have reflectors, parents form a forest, nodes have one role",
		Ref:  "Section 4, model constraints 1-4",
	}
	p.Spec = func(spec *topology.Spec) []Finding {
		var out []Finding
		switch {
		case len(spec.Clusters) == 0 && len(spec.SubASes) == 0:
			return []Finding{{
				Pass: p.Name, Severity: Error, Ref: p.Ref,
				Detail: "no clusters declared",
			}}
		case len(spec.Clusters) > 0 && len(spec.SubASes) > 0:
			return []Finding{{
				Pass: p.Name, Severity: Error, Ref: p.Ref,
				Detail: "spec declares both clusters and confederation sub-ASes",
			}}
		}
		for si, members := range spec.SubASes {
			if len(members) == 0 {
				out = append(out, Finding{
					Pass: p.Name, Severity: Error, Ref: p.Ref,
					Detail: fmt.Sprintf("sub-AS %d is empty", si),
				})
			}
		}
		for ci, c := range spec.Clusters {
			if len(c.Reflectors) == 0 {
				f := Finding{
					Pass: p.Name, Severity: Error, Ref: p.Ref,
					Nodes:  append([]string(nil), c.Clients...),
					Detail: fmt.Sprintf("cluster %d has no route reflector", ci),
				}
				if len(c.Clients) > 0 {
					f.Detail = fmt.Sprintf(
						"cluster %d has clients %s but no route reflector; the clients cannot learn or announce any I-BGP route",
						ci, strings.Join(c.Clients, ", "))
				}
				out = append(out, f)
			}
			if len(c.Reflectors)+len(c.Clients) == 0 {
				out = append(out, Finding{
					Pass: p.Name, Severity: Error, Ref: p.Ref,
					Detail: fmt.Sprintf("cluster %d is empty", ci),
				})
			}
			if c.Parent != nil && (*c.Parent < 0 || *c.Parent >= len(spec.Clusters)) {
				out = append(out, Finding{
					Pass: p.Name, Severity: Error, Ref: p.Ref,
					Detail: fmt.Sprintf("cluster %d references unknown parent cluster %d", ci, *c.Parent),
				})
			}
		}
		// Parent cycles: follow parent pointers from every cluster; a
		// revisit inside the current walk is a cycle (non-hierarchical
		// reflection — the reflection graph must be acyclic).
		reported := make([]bool, len(spec.Clusters))
		for start := range spec.Clusters {
			onWalk := map[int]bool{}
			order := []int{}
			for ci := start; ; {
				if onWalk[ci] {
					// Trim the walk to the cycle itself.
					var cyc []string
					for i, c := range order {
						if c == ci {
							for _, k := range order[i:] {
								cyc = append(cyc, fmt.Sprintf("cluster %d", k))
							}
							break
						}
					}
					if !reported[ci] {
						for _, k := range order {
							reported[k] = true
						}
						out = append(out, Finding{
							Pass: p.Name, Severity: Error, Ref: p.Ref,
							Detail: fmt.Sprintf("reflection hierarchy contains a cluster cycle: %s",
								strings.Join(cyc, " -> ")),
						})
					}
					break
				}
				onWalk[ci] = true
				order = append(order, ci)
				c := spec.Clusters[ci]
				if c.Parent == nil || *c.Parent < 0 || *c.Parent >= len(spec.Clusters) {
					break
				}
				ci = *c.Parent
			}
		}
		// Duplicate declarations.
		first := map[string]specNode{}
		for _, n := range specInventory(spec) {
			prev, dup := first[n.name]
			if !dup {
				first[n.name] = n
				continue
			}
			detail := fmt.Sprintf("router %q is declared twice (clusters %d and %d)", n.name, prev.cluster, n.cluster)
			if n.subAS >= 0 {
				detail = fmt.Sprintf("router %q is declared twice (sub-ASes %d and %d)", n.name, prev.subAS, n.subAS)
			}
			if prev.reflector != n.reflector {
				rc, cc := prev.cluster, n.cluster
				if n.reflector {
					rc, cc = n.cluster, prev.cluster
				}
				detail = fmt.Sprintf(
					"router %q is both a reflector (cluster %d) and a client (cluster %d) — non-hierarchical reflection",
					n.name, rc, cc)
			}
			out = append(out, Finding{
				Pass: p.Name, Severity: Error, Ref: p.Ref,
				Nodes: []string{n.name}, Detail: detail,
			})
		}
		return out
	}
	return p
}

// nodeReferencesPass checks that links, client and confed sessions, exits
// and BGP id overrides reference declared routers only, and that links do
// not connect a router to itself.
func nodeReferencesPass() Pass {
	p := Pass{
		Name: "node-references",
		Doc:  "links, sessions, exits and BGP ids reference declared routers",
		Ref:  "Section 4, Modeling Communication",
	}
	p.Spec = func(spec *topology.Spec) []Finding {
		declared := map[string]bool{}
		for _, n := range specInventory(spec) {
			declared[n.name] = true
		}
		var out []Finding
		unknown := func(kind, name string) {
			out = append(out, Finding{
				Pass: p.Name, Severity: Error, Ref: p.Ref,
				Nodes:  []string{name},
				Detail: fmt.Sprintf("%s references unknown router %q", kind, name),
			})
		}
		for i, l := range spec.Links {
			if !declared[l.A] {
				unknown(fmt.Sprintf("link %d", i), l.A)
			}
			if !declared[l.B] {
				unknown(fmt.Sprintf("link %d", i), l.B)
			}
			if l.A == l.B {
				out = append(out, Finding{
					Pass: p.Name, Severity: Error, Ref: p.Ref,
					Nodes:  []string{l.A},
					Detail: fmt.Sprintf("link %d connects %q to itself", i, l.A),
				})
			}
		}
		for _, kind := range []struct {
			name     string
			sessions []topology.SessionSpec
		}{{"client", spec.ClientSessions}, {"confed", spec.ConfedSessions}} {
			for i, s := range kind.sessions {
				for _, name := range []string{s.A, s.B} {
					if !declared[name] {
						unknown(fmt.Sprintf("%s session %d", kind.name, i), name)
					}
				}
			}
		}
		for i, e := range spec.Exits {
			if !declared[e.At] {
				unknown(fmt.Sprintf("exit %d", i), e.At)
			}
		}
		names := make([]string, 0, len(spec.BGPIDs))
		for name := range spec.BGPIDs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if !declared[name] {
				unknown("bgpIds override", name)
			}
		}
		return out
	}
	return p
}

// attributesPass checks value ranges: non-negative MED, LOCAL-PREF, exit
// and link costs. The selection procedure compares these with plain integer
// order; negative values have no protocol meaning.
func attributesPass() Pass {
	p := Pass{
		Name: "attributes",
		Doc:  "MED, LOCAL-PREF and costs are non-negative",
		Ref:  "Section 2, route selection attributes",
	}
	p.Spec = func(spec *topology.Spec) []Finding {
		var out []Finding
		for i, l := range spec.Links {
			if l.Cost < 0 {
				out = append(out, Finding{
					Pass: p.Name, Severity: Error, Ref: p.Ref,
					Nodes:  []string{l.A, l.B},
					Detail: fmt.Sprintf("link %d (%s-%s) has negative cost %d", i, l.A, l.B, l.Cost),
				})
			}
		}
		for i, e := range spec.Exits {
			bad := func(attr string, v int64) {
				out = append(out, Finding{
					Pass: p.Name, Severity: Error, Ref: p.Ref,
					Nodes:  []string{e.At},
					Detail: fmt.Sprintf("exit %d at %q has malformed %s %d (must be non-negative)", i, e.At, attr, v),
				})
			}
			if e.MED < 0 {
				bad("MED", int64(e.MED))
			}
			if e.LocalPref < 0 {
				bad("LOCAL-PREF", int64(e.LocalPref))
			}
			if e.ExitCost < 0 {
				bad("exit cost", e.ExitCost)
			}
		}
		return out
	}
	return p
}

// giConnectivityPass derives the I-BGP session set a spec induces — full
// mesh among top-level reflectors (per sub-AS in a confederation),
// reflector-to-served-member within each cluster, declared client and
// confed sessions — and checks that the logical graph
// G_I is connected. Routers outside the connected component (for example
// the clients of a reflector-less cluster) can never learn remote routes.
func giConnectivityPass() Pass {
	p := Pass{
		Name: "gi-connectivity",
		Doc:  "the logical session graph G_I is connected",
		Ref:  "Section 4, the logical graph G_I",
	}
	p.Spec = func(spec *topology.Spec) []Finding {
		nodes := specInventory(spec)
		if len(nodes) == 0 {
			return nil
		}
		// Index only the first declaration of each name; duplicates are
		// cluster-structure findings.
		idx := map[string]int{}
		for i, n := range nodes {
			if _, ok := idx[n.name]; !ok {
				idx[n.name] = i
			}
		}
		adj := make([][]int, len(nodes))
		connect := func(a, b int) {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		// Full mesh among top-level reflectors of one sub-AS (all of them
		// outside a confederation).
		var topRRs []int
		for i, n := range nodes {
			if n.subAS >= 0 || (n.reflector && spec.Clusters[n.cluster].Parent == nil) {
				topRRs = append(topRRs, i)
			}
		}
		for i := 0; i < len(topRRs); i++ {
			for j := i + 1; j < len(topRRs); j++ {
				if nodes[topRRs[i]].subAS == nodes[topRRs[j]].subAS {
					connect(topRRs[i], topRRs[j])
				}
			}
		}
		// Reflector-to-served-member within each cluster: own clients plus
		// the reflectors of sub-clusters.
		for ci := range spec.Clusters {
			var rrs, served []int
			for i, n := range nodes {
				switch {
				case n.cluster == ci && n.reflector:
					rrs = append(rrs, i)
				case n.cluster == ci:
					served = append(served, i)
				case n.reflector && n.cluster >= 0 &&
					spec.Clusters[n.cluster].Parent != nil && *spec.Clusters[n.cluster].Parent == ci:
					served = append(served, i)
				}
			}
			for _, r := range rrs {
				for _, m := range served {
					connect(r, m)
				}
			}
		}
		for _, sessions := range [][]topology.SessionSpec{spec.ClientSessions, spec.ConfedSessions} {
			for _, s := range sessions {
				a, okA := idx[s.A]
				b, okB := idx[s.B]
				if okA && okB {
					connect(a, b)
				}
			}
		}
		// BFS rooted at the first top-level reflector (the core of the
		// session graph is the reflector mesh), so the cut set names the
		// orphaned routers; fall back to the first node.
		root := 0
		if len(topRRs) > 0 {
			root = topRRs[0]
		}
		seen := make([]bool, len(nodes))
		queue := []int{root}
		seen[root] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		var cut []string
		for i, n := range nodes {
			if !seen[i] {
				cut = append(cut, n.name)
			}
		}
		if len(cut) == 0 {
			return nil
		}
		sort.Strings(cut)
		return []Finding{{
			Pass: p.Name, Severity: Error, Ref: p.Ref,
			Nodes: cut,
			Detail: fmt.Sprintf("logical graph G_I is disconnected: %s unreachable from %q over I-BGP sessions",
				strings.Join(cut, ", "), nodes[root].name),
		}}
	}
	return p
}
