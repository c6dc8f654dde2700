// Package topology models the logical graph G_I of Section 4: the I-BGP
// peering sessions of AS0 organised into route-reflection clusters, layered
// over the physical graph G_P from package igp.
//
// A System bundles the physical graph, the cluster structure, the session
// set and the exit paths injected into the AS, and exposes the Transfer
// relation that governs which exit paths an I-BGP speaker may announce to
// which peer (the three cases of Section 4, "Modeling Communication").
//
// A System may instead describe a BGP confederation (RFC 5065), the other
// full-mesh alternative: the AS is partitioned into member sub-ASes, each
// internally fully meshed, joined by confed-BGP sessions between border
// routers. Every router is then the client-less reflector of a cluster of
// its own (the FullMesh convention), the reflector mesh stops at the
// sub-AS boundary, and Transfers gains the confed-session cases.
package topology

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bgp"
	"repro/internal/igp"
)

// Role distinguishes route reflectors from their clients.
type Role int

const (
	// Reflector marks a route reflector; reflectors form a full I-BGP mesh
	// across clusters.
	Reflector Role = iota
	// Client marks a client router; clients peer only with the reflectors
	// of their own cluster (and optionally with same-cluster clients).
	Client
)

func (r Role) String() string {
	if r == Reflector {
		return "reflector"
	}
	return "client"
}

// System is an immutable description of one autonomous system: routers,
// physical links, cluster structure, I-BGP sessions and the exit paths for
// the single destination d. Build one with a Builder.
type System struct {
	names     []string
	roles     []Role
	cluster   []int // cluster index per node
	parent    []int // parent cluster per cluster; -1 for top level
	phys      *igp.Graph
	sessions  [][]bgp.NodeID // sorted peer lists
	sessionAt [][]bool
	servedBy  [][]bool // servedBy[c][r]: r reflects a cluster serving c
	below     [][]bool // below[r][x]: x is in r's service subtree (incl. r)
	exits     []bgp.ExitPath
	exitsAt   [][]bgp.PathID // exit paths per node
	bgpIDs    []int          // BGP identifier per node (for learnedFrom)
	ap        *igp.AllPairs
	clusters  [][]bgp.NodeID // members per cluster, sorted

	// Confederation tables; subAS is nil outside a confederation, and the
	// rest are nil when it has no confed sessions.
	subAS    []int    // member sub-AS per node
	numSub   int      // number of member sub-ASes
	confedAt [][]bool // confedAt[u][v]: u-v is a confed-BGP session
	subDist  [][]int  // hop distance in the sub-AS graph; numSub if unreachable
	ingress  [][]bool // ingress[v][x]: v has a confed peer closer to sub-AS x
}

// N returns the number of routers.
func (s *System) N() int { return len(s.roles) }

// Name returns the human-readable name of node u.
func (s *System) Name(u bgp.NodeID) string { return s.names[u] }

// NodeByName returns the node with the given name.
func (s *System) NodeByName(name string) (bgp.NodeID, bool) {
	for i, n := range s.names {
		if n == name {
			return bgp.NodeID(i), true
		}
	}
	return -1, false
}

// Role returns whether u is a reflector or a client.
func (s *System) Role(u bgp.NodeID) Role { return s.roles[u] }

// Cluster returns the cluster index of u.
func (s *System) Cluster(u bgp.NodeID) int { return s.cluster[u] }

// NumClusters returns the number of clusters.
func (s *System) NumClusters() int { return len(s.clusters) }

// ClusterMembers returns the members of cluster i in increasing node order.
func (s *System) ClusterMembers(i int) []bgp.NodeID { return s.clusters[i] }

// Phys returns the physical graph G_P.
func (s *System) Phys() *igp.Graph { return s.phys }

// Paths returns the cached all-pairs shortest paths over G_P.
func (s *System) Paths() *igp.AllPairs { return s.ap }

// BGPID returns the BGP identifier of node u, used as learnedFrom when u
// announces routes over I-BGP.
func (s *System) BGPID(u bgp.NodeID) int { return s.bgpIDs[u] }

// Peers returns u's I-BGP peers in increasing node order.
func (s *System) Peers(u bgp.NodeID) []bgp.NodeID { return s.sessions[u] }

// HasSession reports whether u and v maintain an I-BGP session.
func (s *System) HasSession(u, v bgp.NodeID) bool { return u != v && s.sessionAt[u][v] }

// Exits returns all exit paths, indexed by PathID.
func (s *System) Exits() []bgp.ExitPath { return s.exits }

// NumExits returns the number of exit paths.
func (s *System) NumExits() int { return len(s.exits) }

// Exit returns the exit path with the given id.
func (s *System) Exit(id bgp.PathID) bgp.ExitPath { return s.exits[id] }

// MyExits returns the PathIDs of the exit paths whose exit point is u, in
// increasing order. This is the MyExits(v) of Section 4.
func (s *System) MyExits(u bgp.NodeID) []bgp.PathID { return s.exitsAt[u] }

// MyExitSet returns MyExits(u) as a PathSet.
func (s *System) MyExitSet(u bgp.NodeID) bgp.PathSet {
	return bgp.NewPathSet(s.exitsAt[u]...)
}

// AllExitSet returns the set of every exit path in the system.
func (s *System) AllExitSet() bgp.PathSet {
	var ps bgp.PathSet
	for i := range s.exits {
		ps.Add(bgp.PathID(i))
	}
	return ps
}

// ServedBy reports whether r reflects a cluster that c belongs to as a
// served member — c is r's client in the generalized sense. In a
// multi-level hierarchy the reflectors of a sub-cluster are served members
// of the parent cluster.
func (s *System) ServedBy(c, r bgp.NodeID) bool { return s.servedBy[c][r] }

// BelowOrSelf reports whether x lies in r's service subtree: x == r, or x
// is served (transitively) by r.
func (s *System) BelowOrSelf(r, x bgp.NodeID) bool { return s.below[r][x] }

// ClusterParent returns the parent cluster of cluster k, or -1 at the top
// level.
func (s *System) ClusterParent(k int) int { return s.parent[k] }

// SubAS returns the member sub-AS of u, or -1 outside a confederation.
func (s *System) SubAS(u bgp.NodeID) int {
	if s.subAS == nil {
		return -1
	}
	return s.subAS[u]
}

// NumSubASes returns the number of member sub-ASes (0 outside a
// confederation).
func (s *System) NumSubASes() int { return s.numSub }

// IsConfedSession reports whether u-v is a confed-BGP session between
// border routers of different sub-ASes.
func (s *System) IsConfedSession(u, v bgp.NodeID) bool {
	return s.confedAt != nil && s.confedAt[u][v]
}

// HasConfedSessions reports whether the system is a confederation with at
// least one confed-BGP session.
func (s *System) HasConfedSessions() bool { return s.confedAt != nil }

// Transfers implements the Transfer relation of Section 4, generalized to
// multi-level reflection hierarchies: it reports whether the exit path p
// may appear in an announcement from router v to router u, assuming v
// currently advertises p. The cases are:
//
//  1. p is v's own E-BGP route (exitPoint(p) = v);
//  2. routes from v's subtree are reflected up (to v's own reflector) and
//     across (to mesh peers and co-reflectors whose subtree does not
//     already contain the exit — co-reflectors of the same cluster hear
//     the client directly, matching the paper's "different clusters"
//     condition);
//  3. u is v's client and p's exit point is not in u's own subtree —
//     everything flows down, except back along the branch it came from.
//
// For two-level systems this coincides exactly with the paper's relation.
//
// A confederation adds two cases. Let X be the sub-AS of p's exit point
// and d the hop distance in the sub-AS graph:
//
//   - over a confed session, p passes iff d(sub(u), X) > d(sub(v), X):
//     AS_CONFED_SEQUENCE loop prevention as a static filter, a path only
//     moves away from its exit sub-AS;
//   - over an internal session, a path from a foreign sub-AS (X ≠ sub(v))
//     passes iff v is an ingress for X — it has a confed peer strictly
//     closer to X — and u is not. On a tree-shaped confederation each
//     sub-AS has one ingress per X, so the second condition only matters
//     with parallel confed sessions, where it stops two ingresses from
//     keeping each other's copy of a withdrawn path alive.
//
// Local paths inside a sub-AS follow the full-mesh rule (case 1 only).
// Each transfer moves a path farther from X in the sub-AS graph, or from
// an ingress to a non-ingress of the same sub-AS, so the per-path transfer
// graph stays acyclic and stale copies flush as in Lemma 7.2.
func (s *System) Transfers(v, u bgp.NodeID, p bgp.ExitPath) bool {
	if v == u || !s.sessionAt[v][u] {
		return false
	}
	// Case 1: v learned p via E-BGP.
	if p.ExitPoint == v {
		return true
	}
	if s.confedAt != nil {
		x := s.subAS[p.ExitPoint]
		if s.confedAt[v][u] {
			return s.subDist[s.subAS[u]][x] > s.subDist[s.subAS[v]][x]
		}
		if x != s.subAS[v] {
			return s.ingress[v][x] && !s.ingress[u][x]
		}
	}
	if s.servedBy[u][v] {
		// Case 3: down to a client; never echo into the originating branch.
		return !s.below[u][p.ExitPoint]
	}
	if !s.below[v][p.ExitPoint] || p.ExitPoint == v {
		return false // only subtree routes flow up or across
	}
	if s.servedBy[v][u] {
		return true // up to v's own reflector
	}
	// Across: mesh peers and co-reflectors, unless they already serve the
	// exit themselves.
	return !s.below[u][p.ExitPoint]
}

// Level returns level_p(u) from Section 7: the announcement distance of u
// from p's exit point in the reflection hierarchy (0 at the exit point, up
// to 3 at clients of other clusters).
func (s *System) Level(p bgp.ExitPath, u bgp.NodeID) int {
	v := p.ExitPoint
	if u == v {
		return 0
	}
	ci := s.cluster[v]
	switch {
	case s.roles[u] == Reflector && s.cluster[u] == ci:
		return 1
	case s.roles[u] == Client && s.cluster[u] == ci:
		return 2
	case s.roles[u] == Reflector:
		return 2
	default:
		return 3
	}
}

// Metric returns metric(route(p, u)) = cost(SP(u, exitPoint(p))) plus the
// exit cost, or igp.Infinity when the exit point is unreachable.
func (s *System) Metric(u bgp.NodeID, p bgp.ExitPath) int64 {
	d := s.ap.Dist(u, p.ExitPoint)
	if d == igp.Infinity {
		return igp.Infinity
	}
	return d + p.ExitCost
}

// Route materialises route(p, u) with the given learnedFrom value.
func (s *System) Route(u bgp.NodeID, p bgp.ExitPath, learnedFrom int) bgp.Route {
	return bgp.Route{Path: p, At: u, Metric: s.Metric(u, p), LearnedFrom: learnedFrom}
}

// Builder assembles a System incrementally. The zero value is not usable;
// call NewBuilder.
type Builder struct {
	names      []string
	roles      []Role
	cluster    []int
	parents    []int
	numCluster int
	links      []link
	extraSess  []pair
	exits      []bgp.ExitPath
	bgpIDs     []int
	subAS      []int // member sub-AS per node, -1 for none
	numSub     int
	confedSess []pair
	err        error
}

type link struct {
	u, v bgp.NodeID
	w    int64
}

type pair struct{ u, v bgp.NodeID }

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// NewCluster starts a new (initially empty) top-level cluster and returns
// its index. Top-level reflectors form the full I-BGP mesh.
func (b *Builder) NewCluster() int {
	b.numCluster++
	b.parents = append(b.parents, -1)
	return b.numCluster - 1
}

// SubCluster starts a new cluster nested under parent, building a
// multi-level reflection hierarchy (the deeper hierarchies Section 2
// mentions beyond the paper's two-level analysis). The sub-cluster's
// reflectors automatically become served clients of the parent cluster's
// reflectors.
func (b *Builder) SubCluster(parent int) int {
	if b.err == nil && (parent < 0 || parent >= b.numCluster) {
		b.err = fmt.Errorf("topology: SubCluster references unknown cluster %d", parent)
	}
	b.numCluster++
	b.parents = append(b.parents, parent)
	return b.numCluster - 1
}

func (b *Builder) addNode(name string, role Role, cluster int) bgp.NodeID {
	if b.err != nil {
		return -1
	}
	if cluster < 0 || cluster >= b.numCluster {
		b.err = fmt.Errorf("topology: node %q references unknown cluster %d", name, cluster)
		return -1
	}
	if name == "" {
		name = fmt.Sprintf("v%d", len(b.names))
	}
	for _, n := range b.names {
		if n == name {
			b.err = fmt.Errorf("topology: duplicate node name %q", name)
			return -1
		}
	}
	id := bgp.NodeID(len(b.names))
	b.names = append(b.names, name)
	b.roles = append(b.roles, role)
	b.cluster = append(b.cluster, cluster)
	b.bgpIDs = append(b.bgpIDs, 1000+int(id))
	b.subAS = append(b.subAS, -1)
	return id
}

// Reflector adds a route reflector named name to the given cluster.
func (b *Builder) Reflector(name string, cluster int) bgp.NodeID {
	return b.addNode(name, Reflector, cluster)
}

// Client adds a client router named name to the given cluster.
func (b *Builder) Client(name string, cluster int) bgp.NodeID {
	return b.addNode(name, Client, cluster)
}

// NewSubAS starts a new (initially empty) member sub-AS of a confederation
// and returns its index.
func (b *Builder) NewSubAS() int {
	b.numSub++
	return b.numSub - 1
}

// Member adds a router named name to member sub-AS sub of a confederation.
// The router is the client-less reflector of a cluster of its own, so the
// reflector mesh — which stops at the sub-AS boundary — is the sub-AS's
// internal full mesh.
func (b *Builder) Member(name string, sub int) bgp.NodeID {
	if b.err == nil && (sub < 0 || sub >= b.numSub) {
		b.err = fmt.Errorf("topology: router %q references unknown sub-AS %d", name, sub)
	}
	u := b.addNode(name, Reflector, b.NewCluster())
	if u >= 0 {
		b.subAS[u] = sub
	}
	return u
}

// ConfedSession adds a confed-BGP session between border routers of two
// different sub-ASes.
func (b *Builder) ConfedSession(u, v bgp.NodeID) *Builder {
	if b.err == nil {
		b.confedSess = append(b.confedSess, pair{u, v})
	}
	return b
}

// SetBGPID overrides the BGP identifier of node u (default 1000+u).
func (b *Builder) SetBGPID(u bgp.NodeID, id int) *Builder {
	if b.err == nil {
		if int(u) < 0 || int(u) >= len(b.bgpIDs) {
			b.err = fmt.Errorf("topology: SetBGPID: unknown node %d", u)
			return b
		}
		b.bgpIDs[u] = id
	}
	return b
}

// Link adds a physical (IGP) link of cost w between u and v.
func (b *Builder) Link(u, v bgp.NodeID, w int64) *Builder {
	if b.err == nil {
		b.links = append(b.links, link{u, v, w})
	}
	return b
}

// ClientSession adds an optional I-BGP session between two clients of the
// same cluster (permitted by the model's constraint 4).
func (b *Builder) ClientSession(u, v bgp.NodeID) *Builder {
	if b.err == nil {
		b.extraSess = append(b.extraSess, pair{u, v})
	}
	return b
}

// ExitSpec describes an exit path to inject at a router.
type ExitSpec struct {
	LocalPref int
	ASPathLen int
	NextAS    bgp.ASN
	MED       int
	ExitCost  int64
	NextHopID int
	TieBreak  int // < 0 for "use announcing peer's BGP id"
}

// Exit injects an exit path at router u and returns its PathID.
func (b *Builder) Exit(u bgp.NodeID, spec ExitSpec) bgp.PathID {
	if b.err != nil {
		return bgp.None
	}
	if int(u) < 0 || int(u) >= len(b.names) {
		b.err = fmt.Errorf("topology: Exit: unknown node %d", u)
		return bgp.None
	}
	id := bgp.PathID(len(b.exits))
	nh := spec.NextHopID
	if nh == 0 {
		nh = 2000 + int(id)
	}
	tb := spec.TieBreak
	if tb == 0 {
		tb = -1
	}
	if spec.ASPathLen <= 0 {
		spec.ASPathLen = 1
	}
	b.exits = append(b.exits, bgp.ExitPath{
		ID:        id,
		LocalPref: spec.LocalPref,
		ASPathLen: spec.ASPathLen,
		NextAS:    spec.NextAS,
		MED:       spec.MED,
		ExitPoint: u,
		ExitCost:  spec.ExitCost,
		NextHopID: nh,
		TieBreak:  tb,
	})
	return id
}

// Build validates the configuration and returns the immutable System.
//
// Validation enforces the structural constraints of Section 4: every
// cluster has at least one reflector, the physical graph is connected, and
// the session set is exactly the one induced by the cluster structure (full
// reflector mesh, client-reflector within clusters, plus any declared
// same-cluster client-client sessions).
func (b *Builder) Build() (*System, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.names)
	if n == 0 {
		return nil, errors.New("topology: no routers")
	}
	// Cluster membership and reflector presence.
	clusters := make([][]bgp.NodeID, b.numCluster)
	hasRR := make([]bool, b.numCluster)
	for i := 0; i < n; i++ {
		c := b.cluster[i]
		clusters[c] = append(clusters[c], bgp.NodeID(i))
		if b.roles[i] == Reflector {
			hasRR[c] = true
		}
	}
	for c := 0; c < b.numCluster; c++ {
		if len(clusters[c]) == 0 {
			return nil, fmt.Errorf("topology: cluster %d is empty", c)
		}
		if !hasRR[c] {
			return nil, fmt.Errorf("topology: cluster %d has no route reflector", c)
		}
	}
	// BGP identifiers must be unique (they are selection tie-breakers).
	seenID := make(map[int]bgp.NodeID)
	for i, id := range b.bgpIDs {
		if prev, dup := seenID[id]; dup {
			return nil, fmt.Errorf("topology: nodes %q and %q share BGP id %d", b.names[prev], b.names[i], id)
		}
		seenID[id] = bgp.NodeID(i)
	}
	if err := b.checkConfed(); err != nil {
		return nil, err
	}
	// Physical graph.
	phys := igp.New(n)
	for _, l := range b.links {
		if err := phys.AddEdge(l.u, l.v, l.w); err != nil {
			return nil, err
		}
	}
	if !phys.Connected() {
		return nil, errors.New("topology: physical graph is not connected")
	}
	// Served-member sets: each cluster serves its clients plus the
	// reflectors of its sub-clusters.
	servedOf := make([][]bgp.NodeID, b.numCluster) // served members per cluster
	for i := 0; i < n; i++ {
		if b.roles[i] == Client {
			servedOf[b.cluster[i]] = append(servedOf[b.cluster[i]], bgp.NodeID(i))
		} else if p := b.parents[b.cluster[i]]; p >= 0 {
			servedOf[p] = append(servedOf[p], bgp.NodeID(i))
		}
	}
	reflectorsOf := make([][]bgp.NodeID, b.numCluster)
	for i := 0; i < n; i++ {
		if b.roles[i] == Reflector {
			reflectorsOf[b.cluster[i]] = append(reflectorsOf[b.cluster[i]], bgp.NodeID(i))
		}
	}

	// Sessions: full mesh among top-level reflectors (of one sub-AS, in a
	// confederation), plus reflector-to-served-member within each cluster.
	sessionAt := make([][]bool, n)
	servedBy := make([][]bool, n)
	for i := range sessionAt {
		sessionAt[i] = make([]bool, n)
		servedBy[i] = make([]bool, n)
	}
	addSess := func(u, v bgp.NodeID) {
		sessionAt[u][v] = true
		sessionAt[v][u] = true
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			uID, vID := bgp.NodeID(u), bgp.NodeID(v)
			if b.roles[u] == Reflector && b.roles[v] == Reflector &&
				b.parents[b.cluster[u]] < 0 && b.parents[b.cluster[v]] < 0 &&
				b.subAS[u] == b.subAS[v] {
				addSess(uID, vID)
			}
		}
	}
	for k := 0; k < b.numCluster; k++ {
		for _, r := range reflectorsOf[k] {
			for _, c := range servedOf[k] {
				addSess(r, c)
				servedBy[c][r] = true
			}
		}
	}

	// Service-subtree closure: below[r] = {r} ∪ ⋃ below[c] over the
	// members r serves. Clusters form a forest and parents always precede
	// children (SubCluster only accepts existing cluster indices), so a
	// single pass over reflectors in descending cluster order sees every
	// served member's subtree already complete: served members are either
	// same-cluster clients (whose subtree is themselves) or reflectors of
	// a strictly higher-numbered cluster. This replaces the previous
	// O(n³)-per-sweep fixpoint, which dominated Build at ISP scale.
	below := make([][]bool, n)
	for i := range below {
		below[i] = make([]bool, n)
		below[i][i] = true
	}
	servers := make([]bgp.NodeID, 0, n)
	for r := 0; r < n; r++ {
		servers = append(servers, bgp.NodeID(r))
	}
	sort.SliceStable(servers, func(i, j int) bool {
		return b.cluster[servers[i]] > b.cluster[servers[j]]
	})
	for _, r := range servers {
		for c := 0; c < n; c++ {
			if !servedBy[c][r] {
				continue
			}
			br, bc := below[r], below[c]
			for x := 0; x < n; x++ {
				if bc[x] {
					br[x] = true
				}
			}
		}
	}
	for _, p := range b.extraSess {
		if int(p.u) < 0 || int(p.u) >= n || int(p.v) < 0 || int(p.v) >= n || p.u == p.v {
			return nil, fmt.Errorf("topology: invalid client session %d-%d", p.u, p.v)
		}
		if b.roles[p.u] != Client || b.roles[p.v] != Client || b.cluster[p.u] != b.cluster[p.v] {
			return nil, fmt.Errorf("topology: client session %q-%q must join two clients of one cluster",
				b.names[p.u], b.names[p.v])
		}
		addSess(p.u, p.v)
	}
	var confedAt, ingress [][]bool
	var subDist [][]int
	if len(b.confedSess) > 0 {
		confedAt, subDist, ingress = b.confedTables(addSess)
	}
	sessions := make([][]bgp.NodeID, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if sessionAt[u][v] {
				sessions[u] = append(sessions[u], bgp.NodeID(v))
			}
		}
		sort.Slice(sessions[u], func(i, j int) bool { return sessions[u][i] < sessions[u][j] })
	}
	// Exit paths per node.
	exitsAt := make([][]bgp.PathID, n)
	for _, p := range b.exits {
		if p.LocalPref < 0 || p.MED < 0 || p.ExitCost < 0 {
			return nil, fmt.Errorf("topology: exit path %d has negative attribute", p.ID)
		}
		exitsAt[p.ExitPoint] = append(exitsAt[p.ExitPoint], p.ID)
	}
	sys := &System{
		names:     append([]string(nil), b.names...),
		roles:     append([]Role(nil), b.roles...),
		cluster:   append([]int(nil), b.cluster...),
		parent:    append([]int(nil), b.parents...),
		phys:      phys,
		sessions:  sessions,
		sessionAt: sessionAt,
		servedBy:  servedBy,
		below:     below,
		exits:     append([]bgp.ExitPath(nil), b.exits...),
		exitsAt:   exitsAt,
		bgpIDs:    append([]int(nil), b.bgpIDs...),
		ap:        igp.NewAllPairs(phys),
		clusters:  clusters,
		numSub:    b.numSub,
		confedAt:  confedAt,
		subDist:   subDist,
		ingress:   ingress,
	}
	if b.numSub > 0 {
		sys.subAS = append([]int(nil), b.subAS...)
	}
	return sys, nil
}

// checkConfed validates a confederation: every router is a member of a
// sub-AS (which rules out clients and sub-clusters), no sub-AS is empty,
// and every confed session joins routers of two different sub-ASes.
func (b *Builder) checkConfed() error {
	if b.numSub == 0 {
		if len(b.confedSess) > 0 {
			return errors.New("topology: confed sessions need member sub-ASes")
		}
		return nil
	}
	members := make([]int, b.numSub)
	for u, sub := range b.subAS {
		switch {
		case b.roles[u] == Client:
			return fmt.Errorf("topology: confederation router %q is a client; sub-AS members are client-less reflectors", b.names[u])
		case b.parents[b.cluster[u]] >= 0:
			return fmt.Errorf("topology: confederation router %q sits in a sub-cluster", b.names[u])
		case sub < 0:
			return fmt.Errorf("topology: router %q is not a member of any sub-AS", b.names[u])
		}
		members[sub]++
	}
	for k, m := range members {
		if m == 0 {
			return fmt.Errorf("topology: sub-AS %d is empty", k)
		}
	}
	for _, p := range b.confedSess {
		if int(p.u) < 0 || int(p.u) >= len(b.names) || int(p.v) < 0 || int(p.v) >= len(b.names) {
			return fmt.Errorf("topology: confed session %d-%d references an unknown router", p.u, p.v)
		}
		if b.subAS[p.u] == b.subAS[p.v] {
			return fmt.Errorf("topology: confed session %q-%q lies within one sub-AS", b.names[p.u], b.names[p.v])
		}
	}
	return nil
}

// confedTables adds the confed sessions and precomputes what Transfers
// needs: the session kind per pair, hop distances in the sub-AS graph
// (BFS from every sub-AS), and which routers are ingresses for which
// sub-AS.
func (b *Builder) confedTables(addSess func(u, v bgp.NodeID)) (confedAt [][]bool, subDist [][]int, ingress [][]bool) {
	n, k := len(b.names), b.numSub
	confedAt = make([][]bool, n)
	for i := range confedAt {
		confedAt[i] = make([]bool, n)
	}
	adj := make([][]bool, k)
	for i := range adj {
		adj[i] = make([]bool, k)
	}
	for _, p := range b.confedSess {
		addSess(p.u, p.v)
		confedAt[p.u][p.v], confedAt[p.v][p.u] = true, true
		su, sv := b.subAS[p.u], b.subAS[p.v]
		adj[su][sv], adj[sv][su] = true, true
	}
	subDist = make([][]int, k)
	for x := range subDist {
		d := make([]int, k)
		for i := range d {
			d[i] = k
		}
		d[x] = 0
		for queue := []int{x}; len(queue) > 0; queue = queue[1:] {
			for t, ok := range adj[queue[0]] {
				if ok && d[t] == k {
					d[t] = d[queue[0]] + 1
					queue = append(queue, t)
				}
			}
		}
		subDist[x] = d
	}
	ingress = make([][]bool, n)
	for v := range ingress {
		ingress[v] = make([]bool, k)
	}
	for _, p := range b.confedSess {
		for _, vw := range [2][2]bgp.NodeID{{p.u, p.v}, {p.v, p.u}} {
			v, w := vw[0], vw[1]
			for x := 0; x < k; x++ {
				if subDist[b.subAS[w]][x] < subDist[b.subAS[v]][x] {
					ingress[v][x] = true
				}
			}
		}
	}
	return confedAt, subDist, ingress
}

// PrefixExit pairs an exit point with its attributes, for WithExits. It is
// ExitSpec plus the node the path is injected at (Builder.Exit's receiver
// argument, made explicit so overlay exit sets can be described as data).
type PrefixExit struct {
	At   bgp.NodeID
	Spec ExitSpec
}

// WithExits returns an overlay System: the same routers, sessions, cluster
// structure, physical graph and shortest paths as s — shared by reference,
// not copied — carrying a different exit-path set. This is how a
// multi-prefix domain represents P prefixes over one session graph without
// duplicating the O(n²) topological tables P times.
//
// Specs are normalized exactly like Builder.Exit (PathID = index, zero
// NextHopID defaults to 2000+id, zero TieBreak means "announcing peer's
// BGP id", non-positive ASPathLen becomes 1) and validated like Build
// (negative LocalPref/MED/ExitCost rejected).
func (s *System) WithExits(exits []PrefixExit) (*System, error) {
	n := s.N()
	out := *s // shallow copy: every topological table stays shared
	out.exits = make([]bgp.ExitPath, 0, len(exits))
	out.exitsAt = make([][]bgp.PathID, n)
	for i, e := range exits {
		if int(e.At) < 0 || int(e.At) >= n {
			return nil, fmt.Errorf("topology: WithExits: exit %d at unknown node %d", i, e.At)
		}
		if e.Spec.LocalPref < 0 || e.Spec.MED < 0 || e.Spec.ExitCost < 0 {
			return nil, fmt.Errorf("topology: exit path %d has negative attribute", i)
		}
		id := bgp.PathID(i)
		nh := e.Spec.NextHopID
		if nh == 0 {
			nh = 2000 + int(id)
		}
		tb := e.Spec.TieBreak
		if tb == 0 {
			tb = -1
		}
		al := e.Spec.ASPathLen
		if al <= 0 {
			al = 1
		}
		out.exits = append(out.exits, bgp.ExitPath{
			ID:        id,
			LocalPref: e.Spec.LocalPref,
			ASPathLen: al,
			NextAS:    e.Spec.NextAS,
			MED:       e.Spec.MED,
			ExitPoint: e.At,
			ExitCost:  e.Spec.ExitCost,
			NextHopID: nh,
			TieBreak:  tb,
		})
		out.exitsAt[e.At] = append(out.exitsAt[e.At], id)
	}
	return &out, nil
}

// SharesGraph reports whether o rides on the same underlying session graph
// as s: the same System, or a WithExits overlay of it (directly or through
// a common ancestor). The test is identity of the shared tables, so it is
// O(1) — independently-built but structurally equal systems report false
// and must be compared field by field.
func (s *System) SharesGraph(o *System) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || len(s.names) == 0 || len(o.names) == 0 {
		return false
	}
	return &s.names[0] == &o.names[0] && len(s.names) == len(o.names)
}

// FullMesh is a convenience constructor for fully-meshed I-BGP: n routers,
// each its own single-reflector cluster (the paper's note that full mesh is
// the special case of route reflection with client-less clusters).
func FullMesh(names ...string) (*Builder, []bgp.NodeID) {
	b := NewBuilder()
	ids := make([]bgp.NodeID, len(names))
	for i, name := range names {
		c := b.NewCluster()
		ids[i] = b.Reflector(name, c)
	}
	return b, ids
}
