package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"logsynergy/internal/httpapi"
	"logsynergy/internal/obs"
	"logsynergy/internal/shard"
)

// EpochHeader carries the manifest epoch on the router↔node data path:
// the router stamps every /ingest request with the epoch it routed
// under, and the node answers with the epoch it serves under. A node
// receiving a newer epoch than its own refreshes its manifest view
// before serving (or refuses with 409 if it cannot catch up) — the
// data-path half of fencing, so a node left behind by a failover's
// epoch bump cannot keep acking shares for partitions it no longer
// owns.
const EpochHeader = "X-Cluster-Epoch"

// NodeConfig assembles one cluster node.
type NodeConfig struct {
	// ManifestPath is the cluster.json location (required); Refresh
	// re-reads it, and a live cutover's journal lives next to it.
	ManifestPath string
	// Name is this node's name in the manifest.
	Name string
	// Runtime is the shard runtime template: Detector, Interp, Embedder,
	// Sink, Broker and Pipeline configs come from here. Shards, Vnodes
	// and Subset are overridden from the manifest; Dir falls back to the
	// manifest's shared-storage root when empty.
	Runtime shard.Config
	// MaxBatchBytes bounds one /ingest request body (<= 0 selects the
	// httpapi default).
	MaxBatchBytes int64
}

// Node is one host's slice of the fleet: a subset shard runtime over the
// partitions the manifest assigns to it, plus the HTTP surface the front
// router talks to (/ingest, /healthz, /metrics, /metrics.json,
// /admin/v1/*).
type Node struct {
	cfg  NodeConfig
	name string
	dir  string // runtime root (Runtime.Dir or the manifest's shared dir)
	rt   *shard.Runtime
	reg  *obs.Registry

	mu     sync.Mutex // guards m and leases across Refresh
	m      *Manifest
	leases map[int]*Lease // held partition fences, by partition index

	refreshes *obs.Counter
	adoptions *obs.Counter
	drops     *obs.Counter
}

// StartNode validates the manifest, acquires epoch leases (flock + epoch
// record) on the node's assigned partitions, and opens the subset shard
// runtime over them — crash recovery included, exactly as a
// single-process restart would.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: NodeConfig.Name is required")
	}
	m, err := Load(cfg.ManifestPath)
	if err != nil {
		return nil, err
	}
	if _, ok := m.Nodes[cfg.Name]; !ok {
		return nil, fmt.Errorf("cluster: node %q is not in the manifest (nodes: %v)", cfg.Name, m.NodeNames())
	}

	rcfg := cfg.Runtime
	if rcfg.Dir == "" {
		rcfg.Dir = m.Dir
	}
	if rcfg.Dir == "" {
		return nil, fmt.Errorf("cluster: no runtime directory (set Runtime.Dir or the manifest's dir)")
	}
	rcfg.Shards = m.Shards
	rcfg.Vnodes = m.Vnodes
	own := m.PartitionsOf(cfg.Name)
	rcfg.Subset = own
	if rcfg.Metrics == nil {
		rcfg.Metrics = obs.NewRegistry()
	}

	// A live-cutover journal next to the manifest is the single source
	// of truth for crash recovery: a node restarting mid-cutover opens
	// straight into the journaled protocol state (donors at the old
	// layout with the recorded freeze offsets, the destination with its
	// committed splices in its snapshot) and waits for the coordinator to
	// resume driving it.
	j, err := shard.LoadCutoverJournal(cutoverJournalPath(cfg.ManifestPath))
	if err != nil {
		return nil, err
	}
	if j != nil && j.To != m.Shards {
		if _, ok := m.Nodes[j.DestNode]; j.From != m.Shards || !ok {
			return nil, fmt.Errorf("cluster: cutover journal grows %d -> %d onto node %q but the manifest serves %d partitions on nodes %v",
				j.From, j.To, j.DestNode, m.Shards, m.NodeNames())
		}
		rcfg.Shards = j.To
		if j.DestNode == cfg.Name {
			own = append(append([]int{}, own...), j.To-1)
		}
		rcfg.Subset = own
		spec := j.Spec(j.DestNode == cfg.Name)
		rcfg.Cutover = &spec
	}

	// Fence before open: the flock refuses a partition whose owner is
	// still alive, and the epoch record refuses a lease from a newer
	// epoch (we hold a stale manifest) or another node's same-epoch
	// claim — all before any WAL handle is taken.
	leases := make(map[int]*Lease, len(own))
	releaseAll := func() {
		for _, l := range leases {
			l.Release()
		}
	}
	for _, p := range own {
		l, err := acquireLease(shard.PartitionDir(rcfg.Dir, p), m.Epoch, cfg.Name)
		if err != nil {
			releaseAll()
			return nil, err
		}
		leases[p] = l
	}

	rt, err := shard.Open(rcfg)
	if err != nil {
		releaseAll()
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		name:      cfg.Name,
		dir:       rcfg.Dir,
		rt:        rt,
		reg:       rcfg.Metrics,
		m:         m,
		leases:    leases,
		refreshes: rcfg.Metrics.Counter("cluster.node_refreshes_total"),
		adoptions: rcfg.Metrics.Counter("cluster.node_adoptions_total"),
		drops:     rcfg.Metrics.Counter("cluster.node_drops_total"),
	}
	rcfg.Metrics.Gauge("cluster.node_epoch").Set(int64(m.Epoch))
	return n, nil
}

// Runtime exposes the node's shard runtime (tests, shutdown plumbing).
func (n *Node) Runtime() *shard.Runtime { return n.rt }

// Name returns the node's manifest name.
func (n *Node) Name() string { return n.name }

// Epoch returns the manifest epoch the node is currently serving under.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m.Epoch
}

// Manifest returns the node's current manifest view.
func (n *Node) Manifest() *Manifest {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m
}

// RefreshReport says what a manifest refresh changed.
type RefreshReport struct {
	// Epoch is the manifest epoch after the refresh.
	Epoch uint64 `json:"epoch"`
	// Stale is true when the on-disk manifest was no newer than the
	// node's view (nothing changed).
	Stale bool `json:"stale,omitempty"`
	// Adopted lists partitions newly opened by this refresh (failover
	// handed them to us), ascending.
	Adopted []int `json:"adopted,omitempty"`
	// Dropped lists partitions released by this refresh (a newer epoch
	// assigned them elsewhere), ascending.
	Dropped []int `json:"dropped,omitempty"`
}

// Refresh re-reads the manifest and converges on what a newer epoch
// assigns to this node, in fencing order:
//
//  1. Partitions the new epoch assigns ELSEWHERE are dropped first —
//     the runtime closes them crash-style (no further writes to shared
//     storage; the committed state is exactly what the new owner's
//     crash recovery resumes) and only then releases the flock, so the
//     new owner's acquire cannot interleave with our writes. This is
//     how a deposed node (wedged through a failover, then recovering)
//     fences itself off the data path.
//  2. Partitions we keep are restaked at the new epoch (the flock never
//     drops).
//  3. Partitions newly assigned to us are leased and opened via the
//     shard runtime's crash-recovery path (WAL replay + exact tail
//     resume), which is what makes failover lose nothing that was ever
//     acknowledged.
//
// A node the new manifest no longer lists owns nothing: every partition
// is dropped and the node keeps serving as a spectator. A manifest with
// the same or older epoch is a no-op.
func (n *Node) Refresh() (RefreshReport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.refreshes.Inc()
	m, err := Load(n.cfg.ManifestPath)
	if err != nil {
		return RefreshReport{Epoch: n.m.Epoch, Stale: true}, err
	}
	if m.Epoch <= n.m.Epoch {
		return RefreshReport{Epoch: n.m.Epoch, Stale: true}, nil
	}
	if m.Vnodes != n.m.Vnodes || (m.Shards != n.m.Shards && n.rt.Shards() != m.Shards) {
		// The runtime keeps the ring it opened with: another vnode count
		// would leave this node hashing differently from the routers for
		// good. A shard count changes in place only as a live rebalance's
		// finish bump, after every runtime has restamped to the new layout.
		return RefreshReport{Epoch: n.m.Epoch, Stale: true},
			fmt.Errorf("cluster: manifest epoch %d changes the layout (shard count %d -> %d, vnodes %d -> %d); restart the node for a layout change",
				m.Epoch, n.m.Shards, m.Shards, n.m.Vnodes, m.Vnodes)
	}
	rep := RefreshReport{Epoch: m.Epoch}
	dir := n.cfg.Runtime.Dir
	if dir == "" {
		dir = m.Dir
	}
	assigned := map[int]bool{}
	for _, p := range m.PartitionsOf(n.name) {
		assigned[p] = true
	}

	// 1. Drop what the new epoch takes away: stop writing, then unlock.
	for p, l := range n.leases {
		if assigned[p] {
			continue
		}
		if p >= m.Shards {
			// The destination partition of an in-flight live cutover: the
			// manifest does not list it yet, but the lease (taken at
			// cutover begin) must hold until the finish bump assigns it.
			continue
		}
		if err := n.rt.DropPartition(p); err != nil {
			return rep, err
		}
		l.Release()
		delete(n.leases, p)
		n.drops.Inc()
		rep.Dropped = append(rep.Dropped, p)
	}

	// 2 + 3. Restake what we keep, lease and adopt what is new.
	for _, p := range m.PartitionsOf(n.name) {
		if l := n.leases[p]; l != nil {
			if err := l.Restake(m.Epoch, n.name); err != nil {
				return rep, err
			}
			continue
		}
		l, err := acquireLease(shard.PartitionDir(dir, p), m.Epoch, n.name)
		if err != nil {
			return rep, err
		}
		if err := n.rt.AdoptPartition(p); err != nil {
			l.Release()
			return rep, err
		}
		n.leases[p] = l
		n.adoptions.Inc()
		rep.Adopted = append(rep.Adopted, p)
	}
	sort.Ints(rep.Adopted)
	sort.Ints(rep.Dropped)
	n.m = m
	n.reg.Gauge("cluster.node_epoch").Set(int64(m.Epoch))
	return rep, nil
}

// HealthReport is the /healthz body: liveness plus per-partition
// lag/backlog, and the epoch the node serves under (the router treats a
// node reporting an older epoch than the manifest as not yet refreshed,
// never as dead).
type HealthReport struct {
	Node       string                  `json:"node"`
	Status     string                  `json:"status"`
	Epoch      uint64                  `json:"epoch"`
	Shards     int                     `json:"shards"`
	Partitions []shard.PartitionHealth `json:"partitions"`
}

// Health renders the node's current health report.
func (n *Node) Health() HealthReport {
	n.mu.Lock()
	epoch, shards := n.m.Epoch, n.m.Shards
	n.mu.Unlock()
	return HealthReport{
		Node:       n.name,
		Status:     "ok",
		Epoch:      epoch,
		Shards:     shards,
		Partitions: n.rt.Health(),
	}
}

// Handler returns the node's HTTP surface. Data path:
//
//	POST /ingest         the sharded intake over this node's partitions,
//	                     epoch-fenced: a request routed under a newer
//	                     manifest epoch (EpochHeader) makes the node
//	                     refresh first, and is refused with 409 if the
//	                     node cannot catch up; keys owned elsewhere
//	                     answer with a per-partition "not assigned"
//	                     rejection. Every answer carries the node's own
//	                     epoch in EpochHeader so a stale router reloads.
//	GET  /healthz        liveness + per-partition lag/backlog JSON
//	GET  /metrics        text metrics (runtime-merged, shard<i>. prefixed)
//	GET  /metrics.json   JSON snapshot for the router's federated scrape
//
// Admin surface, versioned under /admin/v1 (every answer is
// epoch-stamped and every non-2xx body carries the httpapi error
// envelope):
//
//	POST /admin/v1/refresh            re-read the manifest, adopt newly
//	                                  assigned partitions, drop deposed ones
//	GET  /admin/v1/status             node name, epoch, owned partitions,
//	                                  live-cutover phase, build info
//	POST /admin/v1/cutover/begin      flip this node into a journaled live
//	                                  cutover (body: shard.CutoverSpec)
//	POST /admin/v1/cutover/sync       record the moves the coordinator's
//	                                  journal committed
//	GET  /admin/v1/cutover/moves      moves still pending on owned donors
//	POST /admin/v1/cutover/capture    capture one move's splice from its donor
//	POST /admin/v1/cutover/install    apply a captured splice to its
//	                                  destination, durable in its snapshot
//	                                  before the answer (the transfer
//	                                  endpoint; body: shard.MoveSplice)
//	POST /admin/v1/cutover/finish     restamp every partition at the new layout
func (n *Node) Handler() http.Handler {
	mux := httpapi.Mux(httpapi.MuxOptions{Snapshot: n.rt.Snapshot})
	ingest := n.rt.IngestHandler(n.cfg.MaxBatchBytes)
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if !n.fenceEpoch(w, r) {
			return
		}
		ingest.ServeHTTP(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.Health())
	})
	stamp := func(h http.HandlerFunc) http.Handler { return httpapi.EpochStamp(EpochHeader, n.Epoch, h) }
	mux.Handle(httpapi.Prefix+"/refresh", stamp(n.handleRefresh))
	mux.Handle(httpapi.Prefix+"/status", stamp(n.handleStatus))
	mux.Handle(httpapi.Prefix+"/cutover/begin", stamp(n.handleCutoverBegin))
	mux.Handle(httpapi.Prefix+"/cutover/sync", stamp(n.handleCutoverSync))
	mux.Handle(httpapi.Prefix+"/cutover/moves", stamp(n.handleCutoverMoves))
	mux.Handle(httpapi.Prefix+"/cutover/capture", stamp(n.handleCutoverCapture))
	mux.Handle(httpapi.Prefix+"/cutover/install", stamp(n.handleCutoverInstall))
	mux.Handle(httpapi.Prefix+"/cutover/finish", stamp(n.handleCutoverFinish))
	return mux
}

// fenceEpoch applies the data-path epoch fence: a request stamped with
// a newer epoch than the node serves under triggers a refresh and is
// refused with 409 if the node still cannot catch up. Returns false
// when it wrote the refusal. Every answer carries the node's epoch.
func (n *Node) fenceEpoch(w http.ResponseWriter, r *http.Request) bool {
	if h := r.Header.Get(EpochHeader); h != "" {
		reqEpoch, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			w.Header().Set(EpochHeader, strconv.FormatUint(n.Epoch(), 10))
			httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{
				Code:    httpapi.CodeBadRequest,
				Message: "bad " + EpochHeader + " header: " + err.Error(),
			})
			return false
		}
		if reqEpoch > n.Epoch() {
			// Best-effort catch-up; the re-check below is the verdict.
			n.Refresh()
		}
		if cur := n.Epoch(); reqEpoch > cur {
			w.Header().Set(EpochHeader, strconv.FormatUint(cur, 10))
			httpapi.Error(w, http.StatusConflict, httpapi.Detail{
				Code:    httpapi.CodeConflict,
				Message: fmt.Sprintf("cluster: node %q serves epoch %d but the request was routed under epoch %d; refusing shares it might no longer own", n.name, cur, reqEpoch),
			})
			return false
		}
	}
	w.Header().Set(EpochHeader, strconv.FormatUint(n.Epoch(), 10))
	return true
}

func (n *Node) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpapi.MethodNotAllowed(w, http.MethodPost, "refresh accepts POST only")
		return
	}
	rep, err := n.Refresh()
	if err != nil {
		httpapi.Error(w, http.StatusConflict, httpapi.Detail{Code: httpapi.CodeConflict, Message: err.Error()})
		return
	}
	w.Header().Set(EpochHeader, strconv.FormatUint(n.Epoch(), 10))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// NodeStatus is the GET /admin/v1/status body of a fleet node.
type NodeStatus struct {
	Node       string                  `json:"node"`
	Epoch      uint64                  `json:"epoch"`
	Shards     int                     `json:"shards"`
	Owned      []int                   `json:"owned"`
	Cutover    *shard.CutoverStatus    `json:"cutover,omitempty"`
	Partitions []shard.PartitionHealth `json:"partitions"`
	Build      httpapi.BuildInfo       `json:"build"`
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpapi.MethodNotAllowed(w, http.MethodGet, "status accepts GET only")
		return
	}
	st := NodeStatus{
		Node:       n.name,
		Epoch:      n.Epoch(),
		Shards:     n.rt.Shards(),
		Owned:      n.rt.Owned(),
		Cutover:    n.rt.CutoverStatus(),
		Partitions: n.rt.Health(),
		Build:      httpapi.Build(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// Drain blocks until every owned partition has consumed, flushed and
// committed its backlog (see shard.Runtime.Drain).
func (n *Node) Drain(ctx context.Context) error { return n.rt.Drain(ctx) }

// CloseIntake stops accepting appends on every owned partition.
func (n *Node) CloseIntake() { n.rt.CloseIntake() }

// releaseLeases drops every held partition fence. Called only after the
// runtime has stopped writing.
func (n *Node) releaseLeases() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.leases {
		l.Release()
	}
	n.leases = map[int]*Lease{}
}

// Close shuts the node's runtime down gracefully, then releases the
// partition leases (in that order — the fence must outlive the last
// write).
func (n *Node) Close() error {
	err := n.rt.Close()
	n.releaseLeases()
	return err
}

// Kill simulates process death: the runtime crashes (no final flush,
// commit or fsync) and every partition lease is released — exactly what
// the OS does with a dead process's flocks. The chaos and failover
// suites use it; a real deployment never calls it.
func (n *Node) Kill() {
	n.rt.Kill()
	n.releaseLeases()
}
