package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logsynergy/internal/fault"
	"logsynergy/internal/httpapi"
	"logsynergy/internal/obs"
	"logsynergy/internal/shard"
)

// The front router is the fleet's single intake address: it hashes each
// line's stream key onto the ring every process shares, groups a batch
// into per-node shares, and POSTs each share to the owning node's
// /ingest over pooled connections. Its contract extends the sharded
// intake's one level up:
//
//	202  every line is durably in some node's partition WAL
//	429  some share was rejected — the body carries the per-partition
//	     breakdown, the request-order indices of the rejected lines
//	     (retry exactly these), and the max Retry-After hint the nodes
//	     supplied
//	503  every routed node refused because its intake is closed
//
// Transient transport failures are retried with seeded-jitter backoff
// (fault.Backoff); sustained ones feed the same per-node breaker the
// health prober drives, and the send path consults that breaker before
// every share, so a dead node fails fast instead of eating a connect
// timeout per batch. When failover is enabled and shared storage holds
// the partitions, the prober answers a dead node by installing an
// epoch-bumped manifest that hands its partitions to a standby, then
// pokes the standby's /admin/v1/refresh — the standby opens them through
// crash recovery and the router routes the retried lines there.
//
// Epochs fence the data path, not just the open: every share is stamped
// with the routing epoch (EpochHeader), a node refuses shares from an
// epoch it has not caught up to, and a node's answers carry its own
// epoch — a router that sees a newer one (or a "not assigned"
// rejection) reloads the manifest instead of misrouting until its own
// failover fires. The flock half of the partition lease guarantees the
// rest: a deposed-but-alive node still holds its partitions' flocks, so
// a standby's adoption fails outright rather than creating a second
// writer.

// RouterConfig assembles a front router.
type RouterConfig struct {
	// ManifestPath locates cluster.json; failover installs epoch bumps
	// here. Optional when Manifest is supplied and failover is off.
	ManifestPath string
	// Manifest, when set, is used instead of loading ManifestPath.
	Manifest *Manifest
	// KeyFunc extracts the stream key from a line (default
	// shard.DefaultKeyFunc — must match the nodes').
	KeyFunc func(string) string
	// Metrics receives the router's counters (nil = a fresh registry).
	Metrics *obs.Registry
	// MaxBatchBytes bounds one /ingest request body (<= 0 selects the
	// httpapi default).
	MaxBatchBytes int64
	// MaxInFlight bounds concurrent node requests across all handler
	// goroutines (default 64) — the router's backpressure.
	MaxInFlight int
	// Attempts is how many times one node share is tried before its lines
	// are rejected back to the collector (default 3).
	Attempts int
	// Backoff shapes the delay between attempts; its Seed drives the
	// deterministic jitter (zero value: 5ms base, 250ms cap, jitter 0.5).
	Backoff fault.Backoff
	// FailAfter is the consecutive-failure count that marks a node dead
	// (default 3) — the breaker threshold shared by probes and ingest.
	FailAfter int
	// Failover enables automatic reassignment of a dead node's partitions
	// to a standby (requires shared storage and a ManifestPath).
	Failover bool
	// RequestTimeout bounds one node /ingest round trip (default 10s).
	RequestTimeout time.Duration
	// ProbeTimeout bounds one /healthz or /metrics.json round trip
	// (default 2s).
	ProbeTimeout time.Duration
	// Client overrides the pooled HTTP client (tests).
	Client *http.Client
	// Sleep overrides the retry sleep (tests; default time.Sleep).
	Sleep func(time.Duration)
}

// withDefaults fills zero fields.
func (c RouterConfig) withDefaults() RouterConfig {
	if c.KeyFunc == nil {
		c.KeyFunc = shard.DefaultKeyFunc
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.Backoff.Base <= 0 {
		c.Backoff.Base = 5 * time.Millisecond
	}
	if c.Backoff.Max <= 0 {
		c.Backoff.Max = 250 * time.Millisecond
	}
	if c.Backoff.Jitter == 0 {
		c.Backoff.Jitter = 0.5
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// nodeState is the router's per-node health view.
type nodeState struct {
	name    string
	breaker *fault.Breaker
	dead    atomic.Bool
}

// Router consistent-hash routes intake across the fleet and probes node
// health. All its HTTP handling is safe for concurrent use.
type Router struct {
	cfg    RouterConfig
	client *http.Client
	sem    chan struct{} // bounded in-flight node requests

	mu    sync.RWMutex // guards m, ring, nodes
	m     *Manifest
	ring  *shard.Partitioner
	nodes map[string]*nodeState

	// gate write-blocks the routing path across live-cutover flips (the
	// begin and finish barriers); every RouteBatch holds it for read.
	gate sync.RWMutex
	// rcut is the live-cutover routing overlay, nil outside one.
	rcut atomic.Pointer[routeCutover]
	// liveMu serializes LiveRebalance coordinators on this router.
	liveMu sync.Mutex
	// liveHook is the live-rebalance Coordinator's crash hook (tests only).
	liveHook func(phase, key string) error

	stopOnce  sync.Once
	stop      chan struct{}
	probeDone chan struct{}

	requests    *obs.Counter
	routedLines *obs.Counter
	rejected    *obs.Counter
	retries     *obs.Counter
	retryAfter  *obs.Counter
	unreachable *obs.Counter
	nodeDown    *obs.Counter
	failovers   *obs.Counter
	journalErrs *obs.Counter
	fleetAlive  *obs.Gauge
	salt        atomic.Uint64
}

// NewRouter loads/validates the manifest and assembles the router. No
// probing starts until StartProbing (or explicit ProbeOnce calls).
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	m := cfg.Manifest
	if m == nil {
		if cfg.ManifestPath == "" {
			return nil, fmt.Errorf("cluster: RouterConfig needs a Manifest or a ManifestPath")
		}
		var err error
		m, err = Load(cfg.ManifestPath)
		if err != nil {
			return nil, err
		}
	} else if err := m.Validate(); err != nil {
		return nil, err
	}
	if cfg.Failover && cfg.ManifestPath == "" {
		return nil, fmt.Errorf("cluster: failover needs a ManifestPath to install epoch-bumped manifests at")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        4 * cfg.MaxInFlight,
				MaxIdleConnsPerHost: cfg.MaxInFlight,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	r := &Router{
		cfg:         cfg,
		client:      client,
		sem:         make(chan struct{}, cfg.MaxInFlight),
		m:           m,
		ring:        shard.NewPartitionerVnodes(m.Shards, m.Vnodes),
		nodes:       map[string]*nodeState{},
		stop:        make(chan struct{}),
		requests:    cfg.Metrics.Counter("cluster.router_requests_total"),
		routedLines: cfg.Metrics.Counter("cluster.router_routed_lines_total"),
		rejected:    cfg.Metrics.Counter("cluster.router_rejected_lines_total"),
		retries:     cfg.Metrics.Counter("cluster.router_retries_total"),
		retryAfter:  cfg.Metrics.Counter("cluster.router_retry_after_total"),
		unreachable: cfg.Metrics.Counter("cluster.router_unreachable_total"),
		nodeDown:    cfg.Metrics.Counter("cluster.router_node_down_total"),
		failovers:   cfg.Metrics.Counter("cluster.failovers_total"),
		journalErrs: cfg.Metrics.Counter("cluster.cutover_journal_errors_total"),
		fleetAlive:  cfg.Metrics.Gauge("cluster.nodes_alive"),
	}
	for name := range m.Nodes {
		r.nodes[name] = &nodeState{
			name: name,
			// A long cooldown keeps a dead node dead until failover or a
			// manifest reload resurrects the fleet view; the prober still
			// probes it directly, and a successful probe closes the breaker.
			breaker: &fault.Breaker{Threshold: cfg.FailAfter, Cooldown: time.Hour},
		}
	}
	r.fleetAlive.Set(int64(len(m.Nodes)))
	cfg.Metrics.Gauge("cluster.router_epoch").Set(int64(m.Epoch))
	// A journal next to the manifest means a live cutover is in flight:
	// a router starting (or restarting) mid-cutover must double-write
	// moving keys from its first batch.
	r.reloadCutover()
	return r, nil
}

// Manifest returns the router's current fleet view.
func (r *Router) Manifest() *Manifest {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m
}

// Reload swaps in the manifest at ManifestPath if its epoch is newer
// (another router's failover, a live rebalance's finish bump, or an
// operator edit), then converges the live-cutover routing overlay on
// the on-disk journal. A shard-count change is accepted only when it
// is a live rebalance's one-partition growth; anything else is a
// rebalance plus fleet restart, not a reload.
func (r *Router) Reload() error {
	if r.cfg.ManifestPath == "" {
		return fmt.Errorf("cluster: router has no manifest path to reload from")
	}
	defer r.reloadCutover() // after the unlock below
	m, err := Load(r.cfg.ManifestPath)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.Epoch <= r.m.Epoch {
		return nil
	}
	return r.installLocked(m)
}

// installLocked swaps the fleet view. Caller holds r.mu.
func (r *Router) installLocked(m *Manifest) error {
	if m.Shards != r.m.Shards {
		// The only legal in-place layout change is a live rebalance's
		// finish: exactly one new partition, same vnode count, every old
		// partition's assignment preserved. Anything else (a shrink, a
		// jump) still needs a planned rebalance and a restart.
		if m.Shards != r.m.Shards+1 || m.Vnodes != r.m.Vnodes || !prefixPreserved(r.m, m) {
			return fmt.Errorf("cluster: manifest epoch %d changes the shard count %d -> %d; restart the router for a layout change",
				m.Epoch, r.m.Shards, m.Shards)
		}
		r.ring = shard.NewPartitionerVnodes(m.Shards, m.Vnodes)
	}
	if m.Vnodes != r.m.Vnodes {
		r.ring = shard.NewPartitionerVnodes(m.Shards, m.Vnodes)
	}
	// Copy-on-write: fleetView hands the nodes map out beyond the lock,
	// so never mutate the published map — build a successor and swap.
	nodes := make(map[string]*nodeState, len(r.nodes)+len(m.Nodes))
	for name, ns := range r.nodes {
		nodes[name] = ns
	}
	for name := range m.Nodes {
		if _, ok := nodes[name]; !ok {
			nodes[name] = &nodeState{name: name, breaker: &fault.Breaker{Threshold: r.cfg.FailAfter, Cooldown: time.Hour}}
		}
	}
	r.nodes = nodes
	r.m = m
	r.cfg.Metrics.Gauge("cluster.router_epoch").Set(int64(m.Epoch))
	return nil
}

// prefixPreserved reports whether every partition of the old manifest
// keeps its assignment in the new one — the signature of a pure growth.
func prefixPreserved(old, new_ *Manifest) bool {
	if len(new_.Assignments) < len(old.Assignments) {
		return false
	}
	for p, node := range old.Assignments {
		if new_.Assignments[p] != node {
			return false
		}
	}
	return true
}

// fleetView snapshots the routing topology.
func (r *Router) fleetView() (*Manifest, *shard.Partitioner, map[string]*nodeState) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m, r.ring, r.nodes
}

// RoutePartition is one partition's share of a routed batch.
type RoutePartition struct {
	Partition int    `json:"partition"`
	Node      string `json:"node"`
	Acked     int    `json:"acked"`
	Rejected  int    `json:"rejected"`
	// Error classifies the rejection ("backlog full", "closed", "node
	// unreachable", "not assigned"), empty on success.
	Error string `json:"error,omitempty"`
	// RetryAfterSeconds is the node's retry hint for this partition's
	// rejection (0 = none supplied).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// RouteResponse is the JSON body of a routed /ingest answer.
type RouteResponse struct {
	// Acked is the number of lines durably appended fleet-wide.
	Acked int `json:"acked"`
	// Rejected is the number of lines the collector must retry.
	Rejected int `json:"rejected"`
	// Epoch is the manifest epoch the batch was routed under.
	Epoch uint64 `json:"epoch"`
	// RetryAfterSeconds is the max retry hint across rejecting nodes
	// (mirrored in the Retry-After header on a 429).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Partitions breaks the batch down per partition, ascending.
	Partitions []RoutePartition `json:"partitions,omitempty"`
	// RejectedLines are the request-order indices (0-based, counting
	// non-empty lines) of the lines that were not acked — the exact
	// retry set.
	RejectedLines []int `json:"rejected_lines,omitempty"`
	// Err is the uniform admin-API error detail on a non-2xx answer,
	// nil on 202. The legacy top-level fields stay populated, so
	// collectors written against the pre-envelope shape keep decoding.
	Err *httpapi.Detail `json:"error,omitempty"`
}

// nodeShare is one node's slice of a batch.
type nodeShare struct {
	node  string
	addr  string
	path  string // "" routes /ingest; a live cutover posts directed shares
	lines []string
	index []int // request-order index of each line
	parts []int // owning partition of each line (the node-side result row)
}

// shareResult is the outcome of posting one share.
type shareResult struct {
	share *nodeShare
	// perPart maps partition → node-reported result; nil when the node
	// was unreachable (every line rejected).
	perPart map[int]shard.PartitionResult
	// retryAfter is the node's Retry-After hint in seconds (0 = none).
	retryAfter int
	// errLabel classifies a whole-share failure ("node unreachable",
	// "node dead", ...), empty when perPart is authoritative.
	errLabel string
	// nodeEpoch is the manifest epoch the node answered under (its
	// EpochHeader; 0 when unreachable or not reported). A node ahead of
	// the router's view makes the router reload its manifest.
	nodeEpoch uint64
}

// Handler returns the router's HTTP surface. Data path:
//
//	POST /ingest    route a newline-delimited batch across the fleet
//	GET  /healthz   the router's own liveness + per-node fleet view
//	GET  /metrics   federated text metrics: router + fleet totals +
//	                node.<name>.-prefixed per-node series
//
// Admin surface, versioned under /admin/v1 (non-2xx bodies carry the
// httpapi error envelope):
//
//	GET  /admin/v1/status      role, epoch, shard count, per-node
//	                           liveness, live-cutover progress, build info
//	POST /admin/v1/rebalance   grow the fleet one partition under traffic
//	                           (?to=N, optional &node= destination) — the
//	                           networked LiveRebalance; blocks until done
func (r *Router) Handler() http.Handler {
	mux := httpapi.Mux(httpapi.MuxOptions{
		Snapshot: r.cfg.Metrics.Snapshot,
		Metrics:  http.HandlerFunc(r.handleMetrics),
	})
	mux.HandleFunc("/ingest", r.handleIngest)
	mux.HandleFunc("/healthz", r.handleHealthz)
	stamp := func(h http.HandlerFunc) http.Handler {
		return httpapi.EpochStamp(EpochHeader, func() uint64 { return r.Manifest().Epoch }, h)
	}
	mux.Handle(httpapi.Prefix+"/status", stamp(r.handleStatus))
	mux.Handle(httpapi.Prefix+"/rebalance", stamp(r.handleRebalance))
	return mux
}

// handleIngest routes one batch.
func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	r.requests.Inc()
	if req.Method != http.MethodPost {
		httpapi.MethodNotAllowed(w, http.MethodPost, "ingest accepts POST only")
		return
	}
	lines, refused := httpapi.ReadBatch(w, req, r.cfg.MaxBatchBytes)
	if refused != 0 {
		return
	}
	resp := r.RouteBatch(lines)
	switch {
	case resp.Rejected == 0:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(resp)
	case resp.Acked == 0 && allClosed(resp.Partitions):
		httpapi.Error(w, http.StatusServiceUnavailable, httpapi.Detail{
			Code:       httpapi.CodeClosed,
			Message:    "intake closed fleet-wide",
			Partitions: resp.Partitions,
		})
	default:
		hint := resp.RetryAfterSeconds
		if hint <= 0 {
			hint = 1
		}
		d := httpapi.Detail{
			Code:        httpapi.CodeBackpressure,
			Message:     fmt.Sprintf("%d of %d lines rejected; retry the rejected lines", resp.Rejected, resp.Acked+resp.Rejected),
			RetryAfterS: hint,
			Partitions:  resp.Partitions,
		}
		resp.Err = &d
		httpapi.ErrorWithBody(w, http.StatusTooManyRequests, d, resp)
	}
}

// allClosed reports whether every rejection was a closed intake.
func allClosed(parts []RoutePartition) bool {
	any := false
	for _, p := range parts {
		if p.Rejected == 0 {
			continue
		}
		any = true
		if p.Error != "closed" {
			return false
		}
	}
	return any
}

// RouteBatch routes lines to their owning nodes and merges the results.
// It is the programmatic form of POST /ingest.
//
// Outside a live cutover every line is one /ingest share to its
// partition's owner. During one, a moving key's line is double-written
// until its journal entry is released: a directed append to the donor
// partition first, then — only if the donor copy landed — a directed
// append to the destination partition on its node, and the line is
// acked only when both landed. The donor-first order is what makes the
// collector's retry of a half-landed line safe: the destination never
// holds a copy of a line that was not also in the donor's WAL, so a
// retry can duplicate only the donor copy, which sits past the freeze
// point and is never fed. A released key routes directly to the
// destination partition.
func (r *Router) RouteBatch(lines []string) RouteResponse {
	r.gate.RLock()
	defer r.gate.RUnlock()
	m, ring, nodes := r.fleetView()
	resp := RouteResponse{Epoch: m.Epoch}
	if len(lines) == 0 {
		return resp
	}
	rc := r.rcut.Load()

	// Per-line accounting: acked iff every required copy landed (two for
	// an unreleased moving key, one otherwise). attrPart/attrNode pick
	// the partition row a line reports under — the donor's during a
	// double-write, matching what the collector would see in-process.
	need := make([]int, len(lines))
	acks := make([]int, len(lines))
	labels := make([]string, len(lines))
	hints := make([]int, len(lines))
	attrPart := make([]int, len(lines))
	attrNode := make([]string, len(lines))
	double := make([]bool, len(lines))

	shares := map[string]*nodeShare{}
	addShare := func(node, path string, part, i int, line string) {
		k := node + "\x00" + path
		s := shares[k]
		if s == nil {
			s = &nodeShare{node: node, addr: m.Nodes[node].Addr, path: path}
			shares[k] = s
		}
		s.lines = append(s.lines, line)
		s.index = append(s.index, i)
		s.parts = append(s.parts, part)
	}
	directedPath := func(part int) string { return httpapi.Prefix + fmt.Sprintf("/append?partition=%d", part) }
	for i, line := range lines {
		key := r.cfg.KeyFunc(line)
		p := ring.Partition(key)
		if rc != nil && rc.moving(key) {
			destPart := rc.to - 1
			if rc.isReleased(key) {
				need[i] = 1
				attrPart[i], attrNode[i] = destPart, rc.destNode
				addShare(rc.destNode, directedPath(destPart), destPart, i, line)
			} else {
				need[i] = 2
				double[i] = true
				donor := m.NodeFor(p)
				attrPart[i], attrNode[i] = p, donor
				addShare(donor, directedPath(p), p, i, line)
			}
			continue
		}
		need[i] = 1
		node := m.NodeFor(p)
		attrPart[i], attrNode[i] = p, node
		addShare(node, "", p, i, line)
	}

	stale := false
	absorb := func(results []shareResult) {
		for _, res := range results {
			if res.nodeEpoch > m.Epoch {
				stale = true
			}
			if res.retryAfter > resp.RetryAfterSeconds {
				resp.RetryAfterSeconds = res.retryAfter
			}
			for j, gi := range res.share.index {
				p := res.share.parts[j]
				label := res.errLabel
				if res.perPart != nil {
					label = res.perPart[p].Error
				}
				if label == "" {
					acks[gi]++
					continue
				}
				if labels[gi] == "" {
					labels[gi] = label
				}
				if res.retryAfter > hints[gi] {
					hints[gi] = res.retryAfter
				}
			}
		}
	}
	absorb(r.postShares(shares, nodes, m.Epoch))

	// Second wave: destination copies for double-written lines whose
	// donor copy landed (donor-first, see above).
	if rc != nil {
		destShares := map[string]*nodeShare{}
		destPart := rc.to - 1
		for i, line := range lines {
			if double[i] && acks[i] == 1 {
				k := rc.destNode + "\x00" + directedPath(destPart)
				s := destShares[k]
				if s == nil {
					s = &nodeShare{node: rc.destNode, addr: m.Nodes[rc.destNode].Addr, path: directedPath(destPart)}
					destShares[k] = s
				}
				s.lines = append(s.lines, line)
				s.index = append(s.index, i)
				s.parts = append(s.parts, destPart)
			}
		}
		if len(destShares) > 0 {
			absorb(r.postShares(destShares, nodes, m.Epoch))
		}
	}

	// Merge into per-partition rows (ascending) plus the exact
	// rejected-line index set.
	byPart := map[int]*RoutePartition{}
	for i := range lines {
		row := byPart[attrPart[i]]
		if row == nil {
			row = &RoutePartition{Partition: attrPart[i], Node: attrNode[i]}
			byPart[attrPart[i]] = row
		}
		if acks[i] == need[i] {
			row.Acked++
			resp.Acked++
			continue
		}
		label := labels[i]
		if label == "" {
			label = "partially acked"
		}
		if label == "not assigned" || label == "cutover in progress" {
			stale = true
		}
		row.Rejected++
		if row.Error == "" {
			row.Error = label
		}
		if hints[i] > row.RetryAfterSeconds {
			row.RetryAfterSeconds = hints[i]
		}
		resp.Rejected++
		resp.RejectedLines = append(resp.RejectedLines, i)
	}
	for _, row := range byPart {
		resp.Partitions = append(resp.Partitions, *row)
	}
	sort.Slice(resp.Partitions, func(i, j int) bool { return resp.Partitions[i].Partition < resp.Partitions[j].Partition })
	sort.Ints(resp.RejectedLines)
	r.routedLines.Add(int64(resp.Acked))
	r.rejected.Add(int64(resp.Rejected))
	if resp.RetryAfterSeconds > 0 {
		r.retryAfter.Inc()
	}
	if stale && r.cfg.ManifestPath != "" {
		// A node answered from a newer epoch, or rejected lines as "not
		// assigned" (the partition moved under an epoch bump this router
		// missed) or "cutover in progress" (a live cutover began that this
		// router has not seen). Reload the manifest + journal so the
		// collector's retry routes under the current topology instead of
		// misrouting forever.
		_ = r.Reload()
	}
	return resp
}

// postShares fans a share set out concurrently and collects results.
func (r *Router) postShares(shares map[string]*nodeShare, nodes map[string]*nodeState, epoch uint64) []shareResult {
	results := make([]shareResult, 0, len(shares))
	var wg sync.WaitGroup
	var resMu sync.Mutex
	for _, s := range shares {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := r.postShare(s, nodes[s.node], epoch)
			resMu.Lock()
			results = append(results, res)
			resMu.Unlock()
		}()
	}
	wg.Wait()
	return results
}

// postShare delivers one node share with bounded attempts, stamping
// each request with the routing epoch. Transport errors and 5xx answers
// retry with seeded-jitter backoff; a 429 or 503 is a node-level
// verdict the collector must see, not retried here.
func (r *Router) postShare(s *nodeShare, ns *nodeState, epoch uint64) shareResult {
	if ns == nil {
		return shareResult{share: s, errLabel: "unknown node"}
	}
	if ns.dead.Load() {
		// Fail fast: the prober owns resurrecting a dead node.
		return shareResult{share: s, errLabel: "node dead"}
	}
	if ns.breaker.Open() {
		// The breaker may have been opened by ingest failures alone —
		// probing disabled, or between ticks — so the send path consults
		// it too instead of burning Attempts×RequestTimeout per batch.
		r.unreachable.Inc()
		return shareResult{share: s, errLabel: "node unreachable"}
	}
	salt := r.salt.Add(1)
	body := strings.Join(s.lines, "\n")
	var lastErr error
	for attempt := 1; attempt <= r.cfg.Attempts; attempt++ {
		if attempt > 1 {
			r.retries.Inc()
			r.cfg.Sleep(r.cfg.Backoff.Delay(attempt-1, salt))
		}
		res, err := r.postOnce(s.addr, s.path, body, epoch)
		if err == nil {
			ns.breaker.Record(nil)
			res.share = s
			return res
		}
		lastErr = err
		ns.breaker.Record(err)
	}
	r.unreachable.Inc()
	_ = lastErr
	return shareResult{share: s, errLabel: "node unreachable"}
}

// postOnce performs one data-path round trip — /ingest, or a directed
// /admin/v1/append during a live cutover — stamped with the routing
// epoch (EpochHeader) so the node can fence shares routed under a
// mismatched manifest view. A transport error or a 5xx status (other
// than 503's explicit closed verdict) returns err for the retry loop —
// including 409, a node refusing an epoch it has not caught up to;
// anything else is a node verdict.
func (r *Router) postOnce(addr, path, body string, epoch uint64) (shareResult, error) {
	r.sem <- struct{}{} // bounded in-flight backpressure
	defer func() { <-r.sem }()
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if path == "" {
		path = "/ingest"
	}
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader([]byte(body)))
	if err != nil {
		return shareResult{}, err
	}
	req.Header.Set("Content-Type", "text/plain; charset=utf-8")
	req.Header.Set(EpochHeader, strconv.FormatUint(epoch, 10))
	ctx, cancel := contextWithTimeout(r.cfg.RequestTimeout)
	defer cancel()
	resp, err := r.client.Do(req.WithContext(ctx))
	if err != nil {
		return shareResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return shareResult{}, err
	}
	var nodeEpoch uint64
	if h := resp.Header.Get(EpochHeader); h != "" {
		nodeEpoch, _ = strconv.ParseUint(h, 10, 64)
	}
	switch {
	case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusTooManyRequests:
		var ir shard.IngestResponse
		if err := json.Unmarshal(data, &ir); err != nil {
			return shareResult{}, fmt.Errorf("cluster: node answered %d with an unparseable body: %w", resp.StatusCode, err)
		}
		res := shareResult{perPart: map[int]shard.PartitionResult{}, nodeEpoch: nodeEpoch}
		for _, pr := range ir.Partitions {
			res.perPart[pr.Partition] = pr
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// The error envelope's retry_after_s is authoritative; the
			// Retry-After header is the fallback for pre-envelope nodes.
			switch {
			case ir.Err != nil && ir.Err.RetryAfterS > 0:
				res.retryAfter = ir.Err.RetryAfterS
			default:
				if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
					res.retryAfter = ra
				} else {
					res.retryAfter = 1
				}
			}
		}
		return res, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		// Intake closed: a deliberate verdict (shutdown), not a transport
		// fault — reject the share as "closed" without burning retries.
		return shareResult{errLabel: "closed", nodeEpoch: nodeEpoch}, nil
	default:
		return shareResult{}, fmt.Errorf("cluster: node answered %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
}

// ProbeResult is one node's probe outcome.
type ProbeResult struct {
	Node  string `json:"node"`
	Alive bool   `json:"alive"`
	// Epoch is the epoch the node reported (0 when unreachable).
	Epoch uint64 `json:"epoch,omitempty"`
	// Err is the probe failure, empty when alive.
	Err string `json:"err,omitempty"`
	// FailedOver is set when this probe's failure triggered a manifest
	// reassignment.
	FailedOver bool `json:"failed_over,omitempty"`
}

// ProbeOnce probes every node's /healthz once, feeding the per-node
// breakers. A node whose breaker opens is marked dead; with failover
// enabled its partitions are reassigned to the first alive standby via
// an epoch-bumped manifest install. Deterministic and synchronous — the
// test harness calls it directly; StartProbing wraps it in a ticker.
func (r *Router) ProbeOnce() []ProbeResult {
	m, _, nodes := r.fleetView()
	out := make([]ProbeResult, 0, len(m.Nodes))
	alive := 0
	for _, name := range m.NodeNames() {
		ns := nodes[name]
		pr := ProbeResult{Node: name}
		hr, err := r.probeNode(m.Nodes[name].Addr)
		if err == nil {
			ns.breaker.Record(nil)
			ns.dead.Store(false)
			pr.Alive = true
			pr.Epoch = hr.Epoch
			alive++
		} else {
			pr.Err = err.Error()
			ns.breaker.Record(err)
			if ns.breaker.Open() && !ns.dead.Swap(true) {
				r.nodeDown.Inc()
				if r.cfg.Failover {
					if ferr := r.failover(name); ferr == nil {
						pr.FailedOver = true
					} else {
						pr.Err = fmt.Sprintf("%s (failover: %v)", pr.Err, ferr)
					}
				}
			}
		}
		out = append(out, pr)
	}
	r.fleetAlive.Set(int64(alive))
	return out
}

// probeNode GETs one node's /healthz.
func (r *Router) probeNode(addr string) (HealthReport, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	ctx, cancel := contextWithTimeout(r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequest(http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return HealthReport{}, err
	}
	resp, err := r.client.Do(req.WithContext(ctx))
	if err != nil {
		return HealthReport{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return HealthReport{}, fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	var hr HealthReport
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&hr); err != nil {
		return HealthReport{}, fmt.Errorf("healthz body: %w", err)
	}
	return hr, nil
}

// failover reassigns dead's partitions to the first alive standby: an
// epoch-bumped manifest is installed at ManifestPath (the single commit
// point — a crash before the install changes nothing, after it the new
// epoch is the truth), the router swaps its fleet view, and the standby
// is poked over /admin/v1/refresh so it adopts immediately rather than on
// its next watch tick.
func (r *Router) failover(dead string) error {
	// A journaled live cutover pins its freeze offsets and double-write
	// topology to the current assignment: reassigning partitions
	// mid-cutover would strand them. The operator resumes or finishes the
	// rebalance first, then failover may proceed. A journal that cannot be
	// read might be exactly that, so it refuses too.
	jpath := cutoverJournalPath(r.cfg.ManifestPath)
	if j, err := shard.LoadCutoverJournal(jpath); err != nil {
		r.journalErrs.Inc()
		return fmt.Errorf("cluster: refusing failover of %q: cannot tell whether a live cutover is journaled at %s: %w", dead, jpath, err)
	} else if j != nil {
		return fmt.Errorf("cluster: refusing failover of %q while live cutover %d -> %d is journaled; resume the rebalance first", dead, j.From, j.To)
	}
	r.mu.Lock()
	m := r.m
	var successor string
	for _, name := range m.Standbys(dead) {
		if ns := r.nodes[name]; ns != nil && !ns.dead.Load() {
			successor = name
			break
		}
	}
	if successor == "" {
		r.mu.Unlock()
		return fmt.Errorf("cluster: no alive standby to absorb %q's partitions", dead)
	}
	nm, err := m.Reassign(dead, successor)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	if err := Save(r.cfg.ManifestPath, nm); err != nil {
		r.mu.Unlock()
		return err
	}
	if err := r.installLocked(nm); err != nil {
		r.mu.Unlock()
		return err
	}
	addr := nm.Nodes[successor].Addr
	r.mu.Unlock()
	r.failovers.Inc()

	// Best-effort immediate adoption; the standby's own watch loop is the
	// backstop if this poke races its restart.
	if err := r.pokeRefresh(addr); err != nil {
		return fmt.Errorf("cluster: failover manifest (epoch %d) installed but refreshing standby %q failed: %w", nm.Epoch, successor, err)
	}
	return nil
}

// pokeRefresh POSTs a node's /admin/v1/refresh.
func (r *Router) pokeRefresh(addr string) error {
	return r.adminJSON(http.MethodPost, addr, httpapi.Prefix+"/refresh", nil, nil)
}

// RouterHealth is the router's own /healthz body.
type RouterHealth struct {
	Status string          `json:"status"`
	Epoch  uint64          `json:"epoch"`
	Shards int             `json:"shards"`
	Nodes  map[string]bool `json:"nodes"` // name → alive (per the breaker view)
}

// handleHealthz serves the router's liveness + fleet view.
func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m, _, nodes := r.fleetView()
	h := RouterHealth{Status: "ok", Epoch: m.Epoch, Shards: m.Shards, Nodes: map[string]bool{}}
	for name := range m.Nodes {
		h.Nodes[name] = !nodes[name].dead.Load()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// handleMetrics serves the federated scrape: the router's own registry,
// every reachable node's snapshot merged into fleet totals, and each
// node's snapshot again under a node.<name>. prefix. A node that cannot
// be scraped contributes only node.<name>.up 0.
func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m, _, _ := r.fleetView()
	merged := r.cfg.Metrics.Snapshot()
	for _, name := range m.NodeNames() {
		snap, err := r.scrapeNode(m.Nodes[name].Addr)
		up := int64(1)
		if err != nil {
			up = 0
		} else {
			merged = merged.Merge(snap)
			merged = merged.Merge(snap.Prefixed("node." + name + "."))
		}
		merged.Gauges["node."+name+".up"] = up
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	merged.WriteText(w)
}

// scrapeNode GETs one node's /metrics.json snapshot.
func (r *Router) scrapeNode(addr string) (obs.Snapshot, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	ctx, cancel := contextWithTimeout(r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequest(http.MethodGet, url+"/metrics.json", nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	resp, err := r.client.Do(req.WithContext(ctx))
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.Snapshot{}, fmt.Errorf("metrics.json answered %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return obs.Snapshot{}, err
	}
	return obs.ParseSnapshot(data)
}

// StartProbing probes every node each interval until Close. When the
// router has a manifest path, each tick first reloads the manifest —
// the router-side watch that picks up epoch bumps installed by another
// router's failover or an operator edit, so this router does not route
// under a stale assignment until its own failover fires.
func (r *Router) StartProbing(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	r.probeDone = make(chan struct{})
	go func() {
		defer close(r.probeDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				if r.cfg.ManifestPath != "" {
					_ = r.Reload()
				}
				r.ProbeOnce()
			}
		}
	}()
}

// Close stops the probe loop and releases pooled connections.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	if r.probeDone != nil {
		<-r.probeDone
	}
	if t, ok := r.client.Transport.(*http.Transport); ok && t != nil {
		t.CloseIdleConnections()
	}
}

// contextWithTimeout is context.WithTimeout off Background — one name
// for the router's per-request deadlines.
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
