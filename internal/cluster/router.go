package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
// /ingest over pooled connections. It answers with the one intake
// contract — shard.IngestResponse, written by its Write — one level up:
// 202 when every line is durably in some node's partition WAL; 429 with
// the request-order indices of the rejected lines (retry exactly these),
// the per-partition breakdown and the largest Retry-After hint the nodes
// supplied; 503 when every routed node refused because its intake is
// closed.
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
// The node's verdict is per line, and the router believes nothing else. A
// share is a list of request indices; the node hashes every line again on
// its own ring, appends what it owns, and names the lines it refused by
// their index in the share (rejected_lines), which maps straight back to
// the request. The router never matches its partition indices against the
// node's — the two hash independently, and a router with a stale view of
// the layout hashes differently — and an answer it cannot verify (counts
// that do not add up to the share, an unparseable body) rejects the whole
// share. So a router that missed an epoch bump or a finished cutover
// costs one rejected batch, never an acknowledged line: the owning node
// answers "not assigned" for the lines it no longer serves, the router
// reloads the manifest and the cutover journal on that label (or on a
// node answering from a newer epoch — every share is stamped with the
// routing epoch, EpochHeader, and a node refuses a share from an epoch it
// has not caught up to), and the collector's retry of rejected_lines
// routes under the current layout. The flock half of the partition lease
// guarantees the rest: a deposed-but-alive node still holds its
// partitions' flocks, so a standby's adoption fails outright rather than
// creating a second writer.

// RouterConfig assembles a front router.
type RouterConfig struct {
	// ManifestPath locates cluster.json (required): Reload re-reads it,
	// failover installs epoch bumps at it, and a live cutover's journal
	// lives next to it.
	ManifestPath string
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
	// to a standby (requires shared storage).
	Failover bool
	// RequestTimeout bounds one node /ingest round trip (default 10s).
	RequestTimeout time.Duration
	// ProbeTimeout bounds one /healthz or /metrics.json round trip
	// (default 2s).
	ProbeTimeout time.Duration
	// Sleep overrides the retry sleep (tests; default time.Sleep).
	Sleep func(time.Duration)
}

// withDefaults fills zero fields.
func (c RouterConfig) withDefaults() RouterConfig {
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
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
	cfg     RouterConfig
	client  *http.Client
	sem     chan struct{}  // bounded in-flight node requests
	retryer *fault.Retryer // one node share's attempts

	mu    sync.RWMutex // guards m, ring, nodes
	m     *Manifest
	ring  *shard.Partitioner
	nodes map[string]*nodeState

	// gate write-blocks the routing path across live-cutover flips (the
	// begin and finish barriers); every RouteBatch holds it for read.
	gate sync.RWMutex
	// rcut is the journaled live cutover's view, nil outside one.
	rcut atomic.Pointer[cutoverView]
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
}

// NewRouter loads/validates the manifest and assembles the router. No
// probing starts until StartProbing (or explicit ProbeOnce calls).
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	m, err := Load(cfg.ManifestPath)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg: cfg,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        4 * cfg.MaxInFlight,
				MaxIdleConnsPerHost: cfg.MaxInFlight,
				IdleConnTimeout:     90 * time.Second,
			},
		},
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
	r.retryer = &fault.Retryer{
		Attempts: cfg.Attempts,
		Backoff:  cfg.Backoff,
		Sleep:    cfg.Sleep,
		OnRetry:  func(int, error) { r.retries.Inc() },
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
	// a router starting (or restarting) mid-cutover routes by the new
	// layout's ring from its first batch.
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
// operator edit), then converges the live-cutover view on the on-disk
// journal. A ring change — another shard count, another vnode count — is
// accepted only when it is a live rebalance's one-partition growth;
// anything else is a rebalance plus fleet restart, not a reload.
func (r *Router) Reload() error {
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
	if m.Shards != r.m.Shards || m.Vnodes != r.m.Vnodes {
		// The ring is a function of (Shards, Vnodes) that every node's
		// runtime holds too, and a node keeps the one it opened with. The
		// only legal in-place change is a live rebalance's finish: exactly
		// one new partition, same vnode count, every old partition's
		// assignment preserved. Anything else (a shrink, a jump, other
		// vnodes) still needs a planned rebalance and a restart.
		if m.Shards != r.m.Shards+1 || m.Vnodes != r.m.Vnodes || !prefixPreserved(r.m, m) {
			return fmt.Errorf("cluster: manifest epoch %d changes the layout (shard count %d -> %d, vnodes %d -> %d); restart the router for a layout change",
				m.Epoch, r.m.Shards, m.Shards, r.m.Vnodes, m.Vnodes)
		}
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

// nodeShare is one node's slice of a batch.
type nodeShare struct {
	node  string
	addr  string
	lines []string
	index []int // request-order index of each line
}

// all lists every share-local index: the share failed whole.
func (s *nodeShare) all() []int {
	idx := make([]int, len(s.lines))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// shareAnswer is the verdict on one posted share.
type shareAnswer struct {
	share *nodeShare
	// rejected lists the share-local indices of the lines that were not
	// acked — the node's rejected_lines, or every index when the share
	// failed whole — and label classifies them ("backlog full", "not
	// assigned", "node unreachable", ...).
	rejected []int
	label    string
	// retryAfter is the node's Retry-After hint in seconds (0 = none).
	retryAfter int
	// nodeEpoch is the manifest epoch the node answered under (its
	// EpochHeader; 0 when unreachable or not reported). A node ahead of
	// the router's view makes the router reload its manifest.
	nodeEpoch uint64
}

// staleLabel reports whether a rejection says the router's view of the
// layout is behind: the partition moved under an epoch bump, or a live
// cutover began or finished, that it missed.
func staleLabel(label string) bool { return label == "not assigned" }

// hostOf names the node serving partition p while a cutover grows the
// layout from `from` partitions: the ones it adds live on destNode until
// the manifest bump assigns them there; every other is the manifest's.
func hostOf(m *Manifest, from int, destNode string, p int) string {
	if p >= from {
		return destNode
	}
	return m.NodeFor(p)
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
	epoch := func() uint64 { return r.Manifest().Epoch }
	mux.Handle(httpapi.Prefix+"/status", httpapi.EpochStamp(EpochHeader, epoch, http.HandlerFunc(r.handleStatus)))
	mux.Handle(httpapi.Prefix+"/rebalance", httpapi.EpochStamp(EpochHeader, epoch, httpapi.RebalanceHandler(
		func(to int, node string) (any, error) { return r.LiveRebalance(to, node) })))
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
	r.RouteBatch(lines).Write(w)
}

// RouteBatch routes lines to their owning nodes and merges the nodes'
// per-line verdicts. It is the programmatic form of POST /ingest.
//
// Every line is one /ingest share to its partition's node, which hashes
// it again and refuses what it does not serve. During a live cutover the
// partition is the new layout's, as in the nodes' runtimes: a moving
// key's line goes to its destination alone and is reported under it.
func (r *Router) RouteBatch(lines []string) shard.IngestResponse {
	r.gate.RLock()
	defer r.gate.RUnlock()
	m, ring, nodes := r.fleetView()
	resp := shard.IngestResponse{Epoch: m.Epoch}
	if len(lines) == 0 {
		return resp
	}
	nodeOf := m.NodeFor
	if rc := r.rcut.Load(); rc != nil {
		ring = rc.ring
		nodeOf = func(p int) string { return hostOf(m, rc.from, rc.destNode, p) }
	}

	// Per line: the partition it reports under, and the answer that
	// rejected it (nil = acked).
	part := make([]int, len(lines))
	verdict := make([]*shareAnswer, len(lines))
	shares := map[string]*nodeShare{}
	for i, line := range lines {
		part[i] = ring.Partition(shard.DefaultKeyFunc(line))
		node := nodeOf(part[i])
		s := shares[node]
		if s == nil {
			s = &nodeShare{node: node, addr: m.Nodes[node].Addr}
			shares[node] = s
		}
		s.lines = append(s.lines, line)
		s.index = append(s.index, i)
	}
	stale := false
	for _, ans := range r.postShares(shares, nodes, m.Epoch) {
		stale = stale || ans.nodeEpoch > m.Epoch
		resp.RetryAfterSeconds = max(resp.RetryAfterSeconds, ans.retryAfter)
		for _, j := range ans.rejected {
			verdict[ans.share.index[j]] = ans
		}
	}

	// Merge into per-partition rows (ascending) plus the exact
	// rejected-line index set.
	byPart := map[int]*shard.PartitionResult{}
	for i, v := range verdict {
		row := byPart[part[i]]
		if row == nil {
			row = &shard.PartitionResult{Partition: part[i], Node: nodeOf(part[i])}
			byPart[part[i]] = row
		}
		if v == nil {
			row.Acked++
			resp.Acked++
			continue
		}
		stale = stale || staleLabel(v.label)
		row.Rejected++
		if row.Error == "" {
			row.Error = v.label
		}
		row.RetryAfterSeconds = max(row.RetryAfterSeconds, v.retryAfter)
		resp.Rejected++
		resp.RejectedLines = append(resp.RejectedLines, i)
	}
	for _, row := range byPart {
		resp.Partitions = append(resp.Partitions, *row)
	}
	sort.Slice(resp.Partitions, func(i, j int) bool { return resp.Partitions[i].Partition < resp.Partitions[j].Partition })
	r.routedLines.Add(int64(resp.Acked))
	r.rejected.Add(int64(resp.Rejected))
	if resp.RetryAfterSeconds > 0 {
		r.retryAfter.Inc()
	}
	if stale {
		// A node answered from a newer epoch, or rejected lines as "not
		// assigned" (the partition moved under an epoch bump, or a live
		// cutover began or finished, that this router missed). Reload the
		// manifest + journal so the collector's retry routes under the
		// current topology instead of misrouting forever.
		_ = r.Reload()
	}
	return resp
}

// postShares fans a share set out concurrently and collects the answers.
func (r *Router) postShares(shares map[string]*nodeShare, nodes map[string]*nodeState, epoch uint64) []*shareAnswer {
	answers := make([]*shareAnswer, 0, len(shares))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, s := range shares {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans := r.postShare(s, nodes[s.node], epoch)
			mu.Lock()
			answers = append(answers, ans)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return answers
}

// postShare delivers one node share with bounded attempts, stamping
// each request with the routing epoch. Transport errors and unexpected
// statuses retry with seeded-jitter backoff; a 202, 429 or 503 is the
// node's verdict, which the collector must see, not retried here.
func (r *Router) postShare(s *nodeShare, ns *nodeState, epoch uint64) *shareAnswer {
	whole := func(label string) *shareAnswer { return &shareAnswer{share: s, rejected: s.all(), label: label} }
	if ns == nil {
		return whole("unknown node")
	}
	if ns.dead.Load() {
		// Fail fast: the prober owns resurrecting a dead node.
		return whole("node dead")
	}
	if ns.breaker.Open() {
		// The breaker may have been opened by ingest failures alone —
		// probing disabled, or between ticks — so the send path consults
		// it too instead of burning Attempts×RequestTimeout per batch.
		r.unreachable.Inc()
		return whole("node unreachable")
	}
	body := []byte(strings.Join(s.lines, "\n"))
	var ans *shareAnswer
	err := r.retryer.Do(func() (err error) {
		ans, err = r.postOnce(s, body, epoch)
		ns.breaker.Record(err)
		return err
	})
	if err != nil {
		r.unreachable.Inc()
		return whole("node unreachable: " + err.Error())
	}
	return ans
}

// postOnce performs one /ingest round trip, stamped with the routing
// epoch (EpochHeader) so the node can fence shares routed under a
// mismatched manifest view, and reads the node's per-line verdict. A
// transport error or a status outside the intake contract returns err
// for the retry loop — including 409, a node refusing an epoch it has
// not caught up to. An answer inside the contract that does not verify
// against the share — the counts do not add up to it, rejected_lines is
// not `rejected` ascending indices into it, the body does not parse —
// rejects the whole share: the router acks only what a node vouched for
// line by line.
func (r *Router) postOnce(s *nodeShare, body []byte, epoch uint64) (*shareAnswer, error) {
	r.sem <- struct{}{} // bounded in-flight backpressure
	defer func() { <-r.sem }()
	status, hdr, data, err := r.roundTrip(http.MethodPost, s.addr, "/ingest", r.cfg.RequestTimeout, http.Header{
		"Content-Type": {"text/plain; charset=utf-8"},
		EpochHeader:    {strconv.FormatUint(epoch, 10)},
	}, body)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusAccepted, http.StatusTooManyRequests, http.StatusServiceUnavailable:
	default:
		return nil, fmt.Errorf("cluster: node answered %d: %s", status, strings.TrimSpace(string(data)))
	}
	ans := &shareAnswer{share: s}
	ans.nodeEpoch, _ = strconv.ParseUint(hdr.Get(EpochHeader), 10, 64) // absent or malformed reads as not reported
	var ir shard.IngestResponse
	verified := json.Unmarshal(data, &ir) == nil &&
		ir.Acked+ir.Rejected == len(s.lines) && len(ir.RejectedLines) == ir.Rejected &&
		(ir.Rejected == 0) == (status == http.StatusAccepted)
	prev := -1
	for _, idx := range ir.RejectedLines {
		verified = verified && idx > prev && idx < len(s.lines)
		prev = idx
	}
	ans.rejected = ir.RejectedLines
	if !verified {
		ans.rejected = s.all()
	}
	// The share's label is its first rejecting row's, unless a row says
	// the router's view is stale: that one the router must hear.
	for _, row := range ir.Partitions {
		if row.Rejected > 0 && (ans.label == "" || staleLabel(row.Error)) {
			ans.label = row.Error
		}
	}
	if ans.label == "" && len(ans.rejected) > 0 {
		ans.label = "unverifiable answer"
		if status == http.StatusServiceUnavailable {
			// Intake closed, said by something that does not speak the
			// contract's body (a server shutting down).
			ans.label = "closed"
		}
	}
	if status == http.StatusTooManyRequests {
		// The error envelope's retry_after_s is authoritative; the
		// Retry-After header is the fallback for pre-envelope nodes.
		ans.retryAfter = 1
		if ir.Err != nil && ir.Err.RetryAfterS > 0 {
			ans.retryAfter = ir.Err.RetryAfterS
		} else if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && ra > 0 {
			ans.retryAfter = ra
		}
	}
	return ans, nil
}

// errAnswerTooLarge marks a node answer past maxSpliceBytes. Asking again
// gets the same answer, so adminRetry does not.
var errAnswerTooLarge = errors.New("answer too large")

// roundTrip is the router's one HTTP exchange with a node — data path,
// admin call, probe and scrape alike: addr is a host:port or a URL,
// header is what the caller stamps on the request (nil = nothing), and
// the answer's body is read whole. A body past maxSpliceBytes is an
// error (errAnswerTooLarge) naming the bound and the path.
func (r *Router) roundTrip(method, addr, path string, timeout time.Duration, header http.Header, body []byte) (status int, hdr http.Header, data []byte, err error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if header != nil {
		req.Header = header
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(io.LimitReader(resp.Body, maxSpliceBytes+1))
	if err == nil && len(data) > maxSpliceBytes {
		return 0, nil, nil, fmt.Errorf("cluster: %s %s: %w: the answer exceeds the limit of %d bytes", method, path, errAnswerTooLarge, maxSpliceBytes)
	}
	return resp.StatusCode, resp.Header, data, err
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
	var hr HealthReport
	status, _, data, err := r.roundTrip(http.MethodGet, addr, "/healthz", r.cfg.ProbeTimeout, nil, nil)
	if err != nil {
		return hr, err
	}
	if status != http.StatusOK {
		return hr, fmt.Errorf("healthz answered %d", status)
	}
	if err := json.Unmarshal(data, &hr); err != nil {
		return hr, fmt.Errorf("healthz body: %w", err)
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
	// A journaled live cutover pins its freeze offsets and destination
	// node to the current assignment: reassigning partitions mid-cutover
	// would strand them. The operator resumes or finishes the rebalance
	// first, then failover may proceed. A journal that cannot be
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
	status, _, data, err := r.roundTrip(http.MethodGet, addr, "/metrics.json", r.cfg.ProbeTimeout, nil, nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	if status != http.StatusOK {
		return obs.Snapshot{}, fmt.Errorf("metrics.json answered %d", status)
	}
	return obs.ParseSnapshot(data)
}

// StartProbing probes every node each interval until Close. Each tick
// first reloads the manifest — the router-side watch that picks up epoch
// bumps installed by another router's failover or an operator edit, so
// this router does not route under a stale assignment until its own
// failover fires.
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
				_ = r.Reload()
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
	r.client.CloseIdleConnections()
}
