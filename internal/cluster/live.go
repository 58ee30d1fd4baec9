package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"logsynergy/internal/httpapi"
	"logsynergy/internal/shard"
)

// Networked live rebalancing: grow a running fleet N -> N+1 partitions
// under traffic. The protocol is shard.Coordinator's (see
// internal/shard/live.go); this file is what a fleet adds to it — the
// router as host, and the HTTP client that makes each node a
// shard.Participant over its /admin/v1/cutover/* endpoints. The journal
// lives in the cluster directory next to cluster.json and is the single
// source of truth for crash recovery on every participant:
//
//   - a NODE restarting mid-cutover reads the journal via StartNode and
//     opens straight into the protocol state (donors at the old layout
//     with the recorded freeze offsets, the destination with committed
//     splices in its snapshot), then serves passively.
//   - a ROUTER restarting (or a second, stale router reloading) reads
//     the journal and routes by the new layout's ring;
//     Router.LiveRebalance called again resumes driving from the journal,
//     idempotently re-beginning every participant.
//   - the journal's removal is the cutover's commit point, strictly
//     after the epoch-bumped manifest with the new shard count is
//     installed — a crash anywhere in between resumes as finish-only.
//
// Mid-cutover the router routes as the nodes' runtimes do: by the new
// layout's ring, built from the journal. What the fleet adds is only
// where a partition lives: hostOf places the partitions the new layout
// adds on the journal's destination node. A node hashes every line again
// on its own ring and answers "not assigned" for what it does not serve,
// so a router that has not seen the cutover costs one rejected share and
// a reload, never an acknowledged line. LiveRebalance itself still admits
// one plan, N -> N+1.
//
// Zero acknowledged loss holds by the same argument as in-process: from
// begin every node's intake routes by the new ring, so a moving key's
// line lands once, in its destination partition's WAL, which holds it
// until the move commits; donor freeze offsets are captured under each
// node's route write lock inside cutover/begin, and the router's gate
// stays closed until the journal is durable, so the router routes no
// line by the new ring before the journal exists.

// cutoverJournalPath locates the journal next to the manifest.
func cutoverJournalPath(manifestPath string) string {
	return filepath.Join(filepath.Dir(manifestPath), shard.CutoverJournalName)
}

// cutoverView is what a router routes by while a cutover is journaled:
// the new layout's ring, and where the partitions it adds live.
type cutoverView struct {
	from, to int
	destNode string
	ring     *shard.Partitioner
}

// reloadCutover converges the router's cutover view on the on-disk
// journal. Called after every manifest reload, at router start and once a
// cutover this router coordinates has begun: a journal for a cutover the
// router does not follow installs the view (the stale-router path); one
// it follows keeps it; no journal, or one the manifest has caught up
// with, clears it. A journal that fails to load is NOT "no cutover": the
// current view stays and the failure is counted.
func (r *Router) reloadCutover() {
	j, err := shard.LoadCutoverJournal(cutoverJournalPath(r.cfg.ManifestPath))
	if err != nil {
		r.journalErrs.Inc()
		return
	}
	cur := r.rcut.Load()
	switch {
	case j == nil || j.To == r.Manifest().Shards:
		r.rcut.Store(nil)
	case cur == nil || cur.from != j.From || cur.to != j.To:
		r.rcut.Store(&cutoverView{from: j.From, to: j.To, destNode: j.DestNode, ring: shard.NewPartitionerVnodes(j.To, j.Vnodes)})
	}
}

// LiveRebalance grows the fleet from the manifest's shard count to
// `to` partitions under traffic — shard.Runtime.LiveRebalance's
// Coordinator over HTTP participants, with this router as the host: it
// contributes the routing gate, the cutover view it routes by from begin,
// and the epoch-bumped manifest install at finish. destNode names the
// node that hosts the new partition (empty picks the node owning the
// fewest partitions). Blocks until every move is committed and the new
// manifest is installed; safe to call again after any crash — the
// journal decides whether it starts fresh, resumes driving, or only
// finishes.
func (r *Router) LiveRebalance(to int, destNode string) (*shard.RebalanceReport, error) {
	r.liveMu.Lock()
	defer r.liveMu.Unlock()
	start := time.Now()
	_ = r.Reload() // freshest view; also installs the cutover view of any existing journal
	jpath := cutoverJournalPath(r.cfg.ManifestPath)
	j, err := shard.LoadCutoverJournal(jpath)
	if err != nil {
		return nil, err
	}
	m := r.Manifest()

	switch {
	case j == nil && m.Shards == to:
		return &shard.RebalanceReport{From: to, To: to, Dir: m.Dir, AlreadyBalanced: true}, nil
	case j != nil && j.To != to:
		return nil, fmt.Errorf("cluster: a live cutover %d -> %d is journaled; finish it before asking for %d partitions", j.From, j.To, to)
	case j == nil && to != m.Shards+1:
		return nil, fmt.Errorf("cluster: live rebalance grows one partition at a time; fleet serves %d, asked for %d", m.Shards, to)
	case j == nil:
		if destNode == "" {
			destNode = pickDestNode(m)
		}
		j = shard.NewCutoverJournal(m.Shards, to, m.Vnodes, destNode)
	}
	if _, ok := m.Nodes[j.DestNode]; !ok {
		return nil, fmt.Errorf("cluster: destination node %q is not in the manifest (nodes: %v)", j.DestNode, m.NodeNames())
	}

	// One client per node: the coordinator tells participants apart by
	// identity. Partition To-1 is the destination node's even before the
	// manifest says so.
	clients := map[string]*nodeClient{}
	c := &shard.Coordinator{
		JournalPath: jpath,
		Owner: func(p int) shard.Participant {
			name := hostOf(m, j.From, j.DestNode, p)
			if clients[name] == nil {
				clients[name] = &nodeClient{r: r, name: name, addr: m.Nodes[name].Addr}
			}
			return clients[name]
		},
		Gate: func(flip func() error) error {
			r.gate.Lock()
			defer r.gate.Unlock()
			return flip()
		},
		OnBegin:  r.reloadCutover,
		OnFinish: func() error { return r.installGrown(j) },
		Hook:     r.liveHook,
	}
	report, err := c.Run(j)
	if err != nil {
		return nil, err
	}
	// Best-effort immediate adoption of the new epoch fleet-wide; a node
	// that misses the poke catches up through the data-path epoch fence.
	final := r.Manifest()
	for _, name := range final.NodeNames() {
		_ = r.pokeRefresh(final.Nodes[name].Addr)
	}
	report.Dir = m.Dir
	report.Duration = time.Since(start)
	return report, nil
}

// pickDestNode chooses the node owning the fewest partitions
// (name-ordered tiebreak) to host the new one.
func pickDestNode(m *Manifest) string {
	best, bestOwned := "", -1
	for _, name := range m.NodeNames() {
		owned := len(m.PartitionsOf(name))
		if bestOwned == -1 || owned < bestOwned {
			best, bestOwned = name, owned
		}
	}
	return best
}

// installGrown is the fleet's half of the finish flip: every participant
// has restamped at the new layout, so the epoch-bumped manifest with the
// new shard count installs (idempotent — a finish-only resume finds it
// in place) and the cutover view drops. The coordinator removes the
// journal next.
func (r *Router) installGrown(j *shard.CutoverJournal) error {
	if cur := r.Manifest(); cur.Shards != j.To {
		nm := cur.Clone()
		nm.Epoch++
		nm.Shards = j.To
		nm.Assignments = append(nm.Assignments, j.DestNode)
		if err := Save(r.cfg.ManifestPath, nm); err != nil {
			return err
		}
		r.mu.Lock()
		err := r.installLocked(nm)
		r.mu.Unlock()
		if err != nil {
			return err
		}
	}
	r.rcut.Store(nil)
	return nil
}

// nodeClient is the networked shard.Participant: each method is one
// /admin/v1/cutover/* round trip to the node, retried against transient
// failures — the far side calls the same method on the node's runtime.
type nodeClient struct {
	r          *Router
	name, addr string
}

func (c *nodeClient) call(step, method, path string, in, out any) error {
	return c.r.adminRetry(fmt.Sprintf("%s on node %q", step, c.name), func() error {
		return c.r.adminJSON(method, c.addr, httpapi.Prefix+"/cutover/"+path, in, out)
	})
}

func (c *nodeClient) BeginCutover(spec shard.CutoverSpec, commit func(map[int]uint64) error) (*shard.CutoverBeginResult, error) {
	var res shard.CutoverBeginResult
	if err := c.call("cutover/begin", http.MethodPost, "begin", spec, &res); err != nil {
		return nil, err
	}
	if commit != nil {
		if err := commit(res.Freeze); err != nil {
			return nil, err
		}
	}
	return &res, nil
}

// PendingMoves blocks node-side until the donors' tails land; a request
// that times out first is retried like any transient failure.
func (c *nodeClient) PendingMoves() ([]shard.Move, error) {
	var body struct {
		Moves []shard.Move `json:"moves"`
	}
	err := c.call("listing pending moves", http.MethodGet, "moves", nil, &body)
	return body.Moves, err
}

func (c *nodeClient) CaptureMove(m shard.Move) (shard.MoveSplice, error) {
	var sp shard.MoveSplice
	err := c.call("capture move "+m.String(), http.MethodPost, "capture?move="+url.QueryEscape(m.String()), nil, &sp)
	return sp, err
}

func (c *nodeClient) InstallSplice(sp shard.MoveSplice) error {
	return c.call("install move "+sp.Move.String(), http.MethodPost, "install", sp, nil)
}

func (c *nodeClient) SyncCutover(committed []shard.Move) error {
	return c.call("syncing committed moves", http.MethodPost, "sync", map[string][]shard.Move{"committed": committed}, nil)
}

func (c *nodeClient) CompleteCutover(to int) error {
	return c.call("finishing cutover", http.MethodPost, fmt.Sprintf("finish?to=%d", to), nil, nil)
}

// adminRetry retries fn against transient failures (a node restarting
// mid-splice, a connection refused during failback) with a flat short
// sleep and a hard deadline. The cutover protocol is idempotent at
// every step, so blind retry is safe. An answer past the read bound is
// not transient and ends the retry at once.
func (r *Router) adminRetry(desc string, fn func() error) error {
	deadline := time.Now().Add(60 * time.Second)
	var err error
	for {
		if err = fn(); err == nil {
			return nil
		}
		if errors.Is(err, errAnswerTooLarge) || time.Now().After(deadline) {
			return fmt.Errorf("%s: %w", desc, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// adminJSON performs one admin round trip: JSON (or empty) request
// body, epoch-stamped, JSON answer decoded into out (when non-nil).
// Non-2xx answers decode the shared error envelope into the returned
// error.
func (r *Router) adminJSON(method, addr, path string, in, out any) error {
	header := http.Header{EpochHeader: {strconv.FormatUint(r.Manifest().Epoch, 10)}}
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
		header.Set("Content-Type", "application/json")
	}
	status, _, data, err := r.roundTrip(method, addr, path, r.cfg.RequestTimeout, header, body)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		if d := httpapi.DecodeDetail(data); d != nil {
			return fmt.Errorf("cluster: %s %s answered %d [%s]: %s", method, path, status, d.Code, d.Message)
		}
		return fmt.Errorf("cluster: %s %s answered %d: %s", method, path, status, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("cluster: decoding %s %s answer: %w", method, path, err)
		}
	}
	return nil
}

// RouterCutoverStatus is the live-rebalance progress block of the
// router's status answer, read from the journal.
type RouterCutoverStatus struct {
	From      int    `json:"from"`
	To        int    `json:"to"`
	DestNode  string `json:"dest_node"`
	Committed int    `json:"committed"`
}

// RouterStatus is the GET /admin/v1/status body of a front router.
type RouterStatus struct {
	Role    string               `json:"role"`
	Epoch   uint64               `json:"epoch"`
	Shards  int                  `json:"shards"`
	Nodes   map[string]bool      `json:"nodes"` // name -> alive (breaker view)
	Cutover *RouterCutoverStatus `json:"cutover,omitempty"`
	Build   httpapi.BuildInfo    `json:"build"`
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpapi.MethodNotAllowed(w, http.MethodGet, "status accepts GET only")
		return
	}
	m, _, nodes := r.fleetView()
	st := RouterStatus{Role: "router", Epoch: m.Epoch, Shards: m.Shards, Nodes: map[string]bool{}, Build: httpapi.Build()}
	for name := range m.Nodes {
		st.Nodes[name] = !nodes[name].dead.Load()
	}
	if j, err := shard.LoadCutoverJournal(cutoverJournalPath(r.cfg.ManifestPath)); err == nil && j != nil {
		st.Cutover = &RouterCutoverStatus{From: j.From, To: j.To, DestNode: j.DestNode, Committed: len(j.Committed)}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
