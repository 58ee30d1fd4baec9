package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logsynergy/internal/core"
	"logsynergy/internal/embed"
	"logsynergy/internal/fault"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/repr"
	"logsynergy/internal/shard"
	"logsynergy/internal/tensor"
)

// The headline proof, one level up from the shard equivalence suite:
// fixed-seed multi-key traffic POSTed through a front router to a
// 2-node fleet (plus a standby) yields bit-identical per-key score
// sequences and identical alert multisets versus a single-process
// `-shards N` runtime over the same stream — including across a mid-run
// node kill, health-probe death detection, epoch-bumped failover to the
// standby, and the retry of exactly the rejected lines.
//
// The corpus discipline is the same as the shard suite's: canonical
// line bodies whose parameters are all maskable and whose token counts
// are pairwise distinct, so every body pins to exactly one Drain
// template regardless of arrival order or which process parses it.

const eqHint = "a cross-process shard fleet"

var eqBodies = []string{
	"gc freed %B%",
	"cache hit key %H%",
	"replica sync offset %B% ok",
	"job %B% queued on partition %N%",
	"query ok rows %N% in %N% ms",
	"connection accepted from %IP% port %N% tls on",
	"request routed route api status %N% dur %N% ms",
	"cluster bus peer %IP% unreachable marking FAIL epoch %B% now",
	"rpc deadline exceeded method Charge dur %N% ms budget %N% ms",
	"disk flush wrote %B% bytes to segment %N% in %N% ms ok",
}

func eqKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = strconv.Itoa(7001 + i)
	}
	return keys
}

func genEqLines(seed int64, n int, keys []string) []string {
	rng := rand.New(rand.NewSource(seed))
	lines := make([]string, n)
	for i := range lines {
		body := eqBodies[rng.Intn(len(eqBodies))]
		var b strings.Builder
		for len(body) > 0 {
			j := strings.IndexByte(body, '%')
			if j < 0 {
				b.WriteString(body)
				break
			}
			k := strings.IndexByte(body[j+1:], '%')
			if k < 0 {
				b.WriteString(body)
				break
			}
			b.WriteString(body[:j])
			switch body[j+1 : j+1+k] {
			case "N":
				fmt.Fprintf(&b, "%d", rng.Intn(1000))
			case "B":
				fmt.Fprintf(&b, "%d", 10000+rng.Intn(99999999))
			case "H":
				fmt.Fprintf(&b, "0x%08x", rng.Uint32())
			case "IP":
				fmt.Fprintf(&b, "%d.%d.%d.%d", 10+rng.Intn(160), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
			}
			body = body[j+k+2:]
		}
		lines[i] = keys[rng.Intn(len(keys))] + " " + b.String()
	}
	return lines
}

// eqEnv builds a fresh deterministic detection environment: an untrained
// (seeded) model over an empty event table, with a pinned clock. Scores
// only have to be deterministic functions of the per-key streams — which
// they are: same templates → same interpretations → same embeddings →
// same model output, in every process.
func eqEnv() (*core.Detector, lei.Interpreter, *embed.Embedder) {
	cfg := core.DefaultConfig()
	m := core.NewModel(cfg, 2)
	table := &repr.EventTable{System: "SystemX", Dim: cfg.EmbedDim, Vectors: tensor.New(0, cfg.EmbedDim)}
	det := core.NewDetector(m, table)
	det.Now = func() time.Time { return time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC) }
	return det, lei.NewSimLLM(lei.Config{}), embed.New(cfg.EmbedDim)
}

type eqResult struct {
	scores map[string][]float64
	alerts map[string]int
}

func alertSigs(reports []*core.Report) map[string]int {
	sigs := make(map[string]int, len(reports))
	for _, r := range reports {
		sig := r.System + "|" + strconv.FormatFloat(r.Score, 'x', -1, 64) + "|" + strings.Join(r.Templates, "\x1f")
		sigs[sig]++
	}
	return sigs
}

func requireEqual(t *testing.T, label string, got, want eqResult) {
	t.Helper()
	if len(got.scores) != len(want.scores) {
		t.Fatalf("%s: %d keys scored, reference has %d", label, len(got.scores), len(want.scores))
	}
	for key, wantSeq := range want.scores {
		gotSeq := got.scores[key]
		if len(gotSeq) != len(wantSeq) {
			t.Fatalf("%s key %s: %d windows vs reference %d", label, key, len(gotSeq), len(wantSeq))
		}
		for i := range wantSeq {
			if gotSeq[i] != wantSeq[i] {
				t.Fatalf("%s key %s window %d: score %v != reference %v", label, key, i, gotSeq[i], wantSeq[i])
			}
		}
	}
	if len(got.alerts) != len(want.alerts) {
		t.Fatalf("%s: %d distinct alert signatures vs reference %d", label, len(got.alerts), len(want.alerts))
	}
	for sig, n := range want.alerts {
		if got.alerts[sig] != n {
			t.Fatalf("%s: alert %q seen %d times, reference %d", label, sig[:min(len(sig), 80)], got.alerts[sig], n)
		}
	}
}

// runShardReference drives the single-process `-shards N` runtime over
// the whole stream — the baseline the fleet must match bit for bit.
func runShardReference(t *testing.T, lines []string, shards int) eqResult {
	t.Helper()
	det, interp, e := eqEnv()
	sink := &pipeline.MemorySink{}
	var mu sync.Mutex
	scores := map[string][]float64{}
	rt, err := shard.Open(shard.Config{
		Shards:   shards,
		Dir:      t.TempDir(),
		Pipeline: pipeline.DefaultConfig(eqHint),
		Detector: det,
		Interp:   interp,
		Embedder: e,
		Sink:     sink,
		Metrics:  obs.NewRegistry(),
		OnWindow: func(sh int, key string, seq []int, score float64, abandoned bool) {
			if abandoned {
				t.Errorf("reference shard %d abandoned a window for key %q", sh, key)
			}
			mu.Lock()
			scores[key] = append(scores[key], score)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("reference Open: %v", err)
	}
	const batch = 64
	for i := 0; i < len(lines); i += batch {
		end := min(i+batch, len(lines))
		if _, err := rt.AppendBatch(lines[i:end]); err != nil {
			t.Fatalf("reference AppendBatch: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatalf("reference Drain: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("reference Close: %v", err)
	}
	return eqResult{scores: scores, alerts: alertSigs(sink.Reports())}
}

// fleetNode is one node process stand-in: a cluster.Node behind a real
// HTTP listener, with score/alert capture.
type fleetNode struct {
	node   *Node
	srv    *httptest.Server
	sink   *pipeline.MemorySink
	mu     sync.Mutex
	scores map[string][]float64
}

func (fn *fleetNode) result() eqResult {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	scores := make(map[string][]float64, len(fn.scores))
	for k, v := range fn.scores {
		scores[k] = append([]float64(nil), v...)
	}
	return eqResult{scores: scores, alerts: alertSigs(fn.sink.Reports())}
}

// startFleetNode opens name's slice of the fleet on ln. The runtime Dir
// comes from the manifest's shared-storage root.
func startFleetNode(t *testing.T, manifestPath, name string, ln net.Listener) *fleetNode {
	t.Helper()
	fn := &fleetNode{sink: &pipeline.MemorySink{}, scores: map[string][]float64{}}
	det, interp, e := eqEnv()
	n, err := StartNode(NodeConfig{
		ManifestPath: manifestPath,
		Name:         name,
		Runtime: shard.Config{
			Pipeline: pipeline.DefaultConfig(eqHint),
			Detector: det,
			Interp:   interp,
			Embedder: e,
			Sink:     fn.sink,
			Metrics:  obs.NewRegistry(),
			OnWindow: func(sh int, key string, seq []int, score float64, abandoned bool) {
				if abandoned {
					t.Errorf("node %s shard %d abandoned a window for key %q", name, sh, key)
				}
				fn.mu.Lock()
				fn.scores[key] = append(fn.scores[key], score)
				fn.mu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatalf("StartNode(%s): %v", name, err)
	}
	fn.node = n
	fn.srv = &httptest.Server{Listener: ln, Config: &http.Server{Handler: n.Handler()}}
	fn.srv.Start()
	return fn
}

// appendOne routes one line through a node runtime's AppendBatch.
func appendOne(rt *shard.Runtime, line string) error {
	_, err := rt.AppendBatch([]string{line})
	return err
}

func localListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

// saveManifest installs m as cluster.json in a fresh temporary directory
// and returns its path.
func saveManifest(t *testing.T, m *Manifest) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

// postLines POSTs a newline-delimited batch to a router URL and decodes
// the shard.IngestResponse every tier answers with.
func postLines(t *testing.T, url string, lines []string) (int, shard.IngestResponse) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "text/plain", strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	var rr shard.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("decoding route response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, rr
}

func TestClusterFleetEquivalenceWithFailover(t *testing.T) {
	const shards = 4
	keys := eqKeys(12)
	lines := genEqLines(4242, 3000, keys)
	ref := runShardReference(t, lines, shards)
	if len(ref.alerts) == 0 {
		t.Fatal("reference produced no alerts; the equivalence comparison is vacuous")
	}

	root := t.TempDir()
	manifestPath := filepath.Join(root, "cluster.json")
	dataDir := filepath.Join(root, "data")
	lnA, lnB, lnS := localListener(t), localListener(t), localListener(t)
	m := &Manifest{
		Epoch:  1,
		Shards: shards,
		Dir:    dataDir,
		Nodes: map[string]NodeSpec{
			"a":       {Addr: lnA.Addr().String()},
			"b":       {Addr: lnB.Addr().String()},
			"standby": {Addr: lnS.Addr().String(), Standby: true},
		},
		Assignments: []string{"a", "a", "b", "b"},
	}
	if err := Save(manifestPath, m); err != nil {
		t.Fatal(err)
	}
	epoch1 := m.Clone() // the stale view a dead node would restart with

	a := startFleetNode(t, manifestPath, "a", lnA)
	b := startFleetNode(t, manifestPath, "b", lnB)
	s := startFleetNode(t, manifestPath, "standby", lnS)
	defer b.srv.Close()
	defer s.srv.Close()
	defer b.node.Close()
	defer s.node.Close()

	if got := a.node.Runtime().Owned(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("node a owns %v, want [0 1]", got)
	}
	if got := s.node.Runtime().Owned(); len(got) != 0 {
		t.Fatalf("standby owns %v before failover", got)
	}

	reg := obs.NewRegistry()
	r, err := NewRouter(RouterConfig{
		ManifestPath: manifestPath,
		Metrics:      reg,
		Attempts:     2,
		FailAfter:    3,
		Failover:     true,
		Sleep:        func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rsrv := httptest.NewServer(r.Handler())
	defer rsrv.Close()

	// Phase 1: the fleet under normal traffic — every batch fully acked.
	const batch = 100
	const killAt = 1500
	for i := 0; i < killAt; i += batch {
		status, rr := postLines(t, rsrv.URL, lines[i:i+batch])
		if status != http.StatusAccepted || rr.Rejected != 0 {
			t.Fatalf("batch at %d: status %d, %d rejected (%+v)", i, status, rr.Rejected, rr.Partitions)
		}
		if rr.Epoch != 1 {
			t.Fatalf("batch at %d routed under epoch %d", i, rr.Epoch)
		}
	}

	// Kill node a. The drain first pins the capture bookkeeping (the same
	// discipline as the shard crash suite): everything a acked is either
	// committed — so the standby will not re-detect it — or still in the
	// WAL tail the standby resumes exactly. Kill drops the WAL handles
	// with no graceful close and releases the partition flocks the way
	// the OS releases a dead process's, and the server goes down with it.
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	if err := a.node.Drain(drainCtx); err != nil {
		cancel()
		t.Fatalf("draining node a before the kill: %v", err)
	}
	cancel()
	a.node.Kill()
	a.srv.Close()

	// Phase 2: the next batch partially fails — node b's share is acked,
	// node a's share is rejected with the exact request-order indices.
	status, rr := postLines(t, rsrv.URL, lines[killAt:killAt+batch])
	if status != http.StatusTooManyRequests {
		t.Fatalf("post-kill batch: status %d, want 429", status)
	}
	if rr.Rejected == 0 || rr.Rejected != len(rr.RejectedLines) {
		t.Fatalf("post-kill batch: %d rejected but %d rejected-line indices", rr.Rejected, len(rr.RejectedLines))
	}
	if rr.Acked+rr.Rejected != batch {
		t.Fatalf("post-kill batch: acked %d + rejected %d != %d", rr.Acked, rr.Rejected, batch)
	}
	for _, p := range rr.Partitions {
		if p.Rejected > 0 && p.Node != "a" {
			t.Fatalf("partition %d rejected on node %q; only a is dead", p.Partition, p.Node)
		}
	}
	retry := make([]string, 0, len(rr.RejectedLines))
	for _, idx := range rr.RejectedLines {
		retry = append(retry, lines[killAt+idx])
	}

	// The health probe detects the death (the failed ingest attempts
	// already fed the breaker) and fails over to the standby.
	var probed ProbeResult
	for _, pr := range r.ProbeOnce() {
		if pr.Node == "a" {
			probed = pr
		}
	}
	if probed.Alive || !probed.FailedOver {
		t.Fatalf("probe of dead node a: %+v", probed)
	}
	if got := r.Manifest().Epoch; got != 2 {
		t.Fatalf("router epoch %d after failover, want 2", got)
	}
	if got := s.node.Epoch(); got != 2 {
		t.Fatalf("standby epoch %d after failover, want 2", got)
	}
	if got := s.node.Runtime().Owned(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("standby owns %v after failover, want [0 1]", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster.failovers_total"] != 1 || snap.Counters["cluster.router_node_down_total"] != 1 {
		t.Fatalf("failover counters: %+v", snap.Counters)
	}

	// Fencing: the dead node restarting with its stale epoch-1 manifest
	// must be refused — its partitions are leased at epoch 2 now.
	if _, err := StartNode(NodeConfig{ManifestPath: saveManifest(t, epoch1), Name: "a", Runtime: shard.Config{
		Pipeline: pipeline.DefaultConfig(eqHint),
	}}); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("stale node a restart: %v", err)
	}

	// Phase 3: retry exactly the rejected lines, then the rest of the
	// stream — all of it now routing a's old partitions to the standby.
	status, rr = postLines(t, rsrv.URL, retry)
	if status != http.StatusAccepted || rr.Rejected != 0 {
		t.Fatalf("retry after failover: status %d, %d rejected", status, rr.Rejected)
	}
	if rr.Epoch != 2 {
		t.Fatalf("retry routed under epoch %d, want 2", rr.Epoch)
	}
	for i := killAt + batch; i < len(lines); i += batch {
		end := min(i+batch, len(lines))
		status, rr := postLines(t, rsrv.URL, lines[i:end])
		if status != http.StatusAccepted || rr.Rejected != 0 {
			t.Fatalf("batch at %d after failover: status %d, %d rejected", i, status, rr.Rejected)
		}
	}

	for _, fn := range []*fleetNode{b, s} {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := fn.node.Drain(ctx); err != nil {
			cancel()
			t.Fatalf("draining node %s: %v", fn.node.Name(), err)
		}
		cancel()
	}

	// The federated scrape: fleet totals plus per-node series, with the
	// dead node contributing only node.a.up 0.
	mresp, err := http.Get(rsrv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mbody)
	for _, want := range []string{"node.a.up 0", "node.b.up 1", "node.standby.up 1", "node.b.shard.routed_lines_total", "cluster.failovers_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("federated /metrics missing %q:\n%s", want, metrics)
		}
	}

	// The verdict: per-key scores and alert multisets, ordered a → standby
	// (a's captures strictly precede the standby's for the keys that moved)
	// and merged with b's disjoint keys, must match the single-process
	// reference bit for bit — zero acknowledged loss, zero duplication.
	merged := eqResult{scores: map[string][]float64{}, alerts: map[string]int{}}
	for _, fn := range []*fleetNode{a, s, b} {
		res := fn.result()
		for k, v := range res.scores {
			merged.scores[k] = append(merged.scores[k], v...)
		}
		for sig, n := range res.alerts {
			merged.alerts[sig] += n
		}
	}
	requireEqual(t, "fleet", merged, ref)
}

// A subset node serves exactly its assigned partitions: keys owned
// elsewhere are rejected with ErrNotAssigned, and /healthz reports only
// the owned partitions' lag.
func TestClusterNodeServesOnlyAssignedPartitions(t *testing.T) {
	m := &Manifest{
		Epoch:  1,
		Shards: 2,
		Nodes: map[string]NodeSpec{
			"a": {Addr: "127.0.0.1:1001"},
			"b": {Addr: "127.0.0.1:1002"},
		},
		Assignments: []string{"a", "b"},
	}
	det, interp, e := eqEnv()
	dir := t.TempDir()
	n, err := StartNode(NodeConfig{
		ManifestPath: saveManifest(t, m),
		Name:         "a",
		Runtime: shard.Config{
			Dir:      dir,
			Pipeline: pipeline.DefaultConfig(eqHint),
			Detector: det,
			Interp:   interp,
			Embedder: e,
			Sink:     &pipeline.MemorySink{},
			Metrics:  obs.NewRegistry(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	rt := n.Runtime()
	if got := rt.Owned(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("node a owns %v, want [0]", got)
	}

	// Find one key per partition; the ring spans both even though only
	// one is open here.
	keyFor := map[int]string{}
	for i := 0; len(keyFor) < 2; i++ {
		k := strconv.Itoa(9000 + i)
		keyFor[rt.PartitionFor(k)] = k
	}
	if err := appendOne(rt, keyFor[0]+" gc freed 12345"); err != nil {
		t.Fatalf("append to owned partition: %v", err)
	}
	if err := appendOne(rt, keyFor[1]+" gc freed 12345"); !errors.Is(err, shard.ErrNotAssigned) {
		t.Fatalf("append to unowned partition: %v, want ErrNotAssigned", err)
	}

	h := n.Health()
	if h.Shards != 2 || len(h.Partitions) != 1 || h.Partitions[0].Partition != 0 {
		t.Fatalf("health: %+v", h)
	}

	// The lease landed before the open.
	l, err := readLease(shard.PartitionDir(dir, 0))
	if err != nil || l == nil || l.Node != "a" || l.Epoch != 1 {
		t.Fatalf("lease: %+v, %v", l, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// A deposed node fences itself off the data path: a newer epoch that
// assigns one of its partitions elsewhere makes Refresh drop it —
// crash-style, no further writes — and release the flock, after which
// the new owner opens the partition via crash recovery and appends for
// that partition answer "not assigned" on the old owner.
func TestClusterNodeRefreshDropsDeposedPartitions(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "cluster.json")
	dataDir := filepath.Join(root, "data")
	m := &Manifest{
		Epoch:  1,
		Shards: 2,
		Dir:    dataDir,
		Nodes: map[string]NodeSpec{
			"a": {Addr: "127.0.0.1:1001"},
			"b": {Addr: "127.0.0.1:1002"},
		},
		Assignments: []string{"a", "a"},
	}
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	det, interp, e := eqEnv()
	a, err := StartNode(NodeConfig{ManifestPath: path, Name: "a", Runtime: shard.Config{
		Pipeline: pipeline.DefaultConfig(eqHint),
		Detector: det,
		Interp:   interp,
		Embedder: e,
		Sink:     &pipeline.MemorySink{},
		Metrics:  obs.NewRegistry(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	rt := a.Runtime()
	keyFor := map[int]string{}
	for i := 0; len(keyFor) < 2; i++ {
		k := strconv.Itoa(8000 + i)
		keyFor[rt.PartitionFor(k)] = k
	}
	for p := 0; p < 2; p++ {
		if err := appendOne(rt, keyFor[p]+" gc freed 12345"); err != nil {
			t.Fatalf("append to partition %d: %v", p, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Epoch 2 hands partition 1 to b.
	m2 := m.Clone()
	m2.Epoch = 2
	m2.Assignments = []string{"a", "b"}
	if err := Save(path, m2); err != nil {
		t.Fatal(err)
	}
	rep, err := a.Refresh()
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if rep.Epoch != 2 || !reflect.DeepEqual(rep.Dropped, []int{1}) || len(rep.Adopted) != 0 {
		t.Fatalf("refresh report: %+v", rep)
	}
	if got := rt.Owned(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("node a owns %v after being deposed from p1, want [0]", got)
	}
	if err := appendOne(rt, keyFor[1]+" gc freed 12345"); !errors.Is(err, shard.ErrNotAssigned) {
		t.Fatalf("append to dropped partition: %v, want ErrNotAssigned", err)
	}
	if err := appendOne(rt, keyFor[0]+" gc freed 12345"); err != nil {
		t.Fatalf("append to kept partition: %v", err)
	}

	// The flock is free and the record supersedable: b opens partition 1
	// through crash recovery and holds the epoch-2 lease.
	det2, interp2, e2 := eqEnv()
	b, err := StartNode(NodeConfig{ManifestPath: path, Name: "b", Runtime: shard.Config{
		Pipeline: pipeline.DefaultConfig(eqHint),
		Detector: det2,
		Interp:   interp2,
		Embedder: e2,
		Sink:     &pipeline.MemorySink{},
		Metrics:  obs.NewRegistry(),
	}})
	if err != nil {
		t.Fatalf("StartNode(b) after the drop: %v", err)
	}
	defer b.Close()
	if got := b.Runtime().Owned(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("node b owns %v, want [1]", got)
	}
	l, err := readLease(shard.PartitionDir(dataDir, 1))
	if err != nil || l == nil || l.Node != "b" || l.Epoch != 2 {
		t.Fatalf("p1 lease after handoff: %+v, %v", l, err)
	}
}

// The data-path epoch fence: a share routed under a newer epoch than
// the node serves is refused with 409 when the node cannot catch up,
// and every /ingest answer carries the node's epoch.
func TestClusterIngestEpochFence(t *testing.T) {
	m := &Manifest{
		Epoch:       1,
		Shards:      1,
		Nodes:       map[string]NodeSpec{"a": {Addr: "127.0.0.1:1001"}},
		Assignments: []string{"a"},
	}
	det, interp, e := eqEnv()
	n, err := StartNode(NodeConfig{ManifestPath: saveManifest(t, m), Name: "a", Runtime: shard.Config{
		Dir:      t.TempDir(),
		Pipeline: pipeline.DefaultConfig(eqHint),
		Detector: det,
		Interp:   interp,
		Embedder: e,
		Sink:     &pipeline.MemorySink{},
		Metrics:  obs.NewRegistry(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	post := func(epochHeader string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/ingest", strings.NewReader("k1 gc freed 12345"))
		if err != nil {
			t.Fatal(err)
		}
		if epochHeader != "" {
			req.Header.Set(EpochHeader, epochHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// A request from the future (this node holds an in-memory manifest,
	// so it cannot refresh) is refused: the node might no longer own the
	// share's partitions.
	resp := post("2")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("newer-epoch ingest: status %d, want 409", resp.StatusCode)
	}
	if got := resp.Header.Get(EpochHeader); got != "1" {
		t.Fatalf("409 answered with epoch header %q, want 1", got)
	}

	// The matching epoch and a plain unstamped collector both serve.
	for _, h := range []string{"1", ""} {
		resp := post(h)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest with epoch header %q: status %d, want 202", h, resp.StatusCode)
		}
		if got := resp.Header.Get(EpochHeader); got != "1" {
			t.Fatalf("answer epoch header %q, want 1", got)
		}
	}

	// A malformed header is a client error, not a served batch.
	resp = post("not-a-number")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad epoch header: status %d, want 400", resp.StatusCode)
	}
}

// A router that missed an epoch bump recovers during serving: a node
// answering "not assigned" (or from a newer epoch) triggers a manifest
// reload, so the collector's retry routes to the current owner.
func TestClusterRouterReloadOnStaleView(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")

	// "old" no longer owns partition 0 and says so, answering under
	// epoch 2; "new" acks everything.
	oldSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		c := len(strings.Split(strings.TrimSpace(string(body)), "\n"))
		w.Header().Set(EpochHeader, "2")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(shard.IngestResponse{
			Rejected:   c,
			Partitions: []shard.PartitionResult{{Partition: 0, Rejected: c, Error: "not assigned"}},
		})
	}))
	defer oldSrv.Close()
	newSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		c := len(strings.Split(strings.TrimSpace(string(body)), "\n"))
		w.Header().Set(EpochHeader, "2")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(shard.IngestResponse{
			Acked:      c,
			Partitions: []shard.PartitionResult{{Partition: 0, Acked: c}},
		})
	}))
	defer newSrv.Close()

	m1 := &Manifest{
		Epoch:  1,
		Shards: 1,
		Nodes: map[string]NodeSpec{
			"old": {Addr: oldSrv.URL},
			"new": {Addr: newSrv.URL},
		},
		Assignments: []string{"old"},
	}
	if err := Save(path, m1); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{ManifestPath: path, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The epoch bump lands on disk without this router hearing about it.
	m2 := m1.Clone()
	m2.Epoch = 2
	m2.Assignments = []string{"new"}
	if err := Save(path, m2); err != nil {
		t.Fatal(err)
	}

	rr := r.RouteBatch([]string{"k1 hello world"})
	if rr.Rejected != 1 || len(rr.Partitions) != 1 || rr.Partitions[0].Error != "not assigned" {
		t.Fatalf("stale-routed batch: %+v", rr)
	}
	if got := r.Manifest().Epoch; got != 2 {
		t.Fatalf("router epoch %d after a not-assigned answer, want 2 (reloaded)", got)
	}
	rr = r.RouteBatch([]string{"k1 hello world"})
	if rr.Rejected != 0 || rr.Acked != 1 || rr.Epoch != 2 {
		t.Fatalf("retry after reload: %+v", rr)
	}
}

// The send path consults the per-node breaker: once ingest failures
// alone have opened it (no probing), further batches fail fast instead
// of burning Attempts x RequestTimeout per batch.
func TestClusterRouterBreakerFailsFastOnSendPath(t *testing.T) {
	ln := localListener(t)
	addr := ln.Addr().String()
	ln.Close() // nobody listens: every dial is refused

	m := &Manifest{
		Epoch:       1,
		Shards:      1,
		Nodes:       map[string]NodeSpec{"gone": {Addr: addr}},
		Assignments: []string{"gone"},
	}
	reg := obs.NewRegistry()
	r, err := NewRouter(RouterConfig{ManifestPath: saveManifest(t, m), Metrics: reg, Attempts: 3, FailAfter: 2, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// First batch: the full attempt budget is burned and the breaker
	// opens (2 failures >= FailAfter).
	// The rejection carries the last transport error.
	rr := r.RouteBatch([]string{"k1 hello world"})
	if rr.Rejected != 1 || !strings.HasPrefix(rr.Partitions[0].Error, "node unreachable: ") || !strings.Contains(rr.Partitions[0].Error, addr) {
		t.Fatalf("first batch: %+v", rr)
	}
	snap := reg.Snapshot()
	retriesAfterFirst := snap.Counters["cluster.router_retries_total"]
	if retriesAfterFirst != 2 {
		t.Fatalf("retries after first batch: %d, want 2", retriesAfterFirst)
	}

	// Second batch: the open breaker short-circuits — same rejection,
	// zero additional attempts.
	rr = r.RouteBatch([]string{"k1 hello world"})
	if rr.Rejected != 1 || rr.Partitions[0].Error != "node unreachable" {
		t.Fatalf("second batch: %+v", rr)
	}
	snap = reg.Snapshot()
	if got := snap.Counters["cluster.router_retries_total"]; got != retriesAfterFirst {
		t.Fatalf("retries grew %d -> %d; the open breaker should fail fast", retriesAfterFirst, got)
	}
	if got := snap.Counters["cluster.router_unreachable_total"]; got != 2 {
		t.Fatalf("unreachable_total %d, want 2", got)
	}
}

// Manifest reloads that introduce new nodes must not race concurrent
// routing and probing over the fleet view (the nodes map is
// copy-on-write). Run under -race.
func TestClusterRouterReloadDuringTrafficRace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		c := len(strings.Split(strings.TrimSpace(string(body)), "\n"))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(shard.IngestResponse{
			Acked:      c,
			Partitions: []shard.PartitionResult{{Partition: 0, Acked: c}},
		})
	}))
	defer ok.Close()

	m := &Manifest{
		Epoch:       1,
		Shards:      1,
		Nodes:       map[string]NodeSpec{"n0": {Addr: ok.URL}},
		Assignments: []string{"n0"},
	}
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{ManifestPath: path, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.RouteBatch([]string{"k1 hello world"})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.ProbeOnce()
			}
		}
	}()
	for epoch := uint64(2); epoch <= 8; epoch++ {
		mm := m.Clone()
		mm.Epoch = epoch
		mm.Nodes[fmt.Sprintf("extra%d", epoch)] = NodeSpec{Addr: "127.0.0.1:1", Standby: true}
		if err := Save(path, mm); err != nil {
			t.Fatal(err)
		}
		if err := r.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := r.Manifest().Epoch; got != 8 {
		t.Fatalf("router epoch %d after reloads, want 8", got)
	}
}

// Satellite: per-partition Retry-After propagation. A node rejecting
// with 429 + Retry-After surfaces the hint per partition and as the
// response-wide max, and bumps cluster.router_retry_after_total.
func TestClusterRouterRetryAfterPropagation(t *testing.T) {
	const shards = 2
	ring := shard.NewPartitioner(shards)
	keyFor := map[int]string{}
	for i := 0; len(keyFor) < shards; i++ {
		k := strconv.Itoa(5000 + i)
		keyFor[ring.Partition(k)] = k
	}

	// Node "full" (partition 0) answers 429 with a retry hint; node "ok"
	// (partition 1) acks everything.
	full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		n := len(strings.Split(strings.TrimSpace(string(body)), "\n"))
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(shard.IngestResponse{
			Rejected:   n,
			Partitions: []shard.PartitionResult{{Partition: 0, Rejected: n, Error: "backlog full"}},
		})
	}))
	defer full.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		n := len(strings.Split(strings.TrimSpace(string(body)), "\n"))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(shard.IngestResponse{
			Acked:      n,
			Partitions: []shard.PartitionResult{{Partition: 1, Acked: n}},
		})
	}))
	defer ok.Close()

	m := &Manifest{
		Epoch:  1,
		Shards: shards,
		Nodes: map[string]NodeSpec{
			"full": {Addr: full.URL},
			"ok":   {Addr: ok.URL},
		},
		Assignments: []string{"full", "ok"},
	}
	reg := obs.NewRegistry()
	r, err := NewRouter(RouterConfig{ManifestPath: saveManifest(t, m), Metrics: reg, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rsrv := httptest.NewServer(r.Handler())
	defer rsrv.Close()

	batch := []string{
		keyFor[1] + " line one",
		keyFor[0] + " line two",
		keyFor[1] + " line three",
		keyFor[0] + " line four",
		keyFor[0] + " line five",
	}
	resp, err := http.Post(rsrv.URL+"/ingest", "text/plain", strings.NewReader(strings.Join(batch, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After header %q, want 7", got)
	}
	var rr shard.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.RetryAfterSeconds != 7 {
		t.Fatalf("RetryAfterSeconds %d, want 7", rr.RetryAfterSeconds)
	}
	if !reflect.DeepEqual(rr.RejectedLines, []int{1, 3, 4}) {
		t.Fatalf("RejectedLines %v, want [1 3 4]", rr.RejectedLines)
	}
	if rr.Acked != 2 || rr.Rejected != 3 {
		t.Fatalf("acked %d rejected %d", rr.Acked, rr.Rejected)
	}
	for _, p := range rr.Partitions {
		switch p.Partition {
		case 0:
			if p.Node != "full" || p.Rejected != 3 || p.Error != "backlog full" || p.RetryAfterSeconds != 7 {
				t.Fatalf("partition 0 row: %+v", p)
			}
		case 1:
			if p.Node != "ok" || p.Acked != 2 || p.RetryAfterSeconds != 0 {
				t.Fatalf("partition 1 row: %+v", p)
			}
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster.router_retry_after_total"] != 1 {
		t.Fatalf("router_retry_after_total %d, want 1", snap.Counters["cluster.router_retry_after_total"])
	}
	if snap.Counters["cluster.router_rejected_lines_total"] != 3 || snap.Counters["cluster.router_routed_lines_total"] != 2 {
		t.Fatalf("line counters: %+v", snap.Counters)
	}
}

// The router acks only what a node vouched for line by line. An answer it
// cannot hold against the share it sent — a rejection filed under a
// partition the router did not file the lines under, a rejected_lines that
// disagrees with the rejected count, counts that do not add up to the
// share, a body that is not the contract's — rejects the whole share.
func TestRouterRejectsUnverifiableAnswer(t *testing.T) {
	batch := []string{"k1 hello world", "k2 hello again", "k3 hello thrice"}
	full := func(part int) []shard.PartitionResult {
		return []shard.PartitionResult{{Partition: part, Rejected: len(batch), Error: "backlog full"}}
	}
	for _, tc := range []struct {
		name      string
		status    int
		body      any
		wantLabel string
	}{
		{"rejection under a partition the router did not route to", http.StatusTooManyRequests,
			shard.IngestResponse{Rejected: 3, Partitions: full(2), RejectedLines: []int{0, 1, 2}}, "backlog full"},
		{"rejected_lines shorter than rejected", http.StatusTooManyRequests,
			shard.IngestResponse{Rejected: 3, Partitions: full(0), RejectedLines: []int{1}}, "backlog full"},
		{"rejected_lines out of range", http.StatusTooManyRequests,
			shard.IngestResponse{Acked: 2, Rejected: 1, Partitions: full(0), RejectedLines: []int{3}}, "backlog full"},
		{"acked short of the share", http.StatusAccepted,
			shard.IngestResponse{Acked: 2, Partitions: []shard.PartitionResult{{Partition: 0, Acked: 2}}}, "unverifiable answer"},
		{"a 202 that is not the contract's body", http.StatusAccepted, "ok", "unverifiable answer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(tc.status)
				json.NewEncoder(w).Encode(tc.body)
			}))
			defer node.Close()
			r, err := NewRouter(RouterConfig{Sleep: func(time.Duration) {}, ManifestPath: saveManifest(t, &Manifest{
				Epoch:       1,
				Shards:      1,
				Nodes:       map[string]NodeSpec{"only": {Addr: node.URL}},
				Assignments: []string{"only"},
			})})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			rsrv := httptest.NewServer(r.Handler())
			defer rsrv.Close()

			status, rr := postLines(t, rsrv.URL, batch)
			if status != http.StatusTooManyRequests || rr.Acked != 0 || rr.Rejected != 3 || !reflect.DeepEqual(rr.RejectedLines, []int{0, 1, 2}) {
				t.Fatalf("status %d, acked %d, rejected %d %v; want 429 with the whole share rejected", status, rr.Acked, rr.Rejected, rr.RejectedLines)
			}
			if len(rr.Partitions) != 1 || rr.Partitions[0].Partition != 0 || rr.Partitions[0].Error != tc.wantLabel {
				t.Fatalf("rows %+v, want the router's own partition 0 labelled %q", rr.Partitions, tc.wantLabel)
			}
		})
	}
}

// A ring change is a layout change: a newer manifest that keeps the shard
// count and changes the vnode count would leave a reloaded router hashing
// on a ring no node's runtime holds. Router and node both refuse it and
// keep the view they have.
func TestReloadRefusesVnodesChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	m := testManifest()
	m.Dir = filepath.Join(filepath.Dir(path), "data")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{ManifestPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	det, interp, e := eqEnv()
	n, err := StartNode(NodeConfig{ManifestPath: path, Name: "a", Runtime: shard.Config{
		Pipeline: pipeline.DefaultConfig(eqHint),
		Detector: det,
		Interp:   interp,
		Embedder: e,
		Sink:     &pipeline.MemorySink{},
		Metrics:  obs.NewRegistry(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	bumped := m.Clone()
	bumped.Epoch++
	bumped.Vnodes = 7
	if err := Save(path, bumped); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err == nil || !strings.Contains(err.Error(), "restart the router for a layout change") {
		t.Fatalf("router reload of a vnodes-only bump: %v", err)
	}
	if got := r.Manifest(); got.Epoch != m.Epoch || got.Vnodes != m.Vnodes {
		t.Fatalf("router installed the refused manifest: epoch %d, vnodes %d", got.Epoch, got.Vnodes)
	}
	if _, err := n.Refresh(); err == nil || !strings.Contains(err.Error(), "restart the node for a layout change") {
		t.Fatalf("node refresh of a vnodes-only bump: %v", err)
	}
	if got := n.Manifest(); got.Epoch != m.Epoch || got.Vnodes != m.Vnodes {
		t.Fatalf("node installed the refused manifest: epoch %d, vnodes %d", got.Epoch, got.Vnodes)
	}
}

// Transport-level failures retry with seeded backoff and succeed within
// the attempt budget; a 429 is a verdict, never retried internally.
func TestClusterRouterRetriesTransientFailures(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		body, _ := io.ReadAll(req.Body)
		c := len(strings.Split(strings.TrimSpace(string(body)), "\n"))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(shard.IngestResponse{
			Acked:      c,
			Partitions: []shard.PartitionResult{{Partition: 0, Acked: c}},
		})
	}))
	defer flaky.Close()

	m := &Manifest{
		Epoch:       1,
		Shards:      1,
		Nodes:       map[string]NodeSpec{"only": {Addr: flaky.URL}},
		Assignments: []string{"only"},
	}
	reg := obs.NewRegistry()
	r, err := NewRouter(RouterConfig{ManifestPath: saveManifest(t, m), Metrics: reg, Attempts: 3, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rr := r.RouteBatch([]string{"k1 hello world", "k2 hello again"})
	if rr.Rejected != 0 || rr.Acked != 2 {
		t.Fatalf("flaky node: acked %d rejected %d", rr.Acked, rr.Rejected)
	}
	if got := reg.Snapshot().Counters["cluster.router_retries_total"]; got != 2 {
		t.Fatalf("router_retries_total %d, want 2", got)
	}

	// The retry schedule: two shares in a row against a node that fails
	// every attempt each sleep the backoff's Delay(1, s) then Delay(2, s),
	// with s the share's salt — 1 for the first share, 2 for the second.
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer down.Close()
	var slept []time.Duration
	reg = obs.NewRegistry()
	r2, err := NewRouter(RouterConfig{
		ManifestPath: saveManifest(t, &Manifest{
			Epoch:       1,
			Shards:      1,
			Nodes:       map[string]NodeSpec{"only": {Addr: down.URL}},
			Assignments: []string{"only"},
		}),
		Metrics:   reg,
		Attempts:  3,
		Backoff:   fault.Backoff{Seed: 7},
		FailAfter: 100, // keep the breaker closed for the second share
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for i := 0; i < 2; i++ {
		if rr := r2.RouteBatch([]string{"k1 hello world"}); rr.Rejected != 1 {
			t.Fatalf("share %d against a down node: %+v", i+1, rr)
		}
	}
	b := r2.cfg.Backoff
	want := []time.Duration{b.Delay(1, 1), b.Delay(2, 1), b.Delay(1, 2), b.Delay(2, 2)}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(slept, want) {
		t.Fatalf("retry delays %v, want %v", slept, want)
	}
	if got := reg.Snapshot().Counters["cluster.router_retries_total"]; got != 4 {
		t.Fatalf("router_retries_total %d after two failed shares, want 4", got)
	}
}

// A router restart (or a second router) picks up an epoch-bumped
// manifest via Reload; a stale file is a no-op.
func TestClusterRouterReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	m := testManifest()
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{ManifestPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Same epoch on disk: nothing changes.
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if r.Manifest().Epoch != 1 {
		t.Fatalf("epoch %d after stale reload", r.Manifest().Epoch)
	}

	nm, err := m.Reassign("a", "standby")
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(path, nm); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := r.Manifest(); got.Epoch != 2 || got.NodeFor(0) != "standby" {
		t.Fatalf("reloaded manifest: epoch %d, p0 -> %q", got.Epoch, got.NodeFor(0))
	}

	// A shard-count change is a layout change, not a reload.
	bad := nm.Clone()
	bad.Epoch++
	bad.Shards = 8
	bad.Assignments = append([]string(nil), "a", "a", "b", "b", "a", "a", "b", "b")
	if err := Save(path, bad); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err == nil || !strings.Contains(err.Error(), "shard count") {
		t.Fatalf("shard-count reload: %v", err)
	}
}

// A manifest whose shard count disagrees with the on-disk shard layout
// is refused by the runtime's layout stamp when the node opens.
func TestClusterNodeRefusesLayoutMismatch(t *testing.T) {
	dir := t.TempDir()
	// Lay down a 2-shard layout with enough traffic to persist the
	// per-partition layout stamps.
	det, interp, e := eqEnv()
	rt, err := shard.Open(shard.Config{
		Shards:   2,
		Dir:      dir,
		Pipeline: pipeline.DefaultConfig(eqHint),
		Detector: det,
		Interp:   interp,
		Embedder: e,
		Sink:     &pipeline.MemorySink{},
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AppendBatch(genEqLines(5, 400, eqKeys(6))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	// A 4-shard manifest over the same directory must be refused.
	m := &Manifest{
		Epoch:       1,
		Shards:      4,
		Dir:         dir,
		Nodes:       map[string]NodeSpec{"a": {Addr: "127.0.0.1:1001"}},
		Assignments: []string{"a", "a", "a", "a"},
	}
	det2, interp2, e2 := eqEnv()
	if _, err := StartNode(NodeConfig{ManifestPath: saveManifest(t, m), Name: "a", Runtime: shard.Config{
		Pipeline: pipeline.DefaultConfig(eqHint),
		Detector: det2,
		Interp:   interp2,
		Embedder: e2,
		Sink:     &pipeline.MemorySink{},
		Metrics:  obs.NewRegistry(),
	}}); err == nil {
		t.Fatal("4-shard manifest opened a 2-shard layout")
	} else if _, statErr := os.Stat(filepath.Join(dir, "p0", "shard-state.json")); statErr != nil {
		t.Fatalf("layout probe: %v (and state file missing: %v)", err, statErr)
	}
}

// A node's answer past maxSpliceBytes is an error that names the bound and
// the path, not a body cut at the bound that the caller then fails to
// decode. The error is final: adminRetry gives up at once instead of
// capturing and shipping the same oversized answer again until its
// deadline. An answer of exactly the bound is read whole.
func TestClusterRouterRefusesOversizedAnswer(t *testing.T) {
	var size atomic.Int64
	size.Store(maxSpliceBytes + 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(make([]byte, size.Load()))
	}))
	defer srv.Close()
	r := &Router{client: srv.Client()}
	const path = "/admin/v1/cutover/capture?move=0%3E1"
	calls := 0
	err := r.adminRetry("capture", func() error {
		calls++
		_, _, _, err := r.roundTrip(http.MethodPost, srv.URL, path, 30*time.Second, nil, nil)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "33554432") || !strings.Contains(err.Error(), path) {
		t.Fatalf("an answer of %d bytes: %v, want an error naming the %d-byte bound and %s", size.Load(), err, maxSpliceBytes, path)
	}
	if calls != 1 {
		t.Fatalf("the oversized answer was fetched %d times, want once", calls)
	}

	size.Store(maxSpliceBytes)
	_, _, data, err := r.roundTrip(http.MethodPost, srv.URL, path, 30*time.Second, nil, nil)
	if err != nil || len(data) != maxSpliceBytes {
		t.Fatalf("an answer of exactly the bound: %d bytes, %v", len(data), err)
	}
}
