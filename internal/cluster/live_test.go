package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/obs"
	"logsynergy/internal/shard"
)

// The networked live-rebalance proof, one level up from the shard
// suite's in-process cutover: a front router grows a 2-node fleet from 2
// to 3 partitions while fixed-seed traffic keeps flowing, driving the
// per-move capture → install → commit protocol over the admin API.
// Traffic is injected from the coordinator's own hook points, so "under
// traffic" is deterministic: batches land exactly at begin (through both
// the coordinating router and a second router holding a stale view), and
// at the first move's commit. The first move fails at "staged", installed
// on its destination but not committed. Either the destination node is killed there and restarted
// on the same address, and the cluster journal next to the manifest
// resumes the cutover on exactly one layout per key; or every node stays
// alive, and the retried cutover installs the move again over the copy
// its destination still holds in memory. The merged fleet output must
// match a single-process `-shards 3` runtime bit for bit — per-key score
// sequences score by score, alert multisets signature by signature —
// with zero acknowledged loss.

// liveEqMovingKeys splits keys by whether the 2→3 growth (default
// vnodes, the manifest's setting here) moves them.
func liveEqMovingKeys(keys []string) (moving, staying []string) {
	oldRing, newRing := shard.NewPartitioner(2), shard.NewPartitioner(3)
	for _, k := range keys {
		if oldRing.Partition(k) != newRing.Partition(k) {
			moving = append(moving, k)
		} else {
			staying = append(staying, k)
		}
	}
	return moving, staying
}

// retryRejected drives one batch through a router's RouteBatch until
// every line is acked, re-posting exactly the rejected lines. The
// per-key order survives because a cutover gate rejects every line of a
// gated key in the batch, never a suffix.
func retryRejected(t *testing.T, r *Router, batch []string) {
	t.Helper()
	chunk := batch
	for attempt := 0; len(chunk) > 0; attempt++ {
		if attempt > 10 {
			t.Fatalf("batch still rejected after %d retries", attempt)
		}
		rr := r.RouteBatch(chunk)
		if rr.Rejected == 0 {
			return
		}
		retry := make([]string, 0, rr.Rejected)
		for _, idx := range rr.RejectedLines {
			retry = append(retry, chunk[idx])
		}
		chunk = retry
	}
}

func TestClusterLiveRebalanceEquivalenceUnderTraffic(t *testing.T) {
	t.Run("dest killed at staged", func(t *testing.T) { clusterLiveEquivalence(t, true) })
	t.Run("every node alive", func(t *testing.T) { clusterLiveEquivalence(t, false) })
}

// clusterLiveEquivalence runs the 2→3 fleet growth under traffic, failing
// the first move at "staged" and, when killDest, killing the destination
// node there.
func clusterLiveEquivalence(t *testing.T, killDest bool) {
	keys := eqKeys(12)
	moving, staying := liveEqMovingKeys(keys)
	if len(moving) == 0 || len(staying) == 0 {
		t.Fatalf("fixture needs both moving and staying keys (got %d moving, %d staying)", len(moving), len(staying))
	}

	pre := genEqLines(6001, 1500, keys)
	midDW := genEqLines(6002, 200, keys)     // lands the instant the cutover begins
	midStale := genEqLines(6003, 200, keys)  // through a second router with a stale view
	midCommit := genEqLines(6004, 200, keys) // after the first move flips to dest-only routing
	post := genEqLines(6005, 1500, keys)
	var stream []string
	for _, seg := range [][]string{pre, midDW, midStale, midCommit, post} {
		stream = append(stream, seg...)
	}
	ref := runShardReference(t, stream, 3)
	if len(ref.alerts) == 0 {
		t.Fatal("reference produced no alerts; the equivalence comparison is vacuous")
	}

	root := t.TempDir()
	manifestPath := filepath.Join(root, "cluster.json")
	dataDir := filepath.Join(root, "data")
	lnA, lnB := localListener(t), localListener(t)
	addrB := lnB.Addr().String()
	m := &Manifest{
		Epoch:  1,
		Shards: 2,
		Dir:    dataDir,
		Nodes: map[string]NodeSpec{
			"a": {Addr: lnA.Addr().String()},
			"b": {Addr: addrB},
		},
		Assignments: []string{"a", "b"},
	}
	if err := Save(manifestPath, m); err != nil {
		t.Fatal(err)
	}

	a := startFleetNode(t, manifestPath, "a", lnA)
	defer a.srv.Close()
	defer a.node.Close()
	b := startFleetNode(t, manifestPath, "b", lnB)

	reg := obs.NewRegistry()
	r, err := NewRouter(RouterConfig{
		ManifestPath: manifestPath,
		Metrics:      reg,
		Attempts:     2,
		FailAfter:    100,
		Sleep:        func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rsrv := httptest.NewServer(r.Handler())
	defer rsrv.Close()

	// The second router: same manifest, its own view. It will not hear
	// about the cutover until a node's "not assigned" rejection makes it
	// reload.
	r2, err := NewRouter(RouterConfig{
		ManifestPath: manifestPath,
		Attempts:     2,
		FailAfter:    100,
		Sleep:        func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	postAcked := func(lines []string, wantEpoch uint64) {
		t.Helper()
		const batch = 100
		for i := 0; i < len(lines); i += batch {
			end := min(i+batch, len(lines))
			status, rr := postLines(t, rsrv.URL, lines[i:end])
			if status != http.StatusAccepted || rr.Rejected != 0 {
				t.Fatalf("batch at %d: status %d, %d rejected (%+v)", i, status, rr.Rejected, rr.Partitions)
			}
			if wantEpoch != 0 && rr.Epoch != wantEpoch {
				t.Fatalf("batch at %d routed under epoch %d, want %d", i, rr.Epoch, wantEpoch)
			}
		}
	}
	postAcked(pre, 1)

	// The coordinator's hook injects traffic at the protocol's own
	// boundaries and fails the first move once it is installed on its
	// destination, before the journal commits it.
	boom := errors.New("injected failure at staged")
	fedDW, fedStale, fedCommit, failed := false, false, false, false
	r.liveHook = func(phase, key string) error {
		switch {
		case phase == "begun" && !fedDW:
			fedDW = true
			postAcked(midDW, 1)
		case phase == "tail-landed" && !fedStale:
			fedStale = true
			// The stale router first routes moving keys by the old ring; a
			// begun node that does not host a key's destination refuses
			// it as "not assigned", the router reloads its view from the
			// journal, and the retry goes to the destination's node.
			// Nothing acked is lost.
			for i := 0; i < len(midStale); i += 50 {
				retryRejected(t, r2, midStale[i:min(i+50, len(midStale))])
			}
		case phase == "staged" && !failed:
			failed = true
			return boom
		case phase == "committed" && !fedCommit:
			fedCommit = true
			postAcked(midCommit, 1)
		}
		return nil
	}

	if _, err := r.LiveRebalance(3, "b"); !errors.Is(err, boom) {
		t.Fatalf("LiveRebalance with an injected failure: err = %v, want the injected failure", err)
	}
	jpath := cutoverJournalPath(manifestPath)
	if _, err := os.Stat(jpath); err != nil {
		t.Fatalf("cluster journal missing after the failure: %v", err)
	}
	nodes, live := []*fleetNode{a, b}, []*fleetNode{a, b}
	if killDest {
		b2 := killAndRestartDest(t, b, manifestPath, addrB)
		defer b2.srv.Close()
		defer b2.node.Close()
		nodes, live = append(nodes, b2), []*fleetNode{a, b2}
	} else {
		defer b.srv.Close()
		defer b.node.Close()
	}

	// Resume: the journal decides — re-begin every participant, drive
	// the remaining moves (the half-installed one re-captures on the donor,
	// whose tails were never scrubbed: exactly one layout owned them
	// throughout, and the repeat install replaces the destination's
	// uncommitted copy), and finish with the epoch-bumped manifest.
	report, err := r.LiveRebalance(3, "b")
	if err != nil {
		t.Fatalf("resuming LiveRebalance: %v", err)
	}
	if report.From != 2 || report.To != 3 || report.AlreadyBalanced {
		t.Fatalf("resume report: %+v", report)
	}
	if report.MovedKeys == 0 {
		t.Fatal("resumed rebalance moved no keys")
	}
	if !fedDW || !fedStale || !fedCommit || !failed {
		t.Fatalf("hook coverage: begun=%v stale=%v committed=%v failed at staged=%v", fedDW, fedStale, fedCommit, failed)
	}

	if _, err := os.Stat(jpath); !os.IsNotExist(err) {
		t.Fatalf("cluster journal still present after a completed rebalance (stat err %v)", err)
	}
	got := r.Manifest()
	if got.Epoch != 2 || got.Shards != 3 || !reflect.DeepEqual(got.Assignments, []string{"a", "b", "b"}) {
		t.Fatalf("post-rebalance manifest: epoch %d, %d shards, assignments %v", got.Epoch, got.Shards, got.Assignments)
	}
	newRing := shard.NewPartitioner(3)
	for _, k := range moving {
		if newRing.Partition(k) != 2 {
			t.Fatalf("moving key %s does not route to the new partition", k)
		}
	}

	// The rest of the stream routes under the new layout and epoch.
	postAcked(post, 2)

	// The router's status surface agrees the cutover is over.
	sresp, err := http.Get(rsrv.URL + "/admin/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var rst RouterStatus
	if err := json.NewDecoder(sresp.Body).Decode(&rst); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if rst.Role != "router" || rst.Epoch != 2 || rst.Shards != 3 || rst.Cutover != nil {
		t.Fatalf("router status after the rebalance: %+v", rst)
	}

	for _, fn := range live {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := fn.node.Drain(ctx); err != nil {
			cancel()
			t.Fatalf("draining node %s: %v", fn.node.Name(), err)
		}
		cancel()
	}

	// The verdict. Merge order a → b → b2: a donor's windows for a moved
	// key strictly precede the destination's (the capture barrier), and
	// the killed node's pre-crash windows precede its successor's (the
	// drain pinned them to a committed boundary).
	merged := eqResult{scores: map[string][]float64{}, alerts: map[string]int{}}
	for _, fn := range nodes {
		res := fn.result()
		for k, v := range res.scores {
			merged.scores[k] = append(merged.scores[k], v...)
		}
		for sig, n := range res.alerts {
			merged.alerts[sig] += n
		}
	}
	requireEqual(t, "live fleet 2→3", merged, ref)
}

// killAndRestartDest crashes the destination node b mid-cutover and
// restarts it on the same address from the cluster journal.
func killAndRestartDest(t *testing.T, b *fleetNode, manifestPath, addrB string) *fleetNode {
	t.Helper()
	// Crash the destination node mid-splice: quiesce to a committed
	// boundary (a parked destination consumer counts — the gate commits
	// before parking), then drop the WAL handles and flocks the way the
	// OS drops a dead process's.
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	if err := b.node.Drain(drainCtx); err != nil {
		cancel()
		t.Fatalf("draining node b before the kill: %v", err)
	}
	cancel()
	b.node.Kill()
	b.srv.Close()

	// Restart it on the same address. StartNode finds the cluster
	// journal next to the manifest and opens straight into the journaled
	// cutover: donors at the old layout with the recorded freezes, the
	// destination partition fenced, and the uncommitted install in its
	// snapshot left for the move's next install to replace.
	var lnB2 net.Listener
	for i := 0; ; i++ {
		var lerr error
		lnB2, lerr = net.Listen("tcp", addrB)
		if lerr == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebinding %s: %v", addrB, lerr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	b2 := startFleetNode(t, manifestPath, "b", lnB2)
	if got := b2.node.Runtime().Shards(); got != 3 {
		t.Fatalf("restarted dest node serves %d partitions, want 3 (mid-cutover layout)", got)
	}
	if got := b2.node.Runtime().Owned(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("restarted dest node owns %v, want [1 2]", got)
	}

	// The restarted node's status surface reports the in-flight cutover.
	sresp, err := http.Get(b2.srv.URL + "/admin/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var nst NodeStatus
	if err := json.NewDecoder(sresp.Body).Decode(&nst); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if nst.Node != "b" || nst.Shards != 3 || nst.Cutover == nil || nst.Cutover.From != 2 || nst.Cutover.To != 3 {
		t.Fatalf("restarted node status: %+v (cutover %+v)", nst, nst.Cutover)
	}
	return b2
}

// A router that missed a whole cutover costs a rejected batch and a reload,
// never an acknowledged line. Router A grows the fleet 2→3; router B opened
// the same manifest before that and heard nothing since. B still hashes on
// the 2-ring and sends the keys that moved (old partition 0, new partition
// 2) to node a in one share with keys that stayed on partition 0; a hashes
// on the 3-ring, appends what it serves and names the rest by line. B
// believes that verdict, not a match of its partition indices against a's:
// the moved lines are rejected "not assigned", B reloads to epoch 2, and the
// collector's retry of exactly rejected_lines lands every line once.
func TestClusterStaleRouterAfterFinishedCutover(t *testing.T) {
	oldRing, newRing := shard.NewPartitioner(2), shard.NewPartitioner(3)
	var moved, stayed []string
	for _, k := range eqKeys(64) {
		switch {
		case oldRing.Partition(k) == 0 && newRing.Partition(k) == 2:
			moved = append(moved, k)
		case newRing.Partition(k) == oldRing.Partition(k):
			stayed = append(stayed, k)
		}
	}
	if len(moved) < 2 || len(stayed) < 2 {
		t.Fatalf("fixture needs moved and staying keys (got %d, %d)", len(moved), len(stayed))
	}
	var batch []string
	var wantRejected []int
	for i := 0; i < 6; i++ {
		wantRejected = append(wantRejected, len(batch))
		batch = append(batch, moved[i%len(moved)]+" gc freed 12345", stayed[i%len(stayed)]+" cache hit key 0x0000beef")
	}

	root := t.TempDir()
	manifestPath := filepath.Join(root, "cluster.json")
	lnA, lnB := localListener(t), localListener(t)
	m := &Manifest{
		Epoch:  1,
		Shards: 2,
		Dir:    filepath.Join(root, "data"),
		Nodes: map[string]NodeSpec{
			"a": {Addr: lnA.Addr().String()},
			"b": {Addr: lnB.Addr().String()},
		},
		Assignments: []string{"a", "b"},
	}
	if err := Save(manifestPath, m); err != nil {
		t.Fatal(err)
	}
	a := startFleetNode(t, manifestPath, "a", lnA)
	defer a.srv.Close()
	defer a.node.Close()
	b := startFleetNode(t, manifestPath, "b", lnB)
	defer b.srv.Close()
	defer b.node.Close()
	fleetRouted := func() int64 {
		return a.node.reg.Snapshot().Counters["shard.routed_lines_total"] + b.node.reg.Snapshot().Counters["shard.routed_lines_total"]
	}

	newRouter := func() *Router {
		r, err := NewRouter(RouterConfig{ManifestPath: manifestPath, Attempts: 2, FailAfter: 100, Sleep: func(time.Duration) {}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	routerA, routerB := newRouter(), newRouter()
	if _, err := routerA.LiveRebalance(3, "b"); err != nil {
		t.Fatalf("LiveRebalance: %v", err)
	}
	if got := routerB.Manifest(); got.Epoch != 1 || got.Shards != 2 {
		t.Fatalf("router B heard of the cutover: epoch %d, %d shards", got.Epoch, got.Shards)
	}

	before := fleetRouted()
	rr := routerB.RouteBatch(batch)
	if got := int(fleetRouted() - before); got != rr.Acked {
		t.Fatalf("router B acked %d lines but the fleet appended %d", rr.Acked, got)
	}
	if rr.Acked != len(batch)-len(wantRejected) || !reflect.DeepEqual(rr.RejectedLines, wantRejected) {
		t.Fatalf("stale-routed batch: acked %d, rejected lines %v; want the %d moved lines %v rejected\n%+v",
			rr.Acked, rr.RejectedLines, len(wantRejected), wantRejected, rr.Partitions)
	}
	for _, row := range rr.Partitions {
		if row.Rejected > 0 && row.Error != "not assigned" {
			t.Fatalf("rejecting row %+v, want \"not assigned\"", row)
		}
	}
	if got := routerB.Manifest(); got.Epoch != 2 || got.Shards != 3 {
		t.Fatalf("router B after the rejection: epoch %d, %d shards; want reloaded to epoch 2, 3 shards", got.Epoch, got.Shards)
	}

	retry := make([]string, 0, len(rr.RejectedLines))
	for _, idx := range rr.RejectedLines {
		retry = append(retry, batch[idx])
	}
	retryRejected(t, routerB, retry)
	if got := int(fleetRouted() - before); got != len(batch) {
		t.Fatalf("the fleet appended %d lines for a batch of %d: every line lands exactly once", got, len(batch))
	}
}

// Failover is refused while a live cutover is journaled: the journal's
// freeze offsets and destination node are pinned to the current
// assignment, so reassigning a dead node's partitions mid-cutover would
// strand them. A journal that fails to load is not "no cutover" either:
// the router keeps the cutover view it has, counts the failure, and
// failover refuses naming the file.
func TestClusterFailoverRefusedDuringLiveCutover(t *testing.T) {
	for _, tc := range []struct {
		name, corruptWith, wantErr string
	}{
		{name: "journaled", wantErr: "refusing failover"},
		{name: "corrupt journal", corruptWith: "{not json", wantErr: shard.CutoverJournalName},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			manifestPath := filepath.Join(root, "cluster.json")
			ln := localListener(t)
			addr := ln.Addr().String()
			ln.Close() // nobody listens: the node is dead on arrival
			m := &Manifest{
				Epoch:  1,
				Shards: 2,
				Dir:    filepath.Join(root, "data"),
				Nodes: map[string]NodeSpec{
					"a":       {Addr: addr},
					"b":       {Addr: addr},
					"standby": {Addr: addr, Standby: true},
				},
				Assignments: []string{"a", "b"},
			}
			if err := Save(manifestPath, m); err != nil {
				t.Fatal(err)
			}
			jpath := cutoverJournalPath(manifestPath)
			journal := `{"version":4,"from":2,"to":3,"vnodes":0,"dest_node":"b","freeze":{"0":1,"1":1},"committed":[]}`
			if err := os.WriteFile(jpath, []byte(journal), 0o644); err != nil {
				t.Fatal(err)
			}

			reg := obs.NewRegistry()
			r, err := NewRouter(RouterConfig{
				ManifestPath: manifestPath,
				Metrics:      reg,
				FailAfter:    1,
				Failover:     true,
				Attempts:     1,
				Sleep:        func(time.Duration) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			view := r.rcut.Load()
			if view == nil {
				t.Fatal("router started next to a journal without a cutover view")
			}
			if tc.corruptWith != "" {
				if err := os.WriteFile(jpath, []byte(tc.corruptWith), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := r.Reload(); err != nil {
					t.Fatal(err)
				}
				if got := reg.Snapshot().Counters["cluster.cutover_journal_errors_total"]; got == 0 {
					t.Fatal("unreadable journal was not counted")
				}
			}

			var dead ProbeResult
			for _, pr := range r.ProbeOnce() {
				if pr.Node == "a" {
					dead = pr
				}
			}
			if dead.Alive {
				t.Fatalf("unreachable node probed alive: %+v", dead)
			}
			if dead.FailedOver {
				t.Fatal("failover proceeded over a journaled live cutover")
			}
			if !strings.Contains(dead.Err, "refusing failover") || !strings.Contains(dead.Err, tc.wantErr) {
				t.Fatalf("probe error %q does not carry the refusal (want %q)", dead.Err, tc.wantErr)
			}
			if got := r.Manifest().Epoch; got != 1 {
				t.Fatalf("epoch %d after refused failover, want 1", got)
			}
			if got := reg.Snapshot().Counters["cluster.failovers_total"]; got != 0 {
				t.Fatalf("failovers_total %d, want 0", got)
			}
			if r.rcut.Load() != view {
				t.Fatal("the cutover view changed while the journal was in place")
			}
		})
	}
}

// The router's admin surface: /admin/v1/status answers the role block
// (GET only, envelope on the wrong method), the unversioned alias is
// gone, and /admin/v1/rebalance validates its parameter through the
// envelope.
func TestClusterRouterAdminSurface(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	m := testManifest()
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{ManifestPath: path, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	fetch := func(method, p string) (int, http.Header, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+p, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, body
	}

	code, hdr, body := fetch(http.MethodGet, "/admin/v1/status")
	if code != http.StatusOK {
		t.Fatalf("GET /admin/v1/status: %d\n%s", code, body)
	}
	if got := hdr.Get(EpochHeader); got != "1" {
		t.Fatalf("status answered with epoch header %q, want 1", got)
	}
	var st RouterStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "router" || st.Epoch != 1 || st.Shards != m.Shards || st.Cutover != nil {
		t.Fatalf("router status: %+v", st)
	}
	names := make([]string, 0, len(st.Nodes))
	for n := range st.Nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, m.NodeNames()) {
		t.Fatalf("status nodes %v, want %v", names, m.NodeNames())
	}

	// The unversioned alias is gone with the rest of its family.
	if code, _, _ := fetch(http.MethodGet, "/admin/status"); code != http.StatusNotFound {
		t.Fatalf("GET /admin/status: %d, want 404", code)
	}

	// Wrong method and bad parameter both answer through the envelope.
	code, hdr, body = fetch(http.MethodPost, "/admin/v1/status")
	if code != http.StatusMethodNotAllowed || hdr.Get("Allow") != http.MethodGet {
		t.Fatalf("POST status: %d (Allow %q)", code, hdr.Get("Allow"))
	}
	assertEnvelope(t, body, "method_not_allowed")

	code, hdr, body = fetch(http.MethodGet, "/admin/v1/rebalance")
	if code != http.StatusMethodNotAllowed || hdr.Get("Allow") != http.MethodPost {
		t.Fatalf("GET rebalance: %d (Allow %q)", code, hdr.Get("Allow"))
	}
	assertEnvelope(t, body, "method_not_allowed")

	code, _, body = fetch(http.MethodPost, "/admin/v1/rebalance?to=x")
	if code != http.StatusBadRequest {
		t.Fatalf("POST rebalance?to=x: %d\n%s", code, body)
	}
	assertEnvelope(t, body, "bad_request")

	code, _, body = fetch(http.MethodPost, "/admin/v1/rebalance?to=9")
	if code != http.StatusConflict {
		t.Fatalf("POST rebalance?to=9 (a multi-step jump): %d\n%s", code, body)
	}
	assertEnvelope(t, body, "conflict")
}

// assertEnvelope decodes the shared error envelope and checks its code.
func assertEnvelope(t *testing.T, body []byte, wantCode string) {
	t.Helper()
	var env struct {
		Err struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("non-2xx body is not the envelope: %v\n%s", err, body)
	}
	if env.Err.Code != wantCode {
		t.Fatalf("envelope code %q, want %q\n%s", env.Err.Code, wantCode, body)
	}
	if env.Err.Message == "" {
		t.Fatalf("envelope without a message: %s", body)
	}
}

// A node's cutover endpoints answer through the envelope: an install body
// past maxSpliceBytes is refused as too large, naming the bound (a move's
// splice carries all its keys' tails, so the bound can be reached), a
// truncated one or a capture without a move is a bad request, and a
// step outside a cutover is a conflict. There is no stage or forget step
// any more.
func TestClusterNodeCutoverAdminSurface(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{
		Epoch:       1,
		Shards:      1,
		Dir:         filepath.Join(dir, "data"),
		Nodes:       map[string]NodeSpec{"a": {Addr: "127.0.0.1:1"}},
		Assignments: []string{"a"},
	}
	fn := startFleetNode(t, saveManifest(t, m), "a", localListener(t))
	defer fn.srv.Close()
	defer fn.node.Close()

	serve := func(method, path string, body io.Reader) (int, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		fn.node.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, body))
		return rec.Code, rec.Body.Bytes()
	}

	oversized := io.MultiReader(strings.NewReader(`{"move":"0>1","events":"`),
		strings.NewReader(strings.Repeat("a", maxSpliceBytes)), strings.NewReader(`"}`))
	code, body := serve(http.MethodPost, "/admin/v1/cutover/install", oversized)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("an over-bound splice: %d, want 413\n%s", code, body)
	}
	assertEnvelope(t, body, "too_large")
	if !strings.Contains(string(body), "33554432") {
		t.Fatalf("the refusal does not name the %d-byte bound: %s", maxSpliceBytes, body)
	}

	code, body = serve(http.MethodPost, "/admin/v1/cutover/install", strings.NewReader(`{"move":`))
	if code != http.StatusBadRequest {
		t.Fatalf("a truncated splice: %d, want 400\n%s", code, body)
	}
	assertEnvelope(t, body, "bad_request")

	for _, q := range []string{"", "?move=k1", "?move=0%3E"} {
		code, body = serve(http.MethodPost, "/admin/v1/cutover/capture"+q, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("capture%s: %d, want 400\n%s", q, code, body)
		}
		assertEnvelope(t, body, "bad_request")
	}

	for _, removed := range []string{"stage", "forget?move=0%3E1"} {
		code, body = serve(http.MethodPost, "/admin/v1/cutover/"+removed, strings.NewReader(`{"move":"0>1"}`))
		if code != http.StatusNotFound {
			t.Fatalf("the removed %s step: %d, want 404\n%s", removed, code, body)
		}
	}

	code, body = serve(http.MethodGet, "/admin/v1/cutover/moves", nil)
	if code != http.StatusConflict {
		t.Fatalf("pending moves outside a cutover: %d, want 409\n%s", code, body)
	}
	assertEnvelope(t, body, "conflict")

	code, body = serve(http.MethodPost, "/admin/v1/cutover/install", strings.NewReader(`{"version":4,"move":"0>1"}`))
	if code != http.StatusConflict {
		t.Fatalf("an install outside a cutover: %d, want 409\n%s", code, body)
	}
	assertEnvelope(t, body, "conflict")

	// Mid-cutover, a splice refused for what it holds is a 400, and the
	// destination's snapshot stays byte for byte as it was.
	code, body = serve(http.MethodPost, "/admin/v1/cutover/begin", strings.NewReader(`{"from":1,"to":2,"dest":true}`))
	if code != http.StatusOK {
		t.Fatalf("begin 1 -> 2: %d\n%s", code, body)
	}
	ring := shard.NewPartitioner(2)
	var moving, staying string
	for i := 0; moving == "" || staying == ""; i++ {
		if k := strconv.Itoa(7001 + i); ring.Partition(k) == 1 {
			moving = k
		} else {
			staying = k
		}
	}
	events := `"events":[{"id":0,"template":"a <*>","example":"a 1","count":1}]`
	code, body = serve(http.MethodPost, "/admin/v1/cutover/install",
		strings.NewReader(`{"version":4,"move":"0>1","tails":{"`+moving+`":{"ids":[0],"since_prev":1}},`+events+`}`))
	if code != http.StatusOK {
		t.Fatalf("a well-formed splice: %d, want 200\n%s", code, body)
	}
	destState := filepath.Join(shard.PartitionDir(m.Dir, 1), "shard-state.json")
	// A donor of an older build still ships its pattern verdicts beside
	// the tails: the install is accepted and the verdicts are ignored, so
	// the destination's snapshot holds none.
	code, body = serve(http.MethodPost, "/admin/v1/cutover/install",
		strings.NewReader(`{"version":4,"move":"0>1","tails":{"`+moving+`":{"ids":[0],"since_prev":1}},`+events+
			`,"patterns":[{"seq":[0,0,0,0,0,0,0,0,0,0],"score":0.99}]}`))
	if code != http.StatusOK {
		t.Fatalf("a splice carrying verdicts: %d, want 200\n%s", code, body)
	}
	before, err := os.ReadFile(destState)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Patterns []json.RawMessage `json:"patterns"`
	}
	if err := json.Unmarshal(before, &snap); err != nil || len(snap.Patterns) != 0 {
		t.Fatalf("the destination's snapshot holds %d verdicts after an install that carried one (%v)", len(snap.Patterns), err)
	}
	for name, splice := range map[string]string{
		"a format-3 splice":               `{"version":3,"move":"0>1"}`,
		"a tail of a key of no move":      `{"version":4,"move":"0>1","tails":{"` + staying + `":{"ids":[0],"since_prev":1}},` + events + `}`,
		"a tail id the events lack":       `{"version":4,"move":"0>1","tails":{"` + moving + `":{"ids":[0,1],"since_prev":2}},` + events + `}`,
		"a tail id with no events at all": `{"version":4,"move":"0>1","tails":{"` + moving + `":{"ids":[0],"since_prev":1}}}`,
	} {
		code, body = serve(http.MethodPost, "/admin/v1/cutover/install", strings.NewReader(splice))
		if code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400\n%s", name, code, body)
		}
		assertEnvelope(t, body, "bad_request")
		if after, err := os.ReadFile(destState); err != nil || string(after) != string(before) {
			t.Fatalf("%s changed the destination's snapshot", name)
		}
	}
}
