package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/cluster"
	"logsynergy/internal/embed"
	"logsynergy/internal/fault"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/shard"
)

// stalledShards bends a 2-shard config so partition 0 never drains: its
// consumer fails every WAL read, over a tiny reject-on-full backlog.
func stalledShards(cfg *shard.Config) {
	noSleep := func(time.Duration) {}
	freg := fault.New(7)
	freg.SetSleep(noSleep)
	freg.Enable(fault.Rule{Point: broker.PointRead, Err: errors.New("disk gone")})
	cfg.Broker = broker.Config{SegmentBytes: 256, MaxBacklogBytes: 2048, FullPolicy: broker.FullReject, Fsync: broker.FsyncNever}
	cfg.Pipeline.Resilience = pipeline.ResilienceConfig{Sleep: noSleep}
	cfg.ShardFaults = func(i int) *fault.Registry {
		if i == 0 {
			return freg
		}
		return nil
	}
}

// openStalledNode starts a fleet node owning both partitions of the stalled
// layout behind a real listener, and returns it with its manifest's path.
func openStalledNode(t *testing.T) (*cluster.Node, string) {
	t.Helper()
	srv := httptest.NewUnstartedServer(nil)
	m := &cluster.Manifest{
		Epoch:       1,
		Shards:      2,
		Nodes:       map[string]cluster.NodeSpec{"a": {Addr: srv.Listener.Addr().String()}},
		Assignments: []string{"a", "a"},
	}
	det := testDetector()
	cfg := shard.Config{
		Dir:      t.TempDir(),
		Detector: det,
		Interp:   lei.NewSimLLM(lei.Config{}),
		Embedder: embed.New(det.Table.Dim),
		Sink:     &pipeline.MemorySink{},
		Metrics:  obs.NewRegistry(),
	}
	stalledShards(&cfg)
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := cluster.Save(path, m); err != nil {
		t.Fatal(err)
	}
	n, err := cluster.StartNode(cluster.NodeConfig{ManifestPath: path, Name: "a", Runtime: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	srv.Config.Handler = n.Handler()
	srv.Start()
	t.Cleanup(srv.Close)
	return n, path
}

// One intake contract, three tiers: serve's mux, a fleet node and the front
// router answer the same cases with the same statuses and the same body,
// shard.IngestResponse — 202 with everything acked, 413 for a line over the
// record bound, 429 naming the rejected lines by request index, 503 once
// intake is closed.
func TestIntakeContractAcrossTiers(t *testing.T) {
	ring := shard.NewPartitioner(2)
	keyOf := map[int]string{}
	for i := 0; len(keyOf) < 2; i++ {
		k := strconv.Itoa(9000 + i)
		if _, ok := keyOf[ring.Partition(k)]; !ok {
			keyOf[ring.Partition(k)] = k
		}
	}
	stalled, healthy := keyOf[0], keyOf[1]

	for _, tier := range []struct {
		name string
		open func(t *testing.T) (url string, closeIntake func())
	}{
		{"serve", func(t *testing.T) (string, func()) {
			rt, srv := openAdminFleet(t, 2, 0, stalledShards)
			return srv.URL, rt.CloseIntake
		}},
		{"node", func(t *testing.T) (string, func()) {
			n, _ := openStalledNode(t)
			return "http://" + n.Manifest().Nodes["a"].Addr, n.CloseIntake
		}},
		{"router", func(t *testing.T) (string, func()) {
			n, path := openStalledNode(t)
			r, err := cluster.NewRouter(cluster.RouterConfig{ManifestPath: path, Sleep: func(time.Duration) {}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			srv := httptest.NewServer(r.Handler())
			t.Cleanup(srv.Close)
			return srv.URL, n.CloseIntake
		}},
	} {
		t.Run(tier.name, func(t *testing.T) {
			url, closeIntake := tier.open(t)
			post := func(lines ...string) (int, http.Header, shard.IngestResponse, []byte) {
				t.Helper()
				status, hdr, body := fetch(t, http.MethodPost, url+"/ingest", strings.NewReader(strings.Join(lines, "\n")))
				var ir shard.IngestResponse
				if err := json.Unmarshal(body, &ir); err != nil {
					t.Fatalf("the %d answer is not an IngestResponse: %v\n%s", status, err, body)
				}
				return status, hdr, ir, body
			}

			status, _, ir, _ := post(healthy+" gc freed 1", stalled+" gc freed 2")
			if status != http.StatusAccepted || ir.Acked != 2 || ir.Rejected != 0 || len(ir.RejectedLines) != 0 || ir.Err != nil {
				t.Fatalf("all acked: status %d, %+v", status, ir)
			}
			status, _, ir, body := post()
			if status != http.StatusAccepted || ir.Acked != 0 || ir.Rejected != 0 || !strings.Contains(string(body), `"acked":0`) {
				t.Fatalf("empty batch: status %d, %s", status, body)
			}

			// A line over the WAL's record bound could never be appended, so
			// a 429 would have the collector retry it, and its partition's
			// other lines, forever: the batch is refused whole, naming it.
			long := healthy + " " + strings.Repeat("x", broker.MaxRecordBytes+2-len(healthy))
			status, _, ir, body = post(healthy+" hello world", long, healthy+" bye now")
			if status != http.StatusRequestEntityTooLarge || ir.Acked != 0 || len(ir.RejectedLines) != 0 {
				t.Fatalf("a line of %d bytes: status %d, %+v", len(long), status, ir)
			}
			if d := decodeEnvelope(t, body, "too_large"); !strings.Contains(d.Message, "line 1 is 1048579 bytes") {
				t.Fatalf("the refusal does not name the line: %q", d.Message)
			}

			for i := 0; ; i++ {
				if status, _, _, _ := post(stalled + " filler payload record " + strconv.Itoa(i)); status == http.StatusTooManyRequests {
					break
				} else if status != http.StatusAccepted || i > 2000 {
					t.Fatalf("filling partition 0: status %d after %d lines", status, i)
				}
			}
			status, hdr, ir, body := post(healthy+" a", stalled+" b", healthy+" c", stalled+" d", stalled+" e")
			if status != http.StatusTooManyRequests || ir.Acked != 2 || ir.Rejected != 3 {
				t.Fatalf("one partition full: status %d, %+v", status, ir)
			}
			if !reflect.DeepEqual(ir.RejectedLines, []int{1, 3, 4}) {
				t.Fatalf("rejected_lines %v, want [1 3 4]: the full partition's request indices", ir.RejectedLines)
			}
			if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
				t.Fatalf("Retry-After %q, want at least 1", hdr.Get("Retry-After"))
			}
			decodeEnvelope(t, body, "backpressure")
			for _, row := range ir.Partitions {
				if (row.Partition == 0) != (row.Error == "backlog full") {
					t.Fatalf("row %+v: only partition 0 is full", row)
				}
			}

			closeIntake()
			status, _, ir, body = post(healthy+" after close", stalled+" after close")
			if status != http.StatusServiceUnavailable || ir.Acked != 0 || !reflect.DeepEqual(ir.RejectedLines, []int{0, 1}) {
				t.Fatalf("intake closed: status %d, %+v", status, ir)
			}
			decodeEnvelope(t, body, "intake_closed")
		})
	}
}
