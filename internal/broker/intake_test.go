package broker_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/embed"
	"logsynergy/internal/httpapi"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/repr"
	"logsynergy/internal/shard"
	"logsynergy/internal/tensor"
)

// The HTTP intake contract the WAL has had since it got one — 202 means
// the lines are in the log, an oversized batch appends nothing, a full
// backlog is 429 with Retry-After, a closed intake 503 — pinned against
// the one handler that fronts a broker now: shard.Runtime.IngestHandler
// over a single partition, which is what `serve -broker-dir` opens by
// default. The cases stay beside the WAL because the WAL is what they
// read back; an external test package may import the runtime without a
// cycle.

// openIntake opens a one-shard runtime over a fresh root and returns it
// with its /ingest handler, its root and its registry.
func openIntake(t *testing.T, maxBatchBytes int64, mutate func(*broker.Config)) (*shard.Runtime, http.Handler, string, *obs.Registry) {
	t.Helper()
	ccfg := core.DefaultConfig()
	det := core.NewDetector(core.NewModel(ccfg, 2),
		&repr.EventTable{System: "SystemB", Dim: ccfg.EmbedDim, Vectors: tensor.New(0, ccfg.EmbedDim)})
	bcfg := broker.Config{Fsync: broker.FsyncNever}
	if mutate != nil {
		mutate(&bcfg)
	}
	dir, reg := t.TempDir(), obs.NewRegistry()
	rt, err := shard.Open(shard.Config{
		Dir:      dir,
		Broker:   bcfg,
		Detector: det,
		Interp:   lei.NewSimLLM(lei.Config{}),
		Embedder: embed.New(ccfg.EmbedDim),
		Sink:     &pipeline.MemorySink{},
		Metrics:  reg,
	})
	if err != nil {
		t.Fatalf("shard.Open: %v", err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt, rt.IngestHandler(maxBatchBytes), dir, reg
}

func postBatch(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, shard.IngestResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp shard.IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("status %d with an undecodable body %q: %v", w.Code, w.Body, err)
	}
	return w, resp
}

func TestIngestHappyPath(t *testing.T) {
	rt, h, dir, reg := openIntake(t, 0, nil)
	w, resp := postBatch(t, h, "k alpha\nk beta\r\nk gamma\n")
	if w.Code != http.StatusAccepted {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	want := shard.IngestResponse{Acked: 3, Partitions: []shard.PartitionResult{{Partition: 0, Acked: 3}}}
	if !reflect.DeepEqual(resp, want) {
		t.Fatalf("response %+v, want %+v", resp, want)
	}
	snap := reg.Snapshot()
	if snap.Counters["shard.ingest_requests_total"] != 1 || snap.Counters["shard.routed_lines_total"] != 3 {
		t.Fatalf("intake counters: %v", snap.Counters)
	}

	// 202 means "in the log": read partition 0's WAL back, byte for byte.
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := broker.Open(broker.Config{Dir: shard.PartitionDir(dir, 0), Fsync: broker.FsyncNever, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := b.Consumer("readback")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b.CloseIntake()
	var got []string
	for line, ok := c.Next(); ok; line, ok = c.Next() {
		got = append(got, line)
	}
	if !reflect.DeepEqual(got, []string{"k alpha", "k beta", "k gamma"}) {
		t.Fatalf("records %q", got)
	}
}

func TestIngestEmptyBatch(t *testing.T) {
	_, h, _, _ := openIntake(t, 0, nil)
	w, resp := postBatch(t, h, "\n\n\r\n")
	if w.Code != http.StatusAccepted {
		t.Fatalf("status %d", w.Code)
	}
	if resp.Acked != 0 || resp.Rejected != 0 || len(resp.Partitions) != 0 {
		t.Fatalf("empty batch answered %+v", resp)
	}
}

func TestIngestMethodNotAllowed(t *testing.T) {
	_, h, _, _ := openIntake(t, 0, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/ingest", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", w.Code)
	}
	if w.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("Allow header %q", w.Header().Get("Allow"))
	}
}

func TestIngestOversizedBatch(t *testing.T) {
	rt, h, _, reg := openIntake(t, 32, nil)
	w, _ := postBatch(t, h, strings.Repeat("a", 64))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", w.Code)
	}
	if reg.Snapshot().Counters["shard.ingest_oversized_total"] != 1 {
		t.Fatal("oversized counter missed")
	}
	if next := rt.Health()[0].NextOffset; next != 1 {
		t.Fatalf("oversized batch was appended (next offset %d)", next)
	}

	// Same limit enforced without Content-Length (chunked bodies) via
	// MaxBytesReader.
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(strings.Repeat("b", 64)))
	req.ContentLength = -1
	w2 := httptest.NewRecorder()
	h.ServeHTTP(w2, req)
	if w2.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked status %d, want 413", w2.Code)
	}
}

func TestIngestBackpressure429(t *testing.T) {
	_, h, _, reg := openIntake(t, 0, func(c *broker.Config) {
		c.MaxBacklogBytes = 48
		c.FullPolicy = broker.FullReject
	})
	if w, _ := postBatch(t, h, "k "+strings.Repeat("a", 28)+"\n"); w.Code != http.StatusAccepted {
		t.Fatalf("first batch status %d", w.Code)
	}
	w, resp := postBatch(t, h, "k "+strings.Repeat("b", 28)+"\n")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp.Rejected != 1 || len(resp.Partitions) != 1 || resp.Partitions[0].Error != "backlog full" {
		t.Fatalf("429 body %+v, want one line rejected by partition 0's full backlog", resp)
	}
	if reg.Snapshot().Counters["shard.rejected_lines_total"] != 1 {
		t.Fatal("rejected counter missed")
	}
}

func TestIngestAfterShutdown503(t *testing.T) {
	rt, h, _, _ := openIntake(t, 0, nil)
	rt.CloseIntake()
	w, _ := postBatch(t, h, "k too late\n")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if d := httpapi.DecodeDetail(w.Body.Bytes()); d == nil || d.Code != httpapi.CodeClosed {
		t.Fatalf("503 envelope %+v, want code %s", d, httpapi.CodeClosed)
	}
}
