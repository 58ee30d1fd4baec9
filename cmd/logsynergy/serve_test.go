package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/httpapi"
	"logsynergy/internal/obs"
	"logsynergy/internal/repr"
	"logsynergy/internal/shard"
	"logsynergy/internal/tensor"
)

// TestObsMuxEndpoints: serve's one mux carries the observability surface —
// the runtime's snapshot on /metrics, expvar JSON on /debug/vars and the
// pprof index.
func TestObsMuxEndpoints(t *testing.T) {
	_, srv := openAdminFleet(t, 1, 0, nil)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "gauge shard.partitions 1") {
		t.Fatalf("/metrics code=%d body=%q", code, body)
	}

	code, body = get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars code=%d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}

	code, body = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ code=%d", code)
	}
}

func TestRuleListFlag(t *testing.T) {
	var l ruleList
	if err := l.Set("pipeline.sink"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("pipeline.interpret:every=3,limit=10"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("no-such-syntax:every=x"); err == nil {
		t.Fatal("bad rule spec must be rejected")
	}
	if len(l.rules) != 2 || l.rules[1].Every != 3 || l.rules[1].Limit != 10 {
		t.Fatalf("parsed rules %+v", l.rules)
	}
	if got := l.String(); got != "pipeline.sink;pipeline.interpret:every=3,limit=10" {
		t.Fatalf("String() = %q", got)
	}
}

// testDetector is an untrained seeded model over an empty event table —
// scores are deterministic functions of the traffic, which is all the
// serve tests need.
func testDetector() *core.Detector {
	ccfg := core.DefaultConfig()
	return core.NewDetector(core.NewModel(ccfg, 2),
		&repr.EventTable{System: "SystemX", Dim: ccfg.EmbedDim, Vectors: tensor.New(0, ccfg.EmbedDim)})
}

// openFlagServe opens the runtime `serve args...` would: the flags are
// parsed, validated and turned into the one shard.Config. mutate may hang
// test observers (OnWindow) on it.
func openFlagServe(t *testing.T, mutate func(*shard.Config), args ...string) (*serveFlags, *shard.Runtime) {
	t.Helper()
	f := parseServeFlags(append(args, "-quiet"))
	if err := f.validate(); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.shardConfig(testDetector(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := shard.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return f, rt
}

// keyedLines renders n lines over eight integer stream ids. Every
// parameter (the id included) is maskable and the four bodies differ in
// token count, so each body is one immutable template whatever order or
// partition it is first seen in — per-key scores may then be compared
// bit for bit across layouts.
func keyedLines(start, n int) []string {
	bodies := []string{
		"%d gc freed %d",
		"%d replica sync offset %d ok",
		"%d job %d queued on partition 3",
		"%d query ok rows %d in 12 ms",
	}
	lines := make([]string, n)
	for i := range lines {
		j := start + i
		lines[i] = fmt.Sprintf(bodies[(j/8+j%3)%len(bodies)], 7001+j%8, 100000+j*37)
	}
	return lines
}

// postLines POSTs lines to url's /ingest in batches and requires a 202
// for each.
func postLines(t *testing.T, url string, lines []string) {
	t.Helper()
	for len(lines) > 0 {
		n := min(64, len(lines))
		resp, err := http.Post(url+"/ingest", "text/plain", strings.NewReader(strings.Join(lines[:n], "\n")))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
		}
		lines = lines[n:]
	}
}

// servedShards reads the partition count off GET /admin/v1/status.
func servedShards(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + httpapi.Prefix + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serveStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Shards
}

// TestServeFlagValidation: serve without a WAL, and the combinations the
// three-way fork used to reinterpret silently, are refused with a
// message; the flag count is down to 25; -shards still defaults to 1.
func TestServeFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the refusal; "" = accepted
	}{
		{nil, "logsynergy detect -log F"},
		{[]string{"-log", "x.log"}, "logsynergy detect -log F"},
		{[]string{"-broker-dir", "d"}, ""},
		{[]string{"-broker-dir", "d", "-shards", "4", "-log", "seed.log"}, ""},
		{[]string{"-cluster", "c.json", "-node", "a"}, ""},
		{[]string{"-cluster", "c.json", "-node", "a", "-broker-dir", "d"}, ""},
		{[]string{"-broker-dir", "d", "-shards", "0"}, "-shards 0"},
		{[]string{"-broker-dir", "d", "-shards", "-2"}, "-shards -2"},
		{[]string{"-shards", "0"}, "-shards 0"},
		{[]string{"-shards", "2"}, "requires -broker-dir"},
		{[]string{"-cluster", "c.json", "-node", "a", "-shards", "2"}, "manifest owns"},
		{[]string{"-cluster", "c.json", "-node", "a", "-shards", "1"}, "manifest owns"},
		{[]string{"-cluster", "c.json"}, "requires -node"},
		{[]string{"-cluster", "c.json", "-node", "a", "-log", "seed.log"}, "front router"},
	} {
		err := parseServeFlags(tc.args).validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("serve %v refused: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("serve %v: error %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}

	f := parseServeFlags(nil)
	if *f.shards != 1 {
		t.Errorf("-shards defaults to %d, want 1", *f.shards)
	}
	count := 0
	f.fs.VisitAll(func(*flag.Flag) { count++ })
	if count > 25 {
		t.Errorf("serve has %d flags; one serving mode needs no more than 25", count)
	}
}

// TestServeLoopDrainsAndCommits runs the one serve loop the way `serve
// -broker-dir D` does — default flags, so one partition under D/p0 —
// feeds it through -log seeding and POST /ingest, cancels it, and holds
// the shutdown to its contract: every partition committed to its WAL
// tail, and a reopen finds nothing to re-detect.
func TestServeLoopDrainsAndCommits(t *testing.T) {
	dir := t.TempDir()
	f, rt := openFlagServe(t, nil, "-broker-dir", dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	lines := keyedLines(0, 400)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- serveLoop(ctx, ln, rt, newShardServeMux(rt, *f.maxBatchBytes), rt.Close, lines[:100], 0)
	}()

	if got := servedShards(t, url); got != 1 {
		t.Fatalf("status reports %d shards for a default serve, want 1", got)
	}
	if _, err := os.Stat(shard.PartitionDir(dir, 0)); err != nil {
		t.Fatalf("default serve did not lay out %s: %v", shard.PartitionDir(dir, 0), err)
	}
	postLines(t, url, lines[100:])
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve loop: %v", err)
	}

	if got := rt.Stats().LinesCollected; got != len(lines) {
		t.Fatalf("drained %d lines before exiting, want all %d (seeded and posted)", got, len(lines))
	}
	for _, h := range rt.Health() {
		if h.Lag != 0 || h.Committed != h.NextOffset-1 || h.Committed == 0 {
			t.Fatalf("partition %d exited committed at %d with its WAL tail at %d", h.Partition, h.Committed, h.NextOffset-1)
		}
	}
	if resp, err := http.Get(url + "/metrics"); err == nil {
		resp.Body.Close()
		t.Fatal("the listener outlived the serve loop")
	}

	_, rt2 := openFlagServe(t, nil, "-broker-dir", dir)
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := rt2.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if got := rt2.Stats().LinesCollected; got != 0 {
		t.Fatalf("reopen re-detected %d committed lines", got)
	}
}

// TestServeMuxIngest exercises the serve wiring of the intake on the
// runtime a default `serve -broker-dir` opens — one shard: the same mux
// that serves /metrics accepts durable batches on /ingest, bounds them
// (413), and surfaces the partition's backpressure (429).
func TestServeMuxIngest(t *testing.T) {
	rt, srv := openAdminFleet(t, 1, 128, func(cfg *shard.Config) {
		cfg.Broker = broker.Config{Fsync: broker.FsyncNever, MaxBacklogBytes: 256, FullPolicy: broker.FullReject}
	})

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/ingest", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	nextOffset := func() uint64 { return rt.Health()[0].NextOffset }

	// Happy path: 202 with the acked count, all of it on partition 0.
	resp := post("k one\nk two\nk three\n")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	var ir shard.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ir.Acked != 3 || ir.Rejected != 0 || len(ir.Partitions) != 1 || ir.Partitions[0].Partition != 0 {
		t.Fatalf("ingest response %+v", ir)
	}
	if got := nextOffset(); got != 4 {
		t.Fatalf("NextOffset %d after ingest", got)
	}

	// Oversized batch: 413, nothing appended.
	resp = post(strings.Repeat("x", 300))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status %d, want 413", resp.StatusCode)
	}
	if got := nextOffset(); got != 4 {
		t.Fatalf("oversized batch appended (NextOffset %d)", got)
	}

	// Fill the backlog past its bound: reject policy answers 429.
	for {
		resp = post("k " + strings.Repeat("y", 100) + "\n")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			break
		}
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressure status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The obs surface sees the intake and the partition's broker through
	// the same mux, fleet-wide and under the shard0. prefix.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"shard.ingest_requests_total", "counter broker.rejected_appends_total", "shard0.broker.rejected_appends_total"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

// TestServeMuxWithoutBroker: without a WAL there is no serve mux at all —
// runServe refuses before it loads a model or opens a listener, and names
// `detect` for an in-memory replay.
func TestServeMuxWithoutBroker(t *testing.T) {
	err := runServe([]string{"-model", filepath.Join(t.TempDir(), "missing.json"), "-log", "x.log"})
	if err == nil || !strings.Contains(err.Error(), "logsynergy detect -log F") {
		t.Fatalf("serve without -broker-dir or -cluster: error %v, want one naming `logsynergy detect -log F`", err)
	}
}

// TestShardServeMux exercises the sharded serve wiring: /ingest routes
// lines to shards by stream key and /metrics serves the fleet-merged
// snapshot with per-shard prefixed series.
func TestShardServeMux(t *testing.T) {
	rt, srv := openAdminFleet(t, 2, 0, nil)

	resp, err := http.Post(srv.URL+"/ingest", "text/plain",
		strings.NewReader("sysA one fine line\nsysB another fine line\n"))
	if err != nil {
		t.Fatal(err)
	}
	var ir shard.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ir.Acked != 2 || ir.Rejected != 0 {
		t.Fatalf("sharded ingest: status %d, %+v", resp.StatusCode, ir)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"shard.routed_lines_total 2",
		"gauge shard.partitions 2",
		"pipeline.lines_collected 2",
		"shard.ingest_requests_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}
