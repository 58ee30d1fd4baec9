package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/fault"
	"logsynergy/internal/pipeline"
)

// Chaos proofs for the isolation claims: a fault injected into one shard
// is invisible to the others — output stays bit-identical to the
// fault-free reference (transient faults), and a stalled shard sheds
// load for its own keys only (permanent faults).

func noSleep(time.Duration) {}

// jsonDecode decodes a response body into v.
func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestShardFaultIsolationEquivalence injects transient detect and embed
// faults into exactly one shard. Its resilience guards retry through
// them, so the fleet's output must remain bit-identical to the clean
// single-pipeline reference — and the retries must appear in the faulted
// shard's stats alone.
func TestShardFaultIsolationEquivalence(t *testing.T) {
	keys := eqKeys(12)
	lines := genEqLines(42, 3000, keys)
	ref := runReference(t, lines)

	const shards = 4
	faulted := NewPartitioner(shards).Partition(keys[0])
	freg := fault.New(11)
	freg.SetSleep(noSleep)
	freg.Enable(
		fault.Rule{Point: pipeline.PointDetect, Err: errors.New("inference backend hiccup"), Every: 2},
		fault.Rule{Point: pipeline.PointEmbed, Err: errors.New("encoder hiccup"), Every: 3},
	)

	h := openHarness(t, t.TempDir(), shards, func(cfg *Config) {
		cfg.Pipeline.Resilience = pipeline.ResilienceConfig{Sleep: noSleep}
		cfg.ShardFaults = func(i int) *fault.Registry {
			if i == faulted {
				return freg
			}
			return nil
		}
	})
	h.feed(t, lines)
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	requireEqual(t, "faulted shard", h.result(), ref)

	if n := freg.Injected(pipeline.PointDetect); n == 0 {
		t.Fatal("no detect faults fired; the test proved nothing")
	}
	if r := h.rt.ShardStats(faulted).Retries; r == 0 {
		t.Fatalf("faulted shard %d recorded no retries", faulted)
	}
	for i := 0; i < shards; i++ {
		if i == faulted {
			continue
		}
		if r := h.rt.ShardStats(i).Retries; r != 0 {
			t.Fatalf("healthy shard %d recorded %d retries; faults leaked across shards", i, r)
		}
	}
}

// stalledSetup builds a 2-shard runtime where one shard's consumer is
// permanently broken (every WAL read fails, so its worker dies) over a
// tiny reject-on-full backlog. It returns the harness, the stalled
// partition index, and one key per partition.
func stalledSetup(t *testing.T) (h *shardHarness, stalled int, keyOf map[int]string) {
	t.Helper()
	part := NewPartitioner(2)
	keyOf = map[int]string{}
	for i := 0; len(keyOf) < 2 && i < 10000; i++ {
		k := strconv.Itoa(9000 + i)
		if _, ok := keyOf[part.Partition(k)]; !ok {
			keyOf[part.Partition(k)] = k
		}
	}
	if len(keyOf) < 2 {
		t.Fatal("could not find keys covering both partitions")
	}
	stalled = 0 // keyOf[0] routes to it by construction

	freg := fault.New(7)
	freg.SetSleep(noSleep)
	freg.Enable(fault.Rule{Point: broker.PointRead, Err: errors.New("disk gone")})

	h = openHarness(t, t.TempDir(), 2, func(cfg *Config) {
		cfg.Broker = broker.Config{
			SegmentBytes:    256,
			MaxBacklogBytes: 2048,
			FullPolicy:      broker.FullReject,
			Fsync:           broker.FsyncNever,
		}
		cfg.Pipeline.Resilience = pipeline.ResilienceConfig{Sleep: noSleep}
		cfg.ShardFaults = func(i int) *fault.Registry {
			if i == stalled {
				return freg
			}
			return nil
		}
	})
	return h, stalled, keyOf
}

// fillStalled appends lines keyed to the stalled partition until its
// backlog rejects, returning how many were acked first.
func fillStalled(t *testing.T, h *shardHarness, key string, stalled int) int {
	t.Helper()
	for i := 0; i < 2000; i++ {
		part, err := appendOne(h.rt, fmt.Sprintf("%s filler payload record %d", key, i))
		if err != nil {
			if part != stalled {
				t.Fatalf("rejection came from partition %d, not the stalled %d", part, stalled)
			}
			if !errors.Is(err, broker.ErrBacklogFull) {
				t.Fatalf("stalled partition rejected with %v, want ErrBacklogFull", err)
			}
			return i
		}
	}
	t.Fatal("stalled partition never filled; backpressure is broken")
	return 0
}

// TestShardStalledPartitionBackpressure: the stalled shard's backlog
// fills and 429s (ErrBacklogFull) only lines keyed to it; the healthy
// shard keeps consuming, scoring and committing throughout.
func TestShardStalledPartitionBackpressure(t *testing.T) {
	h, stalled, keyOf := stalledSetup(t)
	healthy := 1 - stalled
	acked := fillStalled(t, h, keyOf[stalled], stalled)
	if acked == 0 {
		t.Fatal("stalled partition accepted nothing before filling")
	}

	// The healthy shard still ingests. Its tiny backlog can be transiently
	// full between commits (retention frees committed segments), so retry
	// briefly — that transient 429-then-accept is the per-partition
	// backpressure working as designed.
	const healthyLines = 60
	for i := 0; i < healthyLines; i++ {
		line := fmt.Sprintf("%s job %d queued ok", keyOf[healthy], i)
		var err error
		for try := 0; try < 200; try++ {
			if _, err = appendOne(h.rt, line); err == nil {
				break
			}
			if !errors.Is(err, broker.ErrBacklogFull) {
				t.Fatalf("healthy append failed with %v", err)
			}
			time.Sleep(time.Millisecond)
		}
		if err != nil {
			t.Fatalf("healthy partition never drained its backlog: %v", err)
		}
	}

	h.drain(t) // returns: the stalled worker is dead, the healthy one drains
	if got := h.rt.ShardStats(healthy).LinesCollected; got != healthyLines {
		t.Fatalf("healthy shard collected %d lines, want %d", got, healthyLines)
	}
	if got := h.rt.ShardStats(stalled).LinesCollected; got != 0 {
		t.Fatalf("stalled shard collected %d lines with a dead consumer", got)
	}
	h.mu.Lock()
	_, stalledScored := h.scores[keyOf[stalled]]
	healthyWindows := len(h.scores[keyOf[healthy]])
	h.mu.Unlock()
	if stalledScored {
		t.Fatal("stalled shard scored windows despite its dead consumer")
	}
	if healthyWindows == 0 {
		t.Fatal("healthy shard scored no windows")
	}
	if got := h.rt.Committed(healthy); got == 0 {
		t.Fatal("healthy shard committed nothing")
	}

	snap := h.rt.Snapshot()
	if snap.Counters["shard.rejected_lines_total"] == 0 {
		t.Fatal("rejected_lines_total counter did not move")
	}
	// Close surfaces the stalled worker's read error.
	if err := h.rt.Close(); err == nil {
		t.Fatal("Close returned nil despite the stalled shard's dead consumer")
	}
}

// TestShardIngestHandlerPartialBackpressure drives the HTTP contract: a
// batch spanning a full partition and a healthy one comes back 429 with
// a per-partition breakdown naming exactly what to retry; healthy-only
// batches still get 202 end to end.
func TestShardIngestHandlerPartialBackpressure(t *testing.T) {
	h, stalled, keyOf := stalledSetup(t)
	defer h.rt.Close()
	healthy := 1 - stalled
	srv := httptest.NewServer(h.rt.IngestHandler(0))
	defer srv.Close()

	post := func(body string) (*http.Response, IngestResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var ir IngestResponse
		if resp.Header.Get("Content-Type") == "application/json" {
			if err := jsonDecode(resp, &ir); err != nil {
				t.Fatalf("decoding response: %v", err)
			}
		}
		return resp, ir
	}

	// Healthy traffic is a 202 regardless of the other shard's health.
	resp, ir := post(keyOf[healthy] + " warmup a\n" + keyOf[healthy] + " warmup b\n")
	if resp.StatusCode != http.StatusAccepted || ir.Acked != 2 || ir.Rejected != 0 {
		t.Fatalf("healthy batch: status %d, %+v", resp.StatusCode, ir)
	}

	fillStalled(t, h, keyOf[stalled], stalled)

	// Mixed batch: the healthy share lands, the stalled share bounces.
	resp, ir = post(keyOf[healthy] + " mixed ok line\n" + keyOf[stalled] + " mixed doomed line\n")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("mixed batch status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("429 without Retry-After: %v", resp.Header)
	}
	if ir.Acked != 1 || ir.Rejected != 1 {
		t.Fatalf("mixed batch accounting: %+v", ir)
	}
	if !reflect.DeepEqual(ir.RejectedLines, []int{1}) {
		t.Fatalf("rejected_lines %v, want [1]: the request index of the stalled partition's line", ir.RejectedLines)
	}
	seen := map[int]PartitionResult{}
	for _, pr := range ir.Partitions {
		seen[pr.Partition] = pr
	}
	if pr := seen[stalled]; pr.Rejected != 1 || pr.Error != "backlog full" {
		t.Fatalf("stalled partition result %+v, want 1 rejected with 'backlog full'", pr)
	}
	if pr := seen[healthy]; pr.Acked != 1 || pr.Error != "" {
		t.Fatalf("healthy partition result %+v, want 1 acked", pr)
	}

	// Method and size guards match the broker's single-node contract.
	if resp, err := http.Get(srv.URL); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %v / %d, want 405", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	tiny := httptest.NewServer(h.rt.IngestHandler(16))
	defer tiny.Close()
	if resp, err := http.Post(tiny.URL, "text/plain", strings.NewReader(strings.Repeat("x", 64))); err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST: %v / %d, want 413", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// After intake closes, every routed partition refuses: 503.
	h.rt.CloseIntake()
	resp, _ = post(keyOf[healthy] + " after close\n")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close status %d, want 503", resp.StatusCode)
	}
}

// TestShardAppendBatchPartialAcceptance pins the router's batch
// semantics: one call, per-partition verdicts, healthy shares durable.
func TestShardAppendBatchPartialAcceptance(t *testing.T) {
	h, stalled, keyOf := stalledSetup(t)
	defer h.rt.Close()
	healthy := 1 - stalled
	fillStalled(t, h, keyOf[stalled], stalled)

	resp, err := h.rt.AppendBatch([]string{
		keyOf[healthy] + " batch line one",
		keyOf[stalled] + " batch line two",
		keyOf[healthy] + " batch line three",
	})
	if err == nil || !errors.Is(err, broker.ErrBacklogFull) {
		t.Fatalf("batch error %v, want wrapped ErrBacklogFull", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("partition %d", stalled)) {
		t.Fatalf("batch error %q does not name the stalled partition", err)
	}
	byPart := map[int]PartitionResult{}
	for _, r := range resp.Partitions {
		byPart[r.Partition] = r
	}
	if !reflect.DeepEqual(resp.RejectedLines, []int{1}) {
		t.Fatalf("rejected lines %v, want [1]: the stalled partition's one line", resp.RejectedLines)
	}
	if r := byPart[healthy]; r.Acked != 2 || r.Rejected != 0 {
		t.Fatalf("healthy share %+v, want 2 acked", r)
	}
	if r := byPart[stalled]; r.Acked != 0 || r.Rejected != 1 || r.Error != "backlog full" {
		t.Fatalf("stalled share %+v, want 1 rejected", r)
	}
}
