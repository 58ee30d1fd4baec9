package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/embed"
	"logsynergy/internal/fault"
	"logsynergy/internal/httpapi"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/shard"
)

// openAdminFleet builds a small serving fleet and exposes it over the
// real serve mux; the test may bend the shard config (fault registries,
// tiny backlogs) and pick the mux's batch bound.
func openAdminFleet(t *testing.T, shards int, maxBatchBytes int64, mutate func(*shard.Config)) (*shard.Runtime, *httptest.Server) {
	t.Helper()
	det := testDetector()
	cfg := shard.Config{
		Shards:   shards,
		Dir:      t.TempDir(),
		Detector: det,
		Interp:   lei.NewSimLLM(lei.Config{}),
		Embedder: embed.New(det.Table.Dim),
		Sink:     &pipeline.MemorySink{},
		Metrics:  obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := shard.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	srv := httptest.NewServer(newShardServeMux(rt, maxBatchBytes))
	t.Cleanup(srv.Close)
	return rt, srv
}

// fetch performs one request and returns status, headers and body.
func fetch(t *testing.T, method, url string, body io.Reader) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// decodeEnvelope asserts body carries the uniform error envelope with
// the wanted machine-readable code and returns its detail.
func decodeEnvelope(t *testing.T, body []byte, wantCode string) *httpapi.Detail {
	t.Helper()
	d := httpapi.DecodeDetail(body)
	if d == nil {
		t.Fatalf("response body carries no error envelope: %s", body)
	}
	if d.Code != wantCode {
		t.Fatalf("envelope code %q, want %q (message: %s)", d.Code, wantCode, d.Message)
	}
	if d.Message == "" {
		t.Fatalf("envelope code %q has an empty message", d.Code)
	}
	return d
}

// TestAdminUnversionedPathsGone: the admin surface is mounted under
// /admin/v1 only — the pre-versioning paths answer 404, and the
// versioned ones name their accepted method on a 405.
func TestAdminUnversionedPathsGone(t *testing.T) {
	_, srv := openAdminFleet(t, 2, 0, nil)
	for _, tc := range []struct{ path, wrong, allow string }{
		{"/status", http.MethodPost, http.MethodGet},
		{"/rebalance", http.MethodGet, http.MethodPost},
	} {
		if st, _, _ := fetch(t, tc.allow, srv.URL+"/admin"+tc.path, nil); st != http.StatusNotFound {
			t.Fatalf("%s /admin%s: %d, want 404", tc.allow, tc.path, st)
		}
		st, h, _ := fetch(t, tc.wrong, srv.URL+httpapi.Prefix+tc.path, nil)
		if st != http.StatusMethodNotAllowed || h.Get("Allow") != tc.allow {
			t.Fatalf("%s %s%s: %d with Allow %q, want 405 naming %s", tc.wrong, httpapi.Prefix, tc.path, st, h.Get("Allow"), tc.allow)
		}
	}
}

// TestAdminErrorEnvelope: every non-2xx answer on the serve surface —
// admin and ingest alike — carries the uniform JSON error envelope with
// a stable machine-readable code: 405, 400, 409, 413, 429 and 503.
func TestAdminErrorEnvelope(t *testing.T) {
	// Partition 0's consumer is wedged (reads fail, no backoff sleep)
	// over a tiny reject-on-full backlog, so lines keyed to it fill the
	// WAL and 429; the mux's 96-byte batch bound makes 413 reachable.
	freg := fault.New(7)
	freg.SetSleep(func(time.Duration) {})
	freg.Enable(fault.Rule{Point: broker.PointRead, Err: errors.New("disk gone")})
	rt, srv := openAdminFleet(t, 2, 96, func(cfg *shard.Config) {
		cfg.Broker = broker.Config{
			SegmentBytes:    256,
			MaxBacklogBytes: 2048,
			FullPolicy:      broker.FullReject,
			Fsync:           broker.FsyncNever,
		}
		cfg.Pipeline.Resilience = pipeline.ResilienceConfig{Sleep: func(time.Duration) {}}
		cfg.Subset = []int{0, 1} // every partition, but as a fleet node would name them
		cfg.ShardFaults = func(i int) *fault.Registry {
			if i == 0 {
				return freg
			}
			return nil
		}
	})

	// 405 — wrong method, envelope plus Allow header.
	st, h, b := fetch(t, http.MethodGet, srv.URL+"/ingest", nil)
	if st != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest status %d, want 405", st)
	}
	decodeEnvelope(t, b, httpapi.CodeMethodNotAllowed)
	if h.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /ingest Allow %q, want POST", h.Get("Allow"))
	}

	// 400 — malformed parameter.
	st, _, b = fetch(t, http.MethodPost, srv.URL+httpapi.Prefix+"/rebalance?to=x", nil)
	if st != http.StatusBadRequest {
		t.Fatalf("rebalance to=x status %d, want 400", st)
	}
	decodeEnvelope(t, b, httpapi.CodeBadRequest)

	// 409 — well-formed but refused by fleet state (a subset runtime
	// does not rebalance itself).
	st, _, b = fetch(t, http.MethodPost, srv.URL+httpapi.Prefix+"/rebalance?to=1", nil)
	if st != http.StatusConflict {
		t.Fatalf("subset-runtime rebalance status %d, want 409", st)
	}
	decodeEnvelope(t, b, httpapi.CodeConflict)

	// 413 — body over the 96-byte bound.
	big := strings.Repeat("x", 200)
	st, _, b = fetch(t, http.MethodPost, srv.URL+"/ingest", strings.NewReader(big))
	if st != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d, want 413", st)
	}
	decodeEnvelope(t, b, httpapi.CodeTooLarge)

	// 429 — fill the wedged partition's backlog through the wire. The
	// envelope is additive here: the legacy IngestResponse fields stay
	// populated alongside the error detail.
	part := shard.NewPartitioner(2)
	key := ""
	for i := 0; i < 10000 && key == ""; i++ {
		if k := strconv.Itoa(9000 + i); part.Partition(k) == 0 {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no key routes to partition 0")
	}
	got429 := false
	for i := 0; i < 2000 && !got429; i++ {
		line := fmt.Sprintf("%s filler payload record %d", key, i)
		st, h, b = fetch(t, http.MethodPost, srv.URL+"/ingest", strings.NewReader(line))
		switch st {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			got429 = true
			d := decodeEnvelope(t, b, httpapi.CodeBackpressure)
			if d.RetryAfterS <= 0 {
				t.Fatalf("429 envelope retry_after_s %d, want positive", d.RetryAfterS)
			}
			if h.Get("Retry-After") != strconv.Itoa(d.RetryAfterS) {
				t.Fatalf("Retry-After header %q does not mirror retry_after_s %d", h.Get("Retry-After"), d.RetryAfterS)
			}
			var legacy shard.IngestResponse
			if err := json.Unmarshal(b, &legacy); err != nil {
				t.Fatalf("429 body no longer decodes as IngestResponse: %v", err)
			}
			if legacy.Rejected != 1 || len(legacy.Partitions) == 0 {
				t.Fatalf("429 legacy fields rejected=%d partitions=%d, want 1 and >0", legacy.Rejected, len(legacy.Partitions))
			}
			if !strings.Contains(legacy.Partitions[0].Error, "backlog") {
				t.Fatalf("429 partition error %q, want a backlog rejection", legacy.Partitions[0].Error)
			}
		default:
			t.Fatalf("filling wedged partition: status %d body %s", st, b)
		}
	}
	if !got429 {
		t.Fatal("wedged partition never answered 429; backpressure is broken")
	}

	// 503 — intake closed: every routed partition refuses.
	rt.Kill()
	st, _, b = fetch(t, http.MethodPost, srv.URL+"/ingest", strings.NewReader(key+" after shutdown"))
	if st != http.StatusServiceUnavailable {
		t.Fatalf("post-kill ingest status %d, want 503", st)
	}
	decodeEnvelope(t, b, httpapi.CodeClosed)
}
