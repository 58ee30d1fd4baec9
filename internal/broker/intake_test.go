package broker

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postBatch(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestIngestHappyPath(t *testing.T) {
	b, reg := openTest(t, t.TempDir(), nil)
	defer b.Close()
	h := b.IngestHandler(0)

	w := postBatch(t, h, "alpha\nbeta\r\ngamma\n")
	if w.Code != http.StatusAccepted {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	var resp IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Acked != 3 || resp.FirstOffset != 1 || resp.LastOffset != 3 {
		t.Fatalf("response %+v", resp)
	}
	got := drainAll(t, b, "g")
	want := []string{"alpha", "beta", "gamma"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("records %v", got)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["broker.ingest_requests_total"] != 1 || snap.Counters["broker.ingest_lines_total"] != 3 {
		t.Fatalf("intake counters: %v", snap.Counters)
	}
}

func TestIngestEmptyBatch(t *testing.T) {
	b, _ := openTest(t, t.TempDir(), nil)
	defer b.Close()
	w := postBatch(t, b.IngestHandler(0), "\n\n\r\n")
	if w.Code != http.StatusAccepted {
		t.Fatalf("status %d", w.Code)
	}
	var resp IngestResponse
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Acked != 0 {
		t.Fatalf("acked %d for empty batch", resp.Acked)
	}
}

func TestIngestMethodNotAllowed(t *testing.T) {
	b, _ := openTest(t, t.TempDir(), nil)
	defer b.Close()
	req := httptest.NewRequest(http.MethodGet, "/ingest", nil)
	w := httptest.NewRecorder()
	b.IngestHandler(0).ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", w.Code)
	}
	if w.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("Allow header %q", w.Header().Get("Allow"))
	}
}

func TestIngestOversizedBatch(t *testing.T) {
	b, reg := openTest(t, t.TempDir(), nil)
	defer b.Close()
	h := b.IngestHandler(32)
	w := postBatch(t, h, strings.Repeat("a", 64))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", w.Code)
	}
	if reg.Snapshot().Counters["broker.ingest_oversized_total"] != 1 {
		t.Fatal("oversized counter missed")
	}
	if b.NextOffset() != 1 {
		t.Fatal("oversized batch was appended")
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
	b, reg := openTest(t, t.TempDir(), func(c *Config) {
		c.MaxBacklogBytes = 48
		c.FullPolicy = FullReject
	})
	defer b.Close()
	h := b.IngestHandler(0)
	if w := postBatch(t, h, strings.Repeat("a", 30)+"\n"); w.Code != http.StatusAccepted {
		t.Fatalf("first batch status %d", w.Code)
	}
	w := postBatch(t, h, strings.Repeat("b", 30)+"\n")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if reg.Snapshot().Counters["broker.ingest_rejected_total"] != 1 {
		t.Fatal("rejected counter missed")
	}
}

func TestIngestAfterShutdown503(t *testing.T) {
	b, _ := openTest(t, t.TempDir(), nil)
	defer b.Close()
	h := b.IngestHandler(0)
	b.CloseIntake()
	w := postBatch(t, h, "too late\n")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
}
