package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"logsynergy/internal/obs"
)

// serve runs h against one request and returns the recorded answer.
func serve(h http.Handler, method, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

// The envelope is {"error":{code,message,retry_after_s}} with the retry
// hint mirrored into Retry-After; DecodeDetail reads it back.
func TestErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	Error(rec, http.StatusTooManyRequests, Detail{Code: CodeBackpressure, Message: "backlog full", RetryAfterS: 7})

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type %q", got)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want the envelope's retry_after_s mirrored", got)
	}
	var raw map[string]map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, rec.Body)
	}
	e := raw["error"]
	if len(raw) != 1 || e["code"] != CodeBackpressure || e["message"] != "backlog full" || e["retry_after_s"] != float64(7) {
		t.Fatalf("envelope %s", rec.Body)
	}
	if d := DecodeDetail(rec.Body.Bytes()); d == nil || d.Code != CodeBackpressure || d.RetryAfterS != 7 {
		t.Fatalf("DecodeDetail = %+v", d)
	}

	// No hint: no header, and the field is omitted.
	rec = httptest.NewRecorder()
	Error(rec, http.StatusConflict, Detail{Code: CodeConflict, Message: "stale epoch"})
	if _, ok := rec.Header()["Retry-After"]; ok || strings.Contains(rec.Body.String(), "retry_after_s") {
		t.Fatalf("hint-less error carries a retry hint: %v %s", rec.Header(), rec.Body)
	}
	if DecodeDetail([]byte("plain prose")) != nil || DecodeDetail([]byte(`{"acked":3}`)) != nil {
		t.Fatal("DecodeDetail invented an envelope")
	}
}

func TestMethodNotAllowedSetsAllow(t *testing.T) {
	rec := httptest.NewRecorder()
	MethodNotAllowed(rec, http.MethodPost, "ingest accepts POST only")
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("status %d, Allow %q", rec.Code, rec.Header().Get("Allow"))
	}
	if d := DecodeDetail(rec.Body.Bytes()); d == nil || d.Code != CodeMethodNotAllowed || d.Message == "" {
		t.Fatalf("405 body %s", rec.Body)
	}
}

// ErrorWithBody keeps the caller's own body fields next to the embedded
// detail, with headers set exactly as Error would.
func TestErrorWithBodyKeepsCallerFields(t *testing.T) {
	d := Detail{Code: CodeBackpressure, Message: "1 of 3 lines rejected", RetryAfterS: 2}
	body := struct {
		Acked    int     `json:"acked"`
		Rejected int     `json:"rejected"`
		Err      *Detail `json:"error"`
	}{Acked: 2, Rejected: 1, Err: &d}
	rec := httptest.NewRecorder()
	ErrorWithBody(rec, http.StatusTooManyRequests, d, body)

	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "2" {
		t.Fatalf("status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	var got struct {
		Acked, Rejected int
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Acked != 2 || got.Rejected != 1 {
		t.Fatalf("caller fields lost (%v): %s", err, rec.Body)
	}
	if dd := DecodeDetail(rec.Body.Bytes()); dd == nil || *dd != d {
		t.Fatalf("embedded detail %+v, want %+v", dd, d)
	}
}

func TestMuxMountsObservability(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("httpapi.test_total").Add(3)
	mux := Mux(MuxOptions{Snapshot: reg.Snapshot})

	for path, want := range map[string]string{
		"/metrics":      "httpapi.test_total 3",
		"/metrics.json": `"httpapi.test_total":3`,
		"/debug/vars":   `"logsynergy"`,
		"/debug/pprof/": "goroutine",
	} {
		rec := serve(mux, http.MethodGet, path)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("GET %s: %d, body lacks %q:\n%.300s", path, rec.Code, want, rec.Body)
		}
	}

	// A Metrics override replaces the text endpoint only.
	mux = Mux(MuxOptions{Snapshot: reg.Snapshot, Metrics: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("federated"))
	})})
	if got := serve(mux, http.MethodGet, "/metrics").Body.String(); got != "federated" {
		t.Fatalf("/metrics override answered %q", got)
	}
	if rec := serve(mux, http.MethodGet, "/metrics.json"); !strings.Contains(rec.Body.String(), "httpapi.test_total") {
		t.Fatalf("/metrics.json under an override: %s", rec.Body)
	}
}

// EpochStamp stamps every answer — success, error, and one whose
// handler moves the epoch mid-request and restamps.
func TestEpochStampStampsEveryAnswer(t *testing.T) {
	epoch := uint64(4)
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("{}")) })
	mux.HandleFunc("/refused", func(w http.ResponseWriter, _ *http.Request) {
		Error(w, http.StatusConflict, Detail{Code: CodeConflict, Message: "no"})
	})
	mux.HandleFunc("/refresh", func(w http.ResponseWriter, _ *http.Request) {
		epoch++
		w.Header().Set("X-Cluster-Epoch", "5")
	})
	h := EpochStamp("X-Cluster-Epoch", func() uint64 { return epoch }, mux)

	for _, tc := range []struct{ path, want string }{
		{"/ok", "4"}, {"/refused", "4"}, {"/nowhere", "4"}, {"/refresh", "5"}, {"/ok", "5"},
	} {
		if got := serve(h, http.MethodGet, tc.path).Header().Get("X-Cluster-Epoch"); got != tc.want {
			t.Errorf("GET %s stamped epoch %q, want %s", tc.path, got, tc.want)
		}
	}
}

// hangupBody yields a few bytes and then fails, like a client that hangs
// up mid-body.
type hangupBody struct{ sent bool }

func (b *hangupBody) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, "partial line"), nil
	}
	return 0, io.ErrUnexpectedEOF
}

// ReadBatch is the one batch-body reader behind every intake handler:
// lines out, or the refusal already written as the envelope.
func TestReadBatch(t *testing.T) {
	const limit = 32
	post := func(body io.Reader, contentLength, limit int64) (*httptest.ResponseRecorder, []string, int) {
		req := httptest.NewRequest(http.MethodPost, "/ingest", body)
		req.ContentLength = contentLength
		rec := httptest.NewRecorder()
		lines, refused := ReadBatch(rec, req, limit)
		return rec, lines, refused
	}

	rec, lines, refused := post(strings.NewReader("a\r\n\nb\nc\n"), 8, limit)
	if refused != 0 || rec.Body.Len() != 0 || !reflect.DeepEqual(lines, []string{"a", "b", "c"}) {
		t.Fatalf("lines %q refused %d body %q; CRLF and empty lines must drop", lines, refused, rec.Body)
	}
	if _, lines, refused = post(strings.NewReader(""), 0, limit); refused != 0 || len(lines) != 0 {
		t.Fatalf("empty body: lines %q refused %d", lines, refused)
	}
	// A limit <= 0 is "the default", never "nothing fits".
	if _, lines, refused = post(strings.NewReader(strings.Repeat("x", 64)), 64, 0); refused != 0 || len(lines) != 1 {
		t.Fatalf("64 bytes under the default limit: lines %q refused %d", lines, refused)
	}

	for name, tc := range map[string]struct {
		body          io.Reader
		contentLength int64
		limit         int64
		status        int
		code          string
	}{
		"over the limit by Content-Length": {strings.NewReader(strings.Repeat("x", 64)), 64, limit, http.StatusRequestEntityTooLarge, CodeTooLarge},
		"over the limit mid-stream":        {strings.NewReader(strings.Repeat("x", 64)), -1, limit, http.StatusRequestEntityTooLarge, CodeTooLarge},
		"body errors mid-read":             {&hangupBody{}, -1, limit, http.StatusBadRequest, CodeBadRequest},
		"over the default limit":           {strings.NewReader("x"), DefaultMaxBatchBytes + 1, 0, http.StatusRequestEntityTooLarge, CodeTooLarge},
	} {
		rec, lines, refused := post(tc.body, tc.contentLength, tc.limit)
		if refused != tc.status || rec.Code != tc.status || lines != nil {
			t.Fatalf("%s: refused %d, answered %d, lines %q; want %d", name, refused, rec.Code, lines, tc.status)
		}
		if d := DecodeDetail(rec.Body.Bytes()); d == nil || d.Code != tc.code {
			t.Fatalf("%s: envelope %+v, want code %s", name, d, tc.code)
		}
	}
}
