// Package httpapi is the one shared HTTP admin surface for every
// logsynergy serving mode (single-process serve, fleet node, front
// router): a mux builder that mounts the observability endpoints
// exactly once per process, the versioned admin path prefix, and the
// uniform JSON error envelope every non-2xx admin or ingest answer
// carries.
//
// The envelope is
//
//	{"error": {"code": "...", "message": "...", "retry_after_s": N}}
//
// with machine-readable codes (see the Code* constants) so collectors
// and the fleet router decode the body instead of scraping headers or
// text/plain prose. Backpressure answers additionally keep a
// Retry-After header and, where a caller decodes the legacy shape, the
// pre-envelope top-level fields: the envelope is additive, never a
// silent break.
package httpapi

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"logsynergy/internal/broker"
	"logsynergy/internal/obs"
)

// Prefix is the versioned admin path prefix; every admin endpoint is
// mounted under it and nowhere else.
const Prefix = "/admin/v1"

// Error codes carried in the envelope. These are the stable,
// machine-readable half of an error answer; messages are prose and may
// change between releases.
const (
	// CodeBadRequest: the request itself is malformed (bad parameter,
	// unparseable body or header).
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: wrong HTTP method; the Allow header names
	// the accepted one.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeConflict: the request is well-formed but the server's state
	// refuses it (stale epoch, no live cutover, shrink request).
	CodeConflict = "conflict"
	// CodeTooLarge: the request body exceeds the configured batch bound,
	// or one of its lines the WAL's record bound.
	CodeTooLarge = "too_large"
	// CodeBackpressure: a retryable rejection — backlog full or bounded
	// concurrency exhausted. retry_after_s says when to come back.
	CodeBackpressure = "backpressure"
	// CodeClosed: intake is shut down; the request will not succeed on
	// retry against this process.
	CodeClosed = "intake_closed"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// Detail is the error object inside the envelope.
type Detail struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable prose.
	Message string `json:"message"`
	// RetryAfterS, when positive, is the retry hint in seconds; the
	// same value is mirrored into the Retry-After header.
	RetryAfterS int `json:"retry_after_s,omitempty"`
	// Partitions carries per-partition rejection detail on 429 answers
	// (the shard/router per-partition result rows).
	Partitions any `json:"partitions,omitempty"`
}

// Envelope is the uniform non-2xx response body.
type Envelope struct {
	Err Detail `json:"error"`
}

// Error writes the envelope as the entire response body. Handlers use
// it for every non-2xx answer that has no legacy body shape to keep.
func Error(w http.ResponseWriter, status int, d Detail) {
	writeJSON(w, status, d, Envelope{Err: d})
}

// ErrorWithBody writes a non-2xx response whose body is the caller's
// own struct (which should embed d, e.g. via an `error` field) — the
// additive path for answers whose pre-envelope body shape collectors
// already decode, like the 429 ingest response. Headers (Content-Type,
// Retry-After) are set from d exactly as Error would.
func ErrorWithBody(w http.ResponseWriter, status int, d Detail, body any) {
	writeJSON(w, status, d, body)
}

// MethodNotAllowed answers 405 with the envelope and an Allow header.
func MethodNotAllowed(w http.ResponseWriter, allow, message string) {
	w.Header().Set("Allow", allow)
	Error(w, http.StatusMethodNotAllowed, Detail{Code: CodeMethodNotAllowed, Message: message})
}

func writeJSON(w http.ResponseWriter, status int, d Detail, body any) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if d.RetryAfterS > 0 {
		h.Set("Retry-After", strconv.Itoa(d.RetryAfterS))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// DefaultMaxBatchBytes bounds one batch request body wherever a caller
// passes ReadBatch a limit <= 0 — the one default every intake shares.
const DefaultMaxBatchBytes = 4 << 20

// ReadBatch reads one newline-delimited batch body of at most maxBytes
// (<= 0 selects DefaultMaxBatchBytes) and splits it into log lines,
// tolerating CRLF and dropping empty lines (a trailing newline is not an
// empty record; every intake parses alike, so rejected-line indices agree
// between router, node and collector). refused is 0 on success. Otherwise
// the envelope has already been written and refused is the status
// answered: 413 too_large when the body exceeds maxBytes, by
// Content-Length or mid-stream, or when a line exceeds the WAL's record
// bound (broker.MaxRecordBytes: no retry could land it, so the batch is
// refused before any of it is appended), or 400 bad_request when the body
// could not be read.
func ReadBatch(w http.ResponseWriter, r *http.Request, maxBytes int64) (lines []string, refused int) {
	refuse := func(status int, code, message string) ([]string, int) {
		Error(w, status, Detail{Code: code, Message: message})
		return nil, status
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBatchBytes
	}
	if r.ContentLength > maxBytes {
		return refuse(http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Sprintf("batch of %d bytes exceeds limit %d", r.ContentLength, maxBytes))
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return refuse(http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Sprintf("batch exceeds limit %d bytes", maxBytes))
	case err != nil:
		return refuse(http.StatusBadRequest, CodeBadRequest, "reading request body: "+err.Error())
	}
	lines = splitBatch(body)
	for i, l := range lines {
		if len(l) > broker.MaxRecordBytes {
			return refuse(http.StatusRequestEntityTooLarge, CodeTooLarge,
				fmt.Sprintf("line %d is %d bytes, over the record limit %d", i, len(l), broker.MaxRecordBytes))
		}
	}
	return lines, 0
}

func splitBatch(body []byte) []string {
	raw := strings.Split(string(body), "\n")
	lines := make([]string, 0, len(raw))
	for _, l := range raw {
		l = strings.TrimSuffix(l, "\r")
		if l == "" {
			continue
		}
		lines = append(lines, l)
	}
	return lines
}

// DecodeDetail extracts the envelope's error detail from a response
// body, or nil when the body carries none — callers fall back to
// headers (Retry-After) for pre-envelope peers.
func DecodeDetail(body []byte) *Detail {
	var env struct {
		Err *Detail `json:"error"`
	}
	if json.Unmarshal(body, &env) != nil {
		return nil
	}
	return env.Err
}

// MuxOptions configures the shared admin mux.
type MuxOptions struct {
	// Snapshot backs /metrics (text), /metrics.json, and the process
	// expvar. Required unless Metrics overrides the text endpoint and
	// no JSON snapshot is wanted.
	Snapshot func() obs.Snapshot
	// Metrics, when set, overrides the /metrics handler (the router
	// mounts its federated scrape here); /metrics.json still serves
	// Snapshot when that is set too.
	Metrics http.Handler
}

// Mux builds the shared observability mux: /metrics, /metrics.json,
// /debug/vars, and the /debug/pprof/* handlers. Every serving mode
// mounts its role-specific endpoints (ingest, admin) on top of it.
func Mux(o MuxOptions) *http.ServeMux {
	mux := http.NewServeMux()
	switch {
	case o.Metrics != nil:
		mux.Handle("/metrics", o.Metrics)
	case o.Snapshot != nil:
		snap := o.Snapshot
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			snap().WriteText(w)
		})
	}
	if o.Snapshot != nil {
		mux.Handle("/metrics.json", obs.SnapshotJSONHandler(o.Snapshot))
		publishExpvar(o.Snapshot)
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// expvar.Publish panics on a duplicate name, so the process-global
// "logsynergy" var is registered once and reads through an atomic
// pointer to the most recent mux's snapshot function.
var (
	expvarOnce sync.Once
	expvarSnap atomic.Value // of func() obs.Snapshot
)

func publishExpvar(snap func() obs.Snapshot) {
	expvarSnap.Store(snap)
	expvarOnce.Do(func() {
		expvar.Publish("logsynergy", expvar.Func(func() any {
			if fn, ok := expvarSnap.Load().(func() obs.Snapshot); ok && fn != nil {
				return fn()
			}
			return nil
		}))
	})
}

// EpochStamp wraps h so every response carries the current cluster
// epoch in the named header before the handler runs — the consistent
// X-Cluster-Epoch discipline across the admin surface. Handlers that
// refresh mid-request may overwrite the header before writing status.
func EpochStamp(header string, epoch func() uint64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(header, strconv.FormatUint(epoch(), 10))
		h.ServeHTTP(w, r)
	})
}

// RebalanceHandler is POST /admin/v1/rebalance?to=N[&node=NAME] for
// whatever run moves to N partitions (query or form body, one explicit
// rule). It blocks until run returns: intake keeps flowing the whole
// time, so a long-poll is the honest contract — the 200, whose body is
// run's report, means the new layout IS being served. A malformed count
// answers 400 and run's refusal 409, both through the envelope.
func RebalanceHandler(run func(to int, node string) (report any, err error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			MethodNotAllowed(w, http.MethodPost, "rebalance accepts POST only")
			return
		}
		raw := r.FormValue("to")
		to, err := strconv.Atoi(raw)
		if err != nil || to <= 0 {
			Error(w, http.StatusBadRequest, Detail{
				Code:    CodeBadRequest,
				Message: fmt.Sprintf("rebalance needs a positive partition count: to=%q is not one", raw),
			})
			return
		}
		report, err := run(to, r.FormValue("node"))
		if err != nil {
			Error(w, http.StatusConflict, Detail{Code: CodeConflict, Message: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(report)
	})
}

// BuildInfo is the build identification block of a status answer.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo BuildInfo
)

// Build returns the process's build identification, read once from the
// embedded module build info.
func Build() BuildInfo {
	buildOnce.Do(func() {
		if bi, ok := debug.ReadBuildInfo(); ok {
			buildInfo.GoVersion = bi.GoVersion
			buildInfo.Module = bi.Main.Path
			buildInfo.Version = bi.Main.Version
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					buildInfo.Revision = s.Value
				}
			}
		}
	})
	return buildInfo
}
