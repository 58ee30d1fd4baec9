package broker

import (
	"encoding/json"
	"errors"
	"net/http"

	"logsynergy/internal/httpapi"
	"logsynergy/internal/obs"
)

// The networked intake: POST /ingest with a newline-delimited batch of
// raw log lines. The handler appends the batch to the WAL and answers
// 202 with the acked record count and offset range — the collector-side
// contract is "202 means your lines are in the log" (durable per the
// broker's fsync policy). Failure statuses map the broker's admission
// and lifecycle errors, each carrying the shared httpapi error
// envelope:
//
//	413 too_large      request body exceeds the batch limit
//	429 backpressure   backlog full under FullReject (Retry-After: 1)
//	503 intake_closed  shutdown in progress
//	405 anything but POST

// DefaultMaxBatchBytes bounds one /ingest request body when the handler
// is built with maxBatchBytes <= 0.
const DefaultMaxBatchBytes = 4 << 20

// IngestResponse is the JSON body of a 202 from /ingest.
type IngestResponse struct {
	// Acked is the number of records appended.
	Acked int `json:"acked"`
	// FirstOffset and LastOffset bound the appended records (0/0 for an
	// empty batch).
	FirstOffset uint64 `json:"first_offset"`
	LastOffset  uint64 `json:"last_offset"`
}

// intakeObs caches the intake's metric handles.
type intakeObs struct {
	requests  *obs.Counter
	lines     *obs.Counter
	rejected  *obs.Counter
	oversized *obs.Counter
}

// IngestHandler returns the /ingest HTTP handler. maxBatchBytes bounds
// one request body (<= 0 selects DefaultMaxBatchBytes); larger requests
// get 413 without being appended.
func (b *Broker) IngestHandler(maxBatchBytes int64) http.Handler {
	if maxBatchBytes <= 0 {
		maxBatchBytes = DefaultMaxBatchBytes
	}
	om := intakeObs{
		requests:  b.reg.Counter("broker.ingest_requests_total"),
		lines:     b.reg.Counter("broker.ingest_lines_total"),
		rejected:  b.reg.Counter("broker.ingest_rejected_total"),
		oversized: b.reg.Counter("broker.ingest_oversized_total"),
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		om.requests.Inc()
		if r.Method != http.MethodPost {
			httpapi.MethodNotAllowed(w, http.MethodPost, "ingest accepts POST only")
			return
		}
		lines, refused := httpapi.ReadBatch(w, r, maxBatchBytes)
		if refused != 0 {
			if refused == http.StatusRequestEntityTooLarge {
				om.oversized.Inc()
			}
			return
		}
		var resp IngestResponse
		if len(lines) > 0 {
			first, last, err := b.AppendBatch(lines)
			switch {
			case errors.Is(err, ErrBacklogFull):
				om.rejected.Inc()
				httpapi.Error(w, http.StatusTooManyRequests, httpapi.Detail{
					Code:        httpapi.CodeBackpressure,
					Message:     err.Error(),
					RetryAfterS: 1,
				})
				return
			case errors.Is(err, ErrClosed):
				httpapi.Error(w, http.StatusServiceUnavailable, httpapi.Detail{
					Code:    httpapi.CodeClosed,
					Message: "intake closed",
				})
				return
			case err != nil:
				httpapi.Error(w, http.StatusInternalServerError, httpapi.Detail{
					Code:    httpapi.CodeInternal,
					Message: err.Error(),
				})
				return
			}
			resp = IngestResponse{Acked: len(lines), FirstOffset: first, LastOffset: last}
			om.lines.Add(int64(len(lines)))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(resp)
	})
}
