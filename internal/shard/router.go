package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"logsynergy/internal/broker"
	"logsynergy/internal/httpapi"
)

// The intake contract, one at every tier. serve's /ingest, a fleet node's
// /ingest and the front router's /ingest all answer with the same body —
// IngestResponse — written by the same function, IngestResponse.Write:
//
//	202  every line of the batch is in some partition's log (durable per
//	     the broker's fsync policy)
//	429  some line was refused: rejected_lines holds the request-order
//	     indices of exactly the lines that were not acked — retry those,
//	     after Retry-After — and partitions breaks the batch down per
//	     partition
//	503  nothing was acked and every refusal was a closed intake
//
// Here the router hashes each line's stream key onto a partition and
// appends to that partition's log. Backpressure is per partition — a
// stalled shard whose backlog fills rejects only the lines keyed to it,
// while every other shard keeps acking.

// ErrNotAssigned is returned when a line's key routes to a partition
// this runtime does not serve (a Subset runtime in a cluster fleet).
// The rejected lines surface to the collector as a "not assigned"
// partition rejection; a front router that sees one reloads its
// manifest view and the cutover journal (the assignment moved under a
// newer epoch, or a live cutover began that it has not seen), so the
// collector's retry routes to the partition's current owner.
var ErrNotAssigned = errors.New("shard: partition not assigned to this runtime")

// IngestResponse is the JSON body of every intake answer: serve, node
// and router alike.
type IngestResponse struct {
	// Acked is the number of lines durably appended (across partitions,
	// and across nodes behind a router).
	Acked int `json:"acked"`
	// Rejected is the number of lines refused; len(RejectedLines).
	Rejected int `json:"rejected"`
	// Epoch is the manifest epoch a front router routed the batch under.
	Epoch uint64 `json:"epoch,omitempty"`
	// RetryAfterSeconds is the largest retry hint a router's nodes
	// supplied (mirrored in the Retry-After header of a 429).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Partitions breaks the batch down per partition, in partition order.
	Partitions []PartitionResult `json:"partitions,omitempty"`
	// RejectedLines are the request-order indices (0-based, counting
	// non-empty lines) of the lines that were not acked — the exact
	// retry set.
	RejectedLines []int `json:"rejected_lines,omitempty"`
	// Err is the uniform admin-API error detail on a non-2xx answer,
	// nil on 202.
	Err *httpapi.Detail `json:"error,omitempty"`
}

// PartitionResult is one partition's share of an ingest batch.
type PartitionResult struct {
	Partition int `json:"partition"`
	// Node is the fleet node the router sent the share to.
	Node     string `json:"node,omitempty"`
	Acked    int    `json:"acked"`
	Rejected int    `json:"rejected"`
	// Error classifies the rejection ("backlog full", "closed", "not
	// assigned", "node unreachable", ...), empty on success.
	Error string `json:"error,omitempty"`
	// RetryAfterSeconds is the node's retry hint for this partition's
	// rejection (0 = none supplied).
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// Write answers an intake request with resp — the one mapping from an
// intake result to a status: 202 when nothing was rejected; 503
// intake_closed when nothing was acked and every rejecting row says
// "closed"; otherwise 429 backpressure with Retry-After =
// max(RetryAfterSeconds, 1).
func (resp IngestResponse) Write(w http.ResponseWriter) {
	if resp.Rejected == 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(resp)
		return
	}
	closed := resp.Acked == 0 && len(resp.Partitions) > 0
	for _, row := range resp.Partitions {
		closed = closed && (row.Rejected == 0 || row.Error == "closed")
	}
	status, d := http.StatusTooManyRequests, httpapi.Detail{
		Code:        httpapi.CodeBackpressure,
		Message:     fmt.Sprintf("%d of %d lines rejected; retry exactly rejected_lines", resp.Rejected, resp.Acked+resp.Rejected),
		RetryAfterS: max(resp.RetryAfterSeconds, 1),
	}
	if closed {
		status, d = http.StatusServiceUnavailable, httpapi.Detail{Code: httpapi.CodeClosed, Message: "intake closed"}
	}
	d.Partitions = resp.Partitions
	resp.Err = &d
	httpapi.ErrorWithBody(w, status, d, resp)
}

// AppendBatch routes a batch of lines to their partitions, appending
// each partition's share as one batch. Acceptance is per partition: the
// answer says what each partition acked or rejected and — when any did
// reject — which lines of the batch those were, and the error (if
// non-nil) wraps the first partition failure. Lines for healthy
// partitions are durably appended even when another partition rejects
// its share. Mid-cutover the new layout's ring routes every line, so a
// moving key's line lands once, in its destination's WAL, whose consumer
// holds it until the key's move commits.
func (rt *Runtime) AppendBatch(lines []string) (IngestResponse, error) {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	ring := rt.part
	if cut := rt.cut.Load(); cut != nil {
		ring = cut.newRing
	}
	byPart := make([][]string, len(rt.byIdx))
	for _, line := range lines {
		p := ring.Partition(DefaultKeyFunc(line))
		byPart[p] = append(byPart[p], line)
	}
	var resp IngestResponse
	var firstErr error
	for p, share := range byPart {
		if len(share) == 0 {
			continue
		}
		res := PartitionResult{Partition: p}
		err := ErrNotAssigned
		if pt := rt.byIdx[p]; pt != nil {
			_, _, err = pt.bk.AppendBatch(share)
		}
		if err == nil {
			res.Acked = len(share)
			rt.routedLines.Add(int64(len(share)))
		} else {
			res.Rejected, res.Error = len(share), RejectionLabel(err)
			rt.rejectedByBP.Add(int64(len(share)))
			if firstErr == nil {
				firstErr = fmt.Errorf("partition %d: %w", p, err)
			}
		}
		resp.Acked += res.Acked
		resp.Rejected += res.Rejected
		resp.Partitions = append(resp.Partitions, res)
	}
	if resp.Rejected > 0 {
		// The rejection path only: a second pass names the lines of the
		// partitions that rejected.
		rejected := make([]bool, len(byPart))
		for _, res := range resp.Partitions {
			rejected[res.Partition] = res.Rejected > 0
		}
		resp.RejectedLines = make([]int, 0, resp.Rejected)
		for i, line := range lines {
			if rejected[ring.Partition(DefaultKeyFunc(line))] {
				resp.RejectedLines = append(resp.RejectedLines, i)
			}
		}
	}
	return resp, firstErr
}

// RejectionLabel classifies an append error for the wire: the stable
// per-partition Error strings of an IngestResponse.
func RejectionLabel(err error) string {
	switch {
	case errors.Is(err, broker.ErrBacklogFull):
		return "backlog full"
	case errors.Is(err, broker.ErrClosed):
		return "closed"
	case errors.Is(err, ErrNotAssigned):
		return "not assigned"
	default:
		return err.Error()
	}
}

// IngestHandler returns the /ingest HTTP handler. maxBatchBytes bounds
// one request body (<= 0 selects httpapi.DefaultMaxBatchBytes). The
// answer is IngestResponse.Write's; before it, 413 when the request body
// exceeds the batch limit and 405 for anything but POST.
func (rt *Runtime) IngestHandler(maxBatchBytes int64) http.Handler {
	requests := rt.reg.Counter("shard.ingest_requests_total")
	oversized := rt.reg.Counter("shard.ingest_oversized_total")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		if r.Method != http.MethodPost {
			httpapi.MethodNotAllowed(w, http.MethodPost, "ingest accepts POST only")
			return
		}
		lines, refused := httpapi.ReadBatch(w, r, maxBatchBytes)
		if refused != 0 {
			if refused == http.StatusRequestEntityTooLarge {
				oversized.Inc()
			}
			return
		}
		resp, _ := rt.AppendBatch(lines)
		resp.Write(w)
	})
}
