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
// /ingest and directed /admin/v1/append, and the front router's /ingest
// all answer with the same body — IngestResponse — written by the same
// function, IngestResponse.Write:
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
// manifest view (the assignment has moved under a newer epoch), so the
// collector's retry routes to the partition's current owner.
var ErrNotAssigned = errors.New("shard: partition not assigned to this runtime")

// ErrCutover is returned when a line's key is mid-cutover but this
// runtime does not hold both sides of the double-write (a Subset
// runtime in a fleet whose live rebalance is driven by a front
// router). The rejection is retryable: a cutover-aware router routes
// the key's double-write across nodes; one that is not yet aware
// reloads its view on seeing the "cutover in progress" label.
var ErrCutover = errors.New("shard: key is mid-cutover; route it through a cutover-aware router")

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
// its share. Mid-cutover, Cutover.Route decides per line: uncommitted
// moving keys' shares are double-written (donor first, then destination;
// acked under the donor only when both land) and committed moving keys'
// shares route to the destination.
func (rt *Runtime) AppendBatch(lines []string) (IngestResponse, error) {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut := rt.cut.Load()
	n := len(rt.byIdx)
	byPart := make([][]string, n)
	var double [][][]string // uncommitted moving shares, [donor][destination]
	// units records each line's primary partition mid-cutover, where a key's
	// move can commit between routing and reporting; outside one the ring
	// answers the same both times.
	var units []int
	if cut != nil {
		units = make([]int, len(lines))
	}
	for i, line := range lines {
		key := DefaultKeyFunc(line)
		p, shadow := 0, -1
		if cut == nil {
			p = rt.part.Partition(key)
		} else {
			p, shadow = cut.Route(key)
			units[i] = p
		}
		if shadow < 0 {
			byPart[p] = append(byPart[p], line)
			continue
		}
		if double == nil {
			double = make([][][]string, n)
		}
		if double[p] == nil {
			double[p] = make([][]string, n)
		}
		double[p][shadow] = append(double[p][shadow], line)
	}
	var resp IngestResponse
	var firstErr error
	reject := func(res *PartitionResult, p, count int, err error) {
		res.Rejected += count
		if res.Error == "" {
			res.Error = RejectionLabel(err)
		}
		rt.rejectedByBP.Add(int64(count))
		if firstErr == nil {
			firstErr = fmt.Errorf("partition %d: %w", p, err)
		}
	}
	for p := 0; p < n; p++ {
		plain := byPart[p]
		var dbl [][]string // this donor's double-write shares, by destination
		if double != nil {
			dbl = double[p]
		}
		total, destsOpen := len(plain), true
		for dest, share := range dbl {
			total += len(share)
			destsOpen = destsOpen && (len(share) == 0 || rt.byIdx[dest] != nil)
		}
		if total == 0 {
			continue
		}
		// A partition's answer is all-or-nothing across its plain and
		// double-write shares: one unit, one row, acked or rejected whole.
		// rejected_lines is then exactly the lines of the rows that carry
		// an Error, and retrying them lands each line exactly once.
		res := PartitionResult{Partition: p}
		switch {
		case rt.byIdx[p] == nil:
			reject(&res, p, total, ErrNotAssigned)
		case !destsOpen:
			// This subset runtime lacks a double-write's destination:
			// bounce the whole partition share before appending anything,
			// so the router reloads its cutover view and retries all of it.
			reject(&res, p, total, ErrCutover)
		default:
			// Donor copies first, then the plain share, then the
			// destination copies. A failure rejects the whole unit; at the
			// first two failure points nothing fed has landed (donor
			// double-write copies sit past the freeze and are never fed),
			// so the retry is exact. Only a destination append failing
			// after the plain share landed — a fresh, near-empty backlog
			// refusing — would leave the retry with a duplicate.
			ok := true
			appendTo := func(idx int, share []string) {
				if !ok || len(share) == 0 {
					return
				}
				if _, _, err := rt.byIdx[idx].bk.AppendBatch(share); err != nil {
					reject(&res, idx, total, err)
					ok = false
				}
			}
			for _, share := range dbl {
				appendTo(p, share)
			}
			appendTo(p, plain)
			for dest, share := range dbl {
				appendTo(dest, share)
			}
			if ok {
				res.Acked = total
				rt.routedLines.Add(int64(total))
			}
		}
		resp.Acked += res.Acked
		resp.Rejected += res.Rejected
		resp.Partitions = append(resp.Partitions, res)
	}
	if resp.Rejected > 0 {
		// The rejection path only: a second pass names the lines of the
		// units that rejected.
		rejected := make([]bool, n)
		for _, res := range resp.Partitions {
			rejected[res.Partition] = res.Rejected > 0
		}
		resp.RejectedLines = make([]int, 0, resp.Rejected)
		for i, line := range lines {
			var p int
			if units != nil {
				p = units[i]
			} else {
				p = rt.part.Partition(DefaultKeyFunc(line))
			}
			if rejected[p] {
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
	case errors.Is(err, ErrCutover):
		return "cutover in progress"
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
