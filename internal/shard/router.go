package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"logsynergy/internal/broker"
	"logsynergy/internal/httpapi"
)

// The intake — the only HTTP handler in front of a WAL: the router hashes
// each line's stream key onto a partition and appends to that partition's
// log. Backpressure is per-partition — a stalled shard whose backlog
// fills rejects only the lines keyed to it, while every other shard keeps
// acking. The HTTP contract: 202 means every line in the batch is in some
// partition's log (durable per the broker's fsync policy); 429 carries a
// per-partition breakdown of what was acked and what must be retried.

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

// IngestResponse is the JSON body of a 202 or 429 from /ingest.
type IngestResponse struct {
	// Acked is the number of lines durably appended (across partitions).
	Acked int `json:"acked"`
	// Rejected is the number of lines refused by per-partition admission
	// control; the collector should retry exactly these.
	Rejected int `json:"rejected"`
	// Partitions breaks the batch down per partition, in partition order.
	Partitions []PartitionResult `json:"partitions,omitempty"`
	// Err is the uniform admin-API error detail on a non-2xx answer,
	// nil on 202. The legacy top-level fields stay populated, so
	// collectors written against the pre-envelope shape keep decoding.
	Err *httpapi.Detail `json:"error,omitempty"`
}

// PartitionResult is one partition's share of an ingest batch.
type PartitionResult struct {
	Partition int `json:"partition"`
	Acked     int `json:"acked"`
	Rejected  int `json:"rejected"`
	// Error classifies the rejection ("backlog full", "closed"), empty on
	// success.
	Error string `json:"error,omitempty"`
}

// Append routes one line to its partition's WAL and returns the
// partition index and the assigned offset within that partition's log.
// A full partition returns an error wrapping broker.ErrBacklogFull that
// names the partition; other partitions are unaffected.
//
// During a live cutover a moving key that has not been released yet is
// double-written — appended to both the donor's WAL (reported partition
// and offset) and the destination's — and acked only when both appends
// land; a released moving key routes to the destination. Non-moving
// keys are untouched.
func (rt *Runtime) Append(line string) (part int, off uint64, err error) {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	key := rt.cfg.KeyFunc(line)
	if cut := rt.cut.Load(); cut != nil && cut.moving(key) {
		if cut.keyPhase(key) < phaseReleased {
			return rt.appendDouble(cut, line)
		}
		part = cut.newRing.Partition(key)
	} else {
		part = rt.part.Partition(key)
	}
	pt := rt.byIdx[part]
	if pt == nil {
		rt.rejectedByBP.Inc()
		return part, 0, fmt.Errorf("partition %d: %w", part, ErrNotAssigned)
	}
	off, err = pt.bk.Append(line)
	if err != nil {
		rt.rejectedByBP.Inc()
		return part, 0, fmt.Errorf("partition %d: %w", part, err)
	}
	rt.routedLines.Inc()
	return part, off, nil
}

// appendDouble double-writes one unreleased moving key's line. The
// donor's copy sits past its freeze point and is never fed — the
// destination's copy is the one detection consumes — so the line is
// acked only when both appends land: a donor-only copy after a
// destination failure is simply a skipped record, and at-least-once
// intake has the producer retry.
func (rt *Runtime) appendDouble(cut *cutover, line string) (int, uint64, error) {
	key := rt.cfg.KeyFunc(line)
	donor := cut.oldRing.Partition(key)
	dest := cut.newRing.Partition(key)
	if rt.byIdx[donor] == nil || rt.byIdx[dest] == nil {
		rt.rejectedByBP.Inc()
		return donor, 0, fmt.Errorf("partition %d: %w", donor, ErrCutover)
	}
	off, err := rt.byIdx[donor].bk.Append(line)
	if err != nil {
		rt.rejectedByBP.Inc()
		return donor, 0, fmt.Errorf("partition %d: %w", donor, err)
	}
	if _, err := rt.byIdx[dest].bk.Append(line); err != nil {
		rt.rejectedByBP.Inc()
		return dest, 0, fmt.Errorf("partition %d: %w", dest, err)
	}
	rt.routedLines.Inc()
	return donor, off, nil
}

// AppendBatch routes a batch of lines to their partitions, appending
// each partition's share as one batch. Acceptance is per-partition: the
// returned results say what each partition acked or rejected, and the
// error (if non-nil) wraps the first partition failure. Lines for
// healthy partitions are durably appended even when another partition
// rejects its share. Mid-cutover, unreleased moving keys' shares are
// double-written (donor first, then destination; acked under the donor
// only when both land) and released moving keys' shares route to the
// destination.
func (rt *Runtime) AppendBatch(lines []string) ([]PartitionResult, error) {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut := rt.cut.Load()
	n := len(rt.byIdx)
	byPart := make([][]string, n)
	var double [][][]string // unreleased moving shares, [donor][destination]
	for _, line := range lines {
		key := rt.cfg.KeyFunc(line)
		if cut != nil && cut.moving(key) {
			p := cut.newRing.Partition(key)
			if cut.keyPhase(key) >= phaseReleased {
				byPart[p] = append(byPart[p], line)
				continue
			}
			d := cut.oldRing.Partition(key)
			if double == nil {
				double = make([][][]string, n)
			}
			if double[d] == nil {
				double[d] = make([][]string, n)
			}
			double[d][p] = append(double[d][p], line)
			continue
		}
		p := rt.part.Partition(key)
		byPart[p] = append(byPart[p], line)
	}
	var results []PartitionResult
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
		// double-write shares. Callers attribute rejections per partition
		// row, not per line — a stale front router that cannot tell a
		// moving key from a staying one retries every line it routed to a
		// row whose Error is set. A mixed row (plain acked, double
		// rejected) would make it re-append — and re-detect — the acked
		// lines; a homogeneous rejection makes the retry land each line
		// exactly once.
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
		results = append(results, res)
	}
	return results, firstErr
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
// one request body (<= 0 selects httpapi.DefaultMaxBatchBytes).
// Status mapping:
//
//	202 every line acked (body: IngestResponse)
//	429 some partition rejected its share — body carries the
//	    per-partition breakdown so the collector retries only the
//	    rejected lines (Retry-After: 1)
//	503 every routed partition refused because intake is closed
//	413 request body exceeds the batch limit
//	405 anything but POST
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
		resp := IngestResponse{}
		if len(lines) > 0 {
			results, _ := rt.AppendBatch(lines)
			resp.Partitions = results
			allClosed := len(results) > 0
			for _, res := range results {
				resp.Acked += res.Acked
				resp.Rejected += res.Rejected
				if res.Error != "closed" {
					allClosed = false
				}
			}
			if allClosed {
				httpapi.Error(w, http.StatusServiceUnavailable, httpapi.Detail{
					Code:       httpapi.CodeClosed,
					Message:    "intake closed",
					Partitions: results,
				})
				return
			}
		}
		if resp.Rejected > 0 {
			d := httpapi.Detail{
				Code:        httpapi.CodeBackpressure,
				Message:     fmt.Sprintf("%d of %d lines rejected; retry the rejected partitions' shares", resp.Rejected, len(lines)),
				RetryAfterS: 1,
				Partitions:  resp.Partitions,
			}
			resp.Err = &d
			httpapi.ErrorWithBody(w, http.StatusTooManyRequests, d, resp)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(resp)
	})
}
