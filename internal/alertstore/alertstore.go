// Package alertstore provides durable storage for anomaly reports: an
// append-only framelog file, one JSON-encoded Record per frame, with an
// in-memory index, crash-tolerant reopen, time-range and system queries,
// and compaction. The production workflow (§VI) routes every alert to
// operators; a deployment also needs the alert history on disk for audits,
// post-mortems and the §VI-C false-positive/false-negative analysis — this
// package is that history.
package alertstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"time"

	"logsynergy/internal/atomicfile"
	"logsynergy/internal/core"
	"logsynergy/internal/framelog"
)

// maxRecord bounds one encoded record. Well below the length a text file's
// first four bytes spell, it also makes a file that is no framed store —
// a JSON-lines store, a model bundle — fail as corrupt at byte 0.
const maxRecord = 16 << 20

// Record is one stored alert.
type Record struct {
	// ID is the store-assigned sequence number (1-based, append order).
	ID uint64 `json:"id"`
	// Report is the alert payload.
	Report core.Report `json:"report"`
	// StoredAt is when the record was appended.
	StoredAt time.Time `json:"stored_at"`
	// Acknowledged marks alerts an operator has handled.
	Acknowledged bool `json:"acknowledged,omitempty"`
}

// Store is an append-only alert log. It is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	path    string
	file    *os.File
	records []Record // in-memory index, append order
	nextID  uint64
	// end is the byte length of the file's whole frames. torn is set while
	// bytes past end may be on disk — a frame torn by a crash, or by a
	// write that failed — and the next write first cuts the file to end.
	end  int64
	torn bool
	// Sync forces an fsync after every write (durability over speed).
	Sync bool
}

// Open opens (or creates) a store at path, replaying existing records.
// Open never changes an existing file, so a read-only use (`alerts list`,
// even against a live store) leaves it as it was. A torn last frame — the
// signature of a crash mid-write — is not loaded, and the first write cuts
// it off. An intact frame that does not decode as a Record is skipped. A
// corrupt frame is refused, naming its byte offset: the file is damaged,
// or it is not a framed alert store at all.
func Open(path string) (*Store, error) {
	s := &Store{path: path, nextID: 1}
	index := make(map[uint64]int)
	_, valid, stop, err := framelog.Scan(path, maxRecord, func(payload []byte) {
		var r Record
		if json.Unmarshal(payload, &r) != nil {
			return
		}
		// Later versions of a record (e.g. acknowledgements) supersede
		// earlier ones in place, keeping first-seen order.
		if i, ok := index[r.ID]; ok {
			s.records[i] = r
		} else {
			index[r.ID] = len(s.records)
			s.records = append(s.records, r)
		}
		if r.ID >= s.nextID {
			s.nextID = r.ID + 1
		}
	})
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, fmt.Errorf("alertstore: replaying %s: %w", path, err)
	case errors.Is(stop, framelog.ErrCorrupt):
		return nil, fmt.Errorf("alertstore: %s is not a framed alert store, or is damaged, at byte %d: %w; "+
			"a JSON-lines store from an earlier version is still readable as it is, one record per line: move it aside",
			path, valid, stop)
	}
	s.end, s.torn = valid, stop != nil
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("alertstore: opening %s: %w", path, err)
	}
	s.file = f
	return s, nil
}

// write appends rec as one frame in one Write, first cutting off a torn
// tail, and fsyncs under Sync. A write that fails or comes up short may
// leave part of the frame on disk, so it marks the tail torn: the next
// write cuts back to the last whole frame instead of burying the fragment
// mid-file, where the next Open would refuse the store. The caller holds
// s.mu.
func (s *Store) write(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("alertstore: encoding record: %w", err)
	}
	if s.torn {
		if err := s.file.Truncate(s.end); err != nil {
			return fmt.Errorf("alertstore: cutting torn tail of %s: %w", s.path, err)
		}
		s.torn = false
	}
	frame := framelog.Append(nil, payload)
	if _, err := s.file.Write(frame); err != nil {
		s.torn = true
		return fmt.Errorf("alertstore: appending: %w", err)
	}
	s.end += int64(len(frame))
	if s.Sync {
		if err := s.file.Sync(); err != nil {
			return fmt.Errorf("alertstore: syncing: %w", err)
		}
	}
	return nil
}

// Append stores one report and returns its record.
func (s *Store) Append(rep *core.Report) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := Record{ID: s.nextID, Report: *rep, StoredAt: time.Now().UTC()}
	if err := s.write(rec); err != nil {
		return Record{}, err
	}
	s.nextID++
	s.records = append(s.records, rec)
	return rec, nil
}

// Close closes the underlying file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Query selects records matching the filter, in append order.
type Query struct {
	// System filters by monitored system name ("" = all).
	System string
	// From and To bound the report timestamp (zero = unbounded).
	From, To time.Time
	// MinScore keeps only reports at or above the score.
	MinScore float64
	// UnacknowledgedOnly keeps only open alerts.
	UnacknowledgedOnly bool
	// Limit caps the result count (0 = unlimited).
	Limit int
}

// matches reports whether a record satisfies the query.
func (q Query) matches(r Record) bool {
	if q.System != "" && r.Report.System != q.System {
		return false
	}
	if !q.From.IsZero() && r.Report.Timestamp.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && r.Report.Timestamp.After(q.To) {
		return false
	}
	if r.Report.Score < q.MinScore {
		return false
	}
	if q.UnacknowledgedOnly && r.Acknowledged {
		return false
	}
	return true
}

// Find returns matching records.
func (s *Store) Find(q Query) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, r := range s.records {
		if q.matches(r) {
			out = append(out, r)
			if q.Limit > 0 && len(out) >= q.Limit {
				break
			}
		}
	}
	return out
}

// Acknowledge marks a record handled. The flag is persisted as a new
// version of the record appended to the log (last version wins on replay
// ... simplest possible MVCC). Returns false if the id is unknown.
func (s *Store) Acknowledge(id uint64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.records {
		if s.records[i].ID == id {
			rec := s.records[i]
			rec.Acknowledged = true
			if err := s.write(rec); err != nil {
				return false, err
			}
			s.records[i] = rec
			return true, nil
		}
	}
	return false, nil
}

// Compact rewrites the log keeping only records matching keep (nil keeps
// everything). The index holds one version per record, so the rewrite
// drops every superseded version. The store stays usable afterwards.
func (s *Store) Compact(keep func(Record) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	var kept []Record
	var buf []byte
	for _, r := range s.records {
		if keep != nil && !keep(r) {
			continue
		}
		payload, err := json.Marshal(r)
		if err != nil {
			return err
		}
		kept = append(kept, r)
		buf = framelog.Append(buf, payload)
	}
	// The durable install whether or not Sync is set: with it set, the
	// compacted log must be no less durable than the records it replaces.
	// Every write goes straight to the file, so the old handle holds
	// nothing the compacted log lacks; it is swapped only once the install
	// and the reopen succeeded, so a failure leaves the store as it was.
	if err := atomicfile.Write(s.path, buf); err != nil {
		return fmt.Errorf("alertstore: swapping compacted log: %w", err)
	}
	nf, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.file.Close()
	s.file = nf
	s.records = kept
	s.end, s.torn = int64(len(buf)), false // the rewrite dropped any torn tail
	return nil
}

// Sink adapts the store to the pipeline's report sink interface. Append
// errors are counted rather than propagated (alert delivery must not
// block detection).
type Sink struct {
	Store *Store

	mu     sync.Mutex
	errors int
}

// NewSink wraps a store as a pipeline sink.
func NewSink(store *Store) *Sink { return &Sink{Store: store} }

// Notify implements the pipeline Sink interface.
func (s *Sink) Notify(r *core.Report) { _ = s.TryNotify(r) }

// TryNotify appends the report and reports the failure, implementing the
// shard runtime's FallibleSink interface: a failing append (disk full,
// closed store) is retried by the delivery loop instead of being
// swallowed, and the alert stays in the runtime's commit log until it
// lands. The error counter still advances for Errors().
func (s *Sink) TryNotify(r *core.Report) error {
	_, err := s.Store.Append(r)
	if err != nil {
		s.mu.Lock()
		s.errors++
		s.mu.Unlock()
	}
	return err
}

// Errors returns the count of failed appends.
func (s *Sink) Errors() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errors
}
