// Package alertstore provides durable storage for anomaly reports: an
// append-only JSONL log with an in-memory index, crash-tolerant reopen,
// time-range and system queries, and compaction. The production workflow
// (§VI) routes every alert to operators; a deployment also needs the
// alert history on disk for audits, post-mortems and the §VI-C
// false-positive/false-negative analysis — this package is that history.
package alertstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"logsynergy/internal/atomicfile"
	"logsynergy/internal/core"
)

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
	w       *bufio.Writer
	records []Record // in-memory index, append order
	nextID  uint64
	// torn is set when replay found bytes after the last newline: a
	// record torn mid-write. The first write cuts the file to tornAt.
	torn   bool
	tornAt int64
	// Sync forces an fsync after every append (durability over speed).
	Sync bool
}

// Open opens (or creates) a store at path, replaying existing records.
// Open never changes an existing file, so a read-only use (`alerts list`,
// even against a live store) leaves it as it was. A torn last line — bytes
// after the last newline, the signature of a crash mid-write — is not
// loaded, and the first write cuts it off so the new record starts a line
// of its own. A complete line that does not decode is skipped.
func Open(path string) (*Store, error) {
	s := &Store{path: path, nextID: 1}
	if err := s.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("alertstore: opening %s: %w", path, err)
	}
	s.file = f
	s.w = bufio.NewWriter(f)
	return s, nil
}

// replay loads existing records into the index and notes a torn tail.
func (s *Store) replay() error {
	f, err := os.Open(s.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("alertstore: replaying %s: %w", s.path, err)
	}
	defer f.Close()
	rd := bufio.NewReader(f)
	index := make(map[uint64]int)
	var off int64
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			// An unterminated last line is torn even if it decodes: the
			// append that wrote it never returned.
			s.torn, s.tornAt = len(line) > 0, off
			return nil
		}
		if err != nil {
			return fmt.Errorf("alertstore: replaying %s: %w", s.path, err)
		}
		off += int64(len(line))
		r, ok := decodeLine(line)
		if !ok {
			continue
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
	}
}

// recordStart opens every encoded Record: ID is its first field, and no
// field of core.Report is named "id".
var recordStart = []byte(`{"id":`)

// decodeLine decodes one complete log line. A store written before torn
// tails were cut can hold a torn fragment with the next record appended
// onto the same line; that record is salvaged from the line's last
// recordStart.
func decodeLine(line []byte) (Record, bool) {
	var r Record
	if json.Unmarshal(line, &r) == nil {
		return r, true
	}
	i := bytes.LastIndex(line, recordStart)
	if i <= 0 {
		return Record{}, false
	}
	var salvaged Record
	if json.Unmarshal(line[i:], &salvaged) != nil {
		return Record{}, false
	}
	return salvaged, true
}

// cutTornTail cuts a torn last line off the file before the first write.
// The caller holds s.mu.
func (s *Store) cutTornTail() error {
	if !s.torn {
		return nil
	}
	if err := s.file.Truncate(s.tornAt); err != nil {
		return fmt.Errorf("alertstore: cutting torn tail of %s: %w", s.path, err)
	}
	s.torn = false
	return nil
}

// Append stores one report and returns its record.
func (s *Store) Append(rep *core.Report) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.cutTornTail(); err != nil {
		return Record{}, err
	}
	rec := Record{ID: s.nextID, Report: *rep, StoredAt: time.Now().UTC()}
	line, err := json.Marshal(rec)
	if err != nil {
		return Record{}, fmt.Errorf("alertstore: encoding record: %w", err)
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return Record{}, fmt.Errorf("alertstore: appending: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		return Record{}, fmt.Errorf("alertstore: flushing: %w", err)
	}
	if s.Sync {
		if err := s.file.Sync(); err != nil {
			return Record{}, fmt.Errorf("alertstore: syncing: %w", err)
		}
	}
	s.nextID++
	s.records = append(s.records, rec)
	return rec, nil
}

// Close flushes and closes the underlying file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
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
			if err := s.cutTornTail(); err != nil {
				return false, err
			}
			s.records[i].Acknowledged = true
			line, err := json.Marshal(s.records[i])
			if err != nil {
				return false, err
			}
			if _, err := s.w.Write(append(line, '\n')); err != nil {
				return false, err
			}
			return true, s.w.Flush()
		}
	}
	return false, nil
}

// Compact rewrites the log keeping only records matching keep (nil keeps
// everything, deduplicating superseded record versions). The store stays
// usable afterwards.
func (s *Store) Compact(keep func(Record) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Deduplicate by id (last version wins), preserving append order.
	last := make(map[uint64]int, len(s.records))
	for i, r := range s.records {
		last[r.ID] = i
	}
	var kept []Record
	for i, r := range s.records {
		if last[r.ID] != i {
			continue
		}
		if keep == nil || keep(r) {
			kept = append(kept, r)
		}
	}

	var buf bytes.Buffer
	for _, r := range kept {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	// The durable install whether or not Sync is set: with it set, the
	// compacted log must be no less durable than the records it replaces.
	// Every append is flushed before it returns, so the old handle holds
	// nothing the compacted log lacks; it is swapped only once the install
	// and the reopen succeeded, so a failure leaves the store as it was.
	if err := atomicfile.Write(s.path, buf.Bytes()); err != nil {
		return fmt.Errorf("alertstore: swapping compacted log: %w", err)
	}
	nf, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.file.Close()
	s.file = nf
	s.w = bufio.NewWriter(nf)
	s.records = kept
	s.torn = false // the rewrite dropped the torn tail with the rest
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
// pipeline's FallibleSink interface: a failing append (disk full, closed
// store) feeds the pipeline's retry loop and circuit breaker instead of
// being swallowed, and terminally failed reports spill rather than
// vanish. The error counter still advances for Errors().
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
