package alertstore

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"logsynergy/internal/core"
)

func report(system string, score float64, at time.Time) *core.Report {
	return &core.Report{
		System:          system,
		Timestamp:       at,
		Score:           score,
		EventIDs:        []int{1, 2, 3},
		Templates:       []string{"a", "b", "c"},
		Interpretations: []string{"ia", "ib", "ic"},
	}
}

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "alerts.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func TestAppendAndFind(t *testing.T) {
	s, _ := openTemp(t)
	base := time.Date(2023, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		sys := "A"
		if i%2 == 1 {
			sys = "B"
		}
		if _, err := s.Append(report(sys, 0.5+float64(i)*0.1, base.Add(time.Duration(i)*time.Hour))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("len %d", s.Len())
	}
	if got := s.Find(Query{System: "A"}); len(got) != 3 {
		t.Fatalf("system filter: %d", len(got))
	}
	if got := s.Find(Query{MinScore: 0.85}); len(got) != 1 {
		t.Fatalf("score filter: %d", len(got))
	}
	got := s.Find(Query{From: base.Add(90 * time.Minute), To: base.Add(200 * time.Minute)})
	if len(got) != 2 {
		t.Fatalf("time filter: %d", len(got))
	}
	if got := s.Find(Query{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit: %d", len(got))
	}
}

func TestReopenRecovers(t *testing.T) {
	s, path := openTemp(t)
	at := time.Date(2023, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		s.Append(report("A", 0.9, at))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("recovered %d records, want 3", s2.Len())
	}
	rec, err := s2.Append(report("A", 0.7, at))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != 4 {
		t.Fatalf("id continuity broken: %d", rec.ID)
	}
}

func TestTornTailDropped(t *testing.T) {
	s, path := openTemp(t)
	at := time.Now().UTC()
	s.Append(report("A", 0.9, at))
	s.Append(report("A", 0.8, at))
	s.Close()
	// Simulate a crash mid-append: garbage trailing bytes.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"id":3,"report":{"sys`)
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("want 2 intact records, got %d", s2.Len())
	}
	if rec, _ := s2.Append(report("A", 0.6, at)); rec.ID != 3 {
		t.Fatalf("next id %d want 3", rec.ID)
	}
}

// TestAppendAfterTornTailSurvivesReopen: a record appended after a torn
// line must not land on the fragment's line, or every later reopen stops
// replay there and the record is lost for good.
func TestAppendAfterTornTailSurvivesReopen(t *testing.T) {
	s, path := openTemp(t)
	at := time.Now().UTC()
	for i := 0; i < 3; i++ {
		s.Append(report("A", 0.9, at))
	}
	s.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"id":4,"report":{"system":"A","sc`)
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Append(report("A", 0.7, at)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 4 {
		t.Fatalf("reopen after append past a torn tail: %d records, want 4", s3.Len())
	}
}

// TestUnterminatedLastLineIsTorn: a last record cut just before its
// newline decodes but is still torn; it is dropped, and its id reused.
func TestUnterminatedLastLineIsTorn(t *testing.T) {
	s, path := openTemp(t)
	at := time.Now().UTC()
	s.Append(report("A", 0.9, at))
	s.Append(report("A", 0.8, at))
	s.Close()
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-1], 0o644)

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("want 1 intact record, got %d", s2.Len())
	}
	if rec, _ := s2.Append(report("A", 0.6, at)); rec.ID != 2 {
		t.Fatalf("next id %d want 2", rec.ID)
	}
	s2.Close()
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("reopen: %d records, want 2", s3.Len())
	}
}

// TestMergedFragmentLineRecovered: a store damaged before torn tails were
// cut holds a fragment with the next record appended onto its line, then
// more records. Replay skips the fragment, salvages the merged record and
// keeps going.
func TestMergedFragmentLineRecovered(t *testing.T) {
	s, path := openTemp(t)
	at := time.Now().UTC()
	for i := 0; i < 5; i++ {
		s.Append(report("A", 0.9, at))
	}
	s.Close()
	data, _ := os.ReadFile(path)
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Lines 0-1 intact; a fragment of a record glued in front of line 2;
	// lines 3-4 intact after it.
	var damaged []byte
	damaged = append(damaged, lines[0]...)
	damaged = append(damaged, lines[1]...)
	damaged = append(damaged, lines[2][:20]...)
	for _, l := range lines[2:] {
		damaged = append(damaged, l...)
	}
	os.WriteFile(path, damaged, 0o644)

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("replay past a merged fragment line: %d records, want 5", s2.Len())
	}
	if rec, _ := s2.Append(report("A", 0.6, at)); rec.ID != 6 {
		t.Fatalf("next id %d want 6", rec.ID)
	}
}

// TestOpenLeavesFileUnchanged: Open and a read never change the file — not
// a store with a torn tail (it may be a live writer's in-flight line), and
// not a file that is no store at all (a mistyped -store path).
func TestOpenLeavesFileUnchanged(t *testing.T) {
	s, torn := openTemp(t)
	s.Append(report("A", 0.9, time.Now().UTC()))
	s.Close()
	f, _ := os.OpenFile(torn, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"id":2,"report":{"Sys`)
	f.Close()

	other := filepath.Join(t.TempDir(), "model.json")
	os.WriteFile(other, []byte("not a store\n#lsbundle v1 crc32c=00000000"), 0o644)

	for _, path := range []string{torn, other} {
		before, _ := os.ReadFile(path)
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		s.Find(Query{})
		if ok, _ := s.Acknowledge(99); ok {
			t.Fatal("unknown id must not acknowledge")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
			t.Fatalf("%s changed by open+read:\n%q\n%q", filepath.Base(path), before, after)
		}
	}
}

func TestAcknowledgePersists(t *testing.T) {
	s, path := openTemp(t)
	at := time.Now().UTC()
	rec, _ := s.Append(report("A", 0.9, at))
	s.Append(report("A", 0.8, at))

	ok, err := s.Acknowledge(rec.ID)
	if err != nil || !ok {
		t.Fatalf("ack failed: %v %v", ok, err)
	}
	if open := s.Find(Query{UnacknowledgedOnly: true}); len(open) != 1 {
		t.Fatalf("open alerts: %d", len(open))
	}
	if ok, _ := s.Acknowledge(999); ok {
		t.Fatal("unknown id must not acknowledge")
	}
	s.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("replay with superseded versions: %d records", s2.Len())
	}
	if open := s2.Find(Query{UnacknowledgedOnly: true}); len(open) != 1 {
		t.Fatalf("ack not persisted: %d open", len(open))
	}
}

func TestCompact(t *testing.T) {
	s, path := openTemp(t)
	at := time.Now().UTC()
	for i := 0; i < 10; i++ {
		rec, _ := s.Append(report("A", 0.5+float64(i)*0.05, at))
		if i < 5 {
			s.Acknowledge(rec.ID)
		}
	}
	// Drop acknowledged alerts.
	if err := s.Compact(func(r Record) bool { return !r.Acknowledged }); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 {
		t.Fatalf("after compaction: %d", s.Len())
	}
	// Store still writable post-compaction.
	if _, err := s.Append(report("A", 0.99, at)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 6 {
		t.Fatalf("compacted file reload: %d", s2.Len())
	}
}

func TestConcurrentAppends(t *testing.T) {
	s, _ := openTemp(t)
	at := time.Now().UTC()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := s.Append(report("A", 0.9, at)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 200 {
		t.Fatalf("concurrent appends lost records: %d", s.Len())
	}
	seen := map[uint64]bool{}
	for _, r := range s.Find(Query{}) {
		if seen[r.ID] {
			t.Fatalf("duplicate id %d", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestSinkCollectsReports(t *testing.T) {
	s, _ := openTemp(t)
	sink := NewSink(s)
	sink.Notify(report("A", 0.9, time.Now()))
	sink.Notify(report("A", 0.95, time.Now()))
	if s.Len() != 2 || sink.Errors() != 0 {
		t.Fatalf("sink stored %d, errors %d", s.Len(), sink.Errors())
	}
}

func TestOpenBadDirectory(t *testing.T) {
	if _, err := Open("/nonexistent-dir-xyz/alerts.jsonl"); err == nil {
		t.Fatal("unwritable path must error")
	}
}

func TestSyncModeAppend(t *testing.T) {
	s, _ := openTemp(t)
	s.Sync = true
	if _, err := s.Append(report("A", 0.9, time.Now())); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatal("sync append lost the record")
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close must be a no-op")
	}
}

func TestQueryEmptyStore(t *testing.T) {
	s, _ := openTemp(t)
	if got := s.Find(Query{System: "X"}); len(got) != 0 {
		t.Fatalf("empty store returned %d records", len(got))
	}
}
