package alertstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"logsynergy/internal/core"
	"logsynergy/internal/framelog"
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
	path := filepath.Join(t.TempDir(), "alerts.log")
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

// tear appends the first n bytes of a further record's frame to the store
// file, as a crash mid-write leaves them.
func tear(t *testing.T, path string, n int) {
	t.Helper()
	payload, err := json.Marshal(Record{ID: 99, Report: *report("A", 0.5, time.Now().UTC())})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(framelog.Append(nil, payload)[:n]); err != nil {
		t.Fatal(err)
	}
}

// readFile returns the store file's bytes.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTornTailDropped(t *testing.T) {
	s, path := openTemp(t)
	at := time.Now().UTC()
	s.Append(report("A", 0.9, at))
	s.Append(report("A", 0.8, at))
	s.Close()
	// Simulate a crash mid-append: half a frame header.
	tear(t, path, framelog.HeaderSize/2)

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

// TestAppendAfterTornTailSurvivesReopen: three records plus half a frame
// load as three, Open leaves the file as it was, and a record appended
// afterwards lands in place of the fragment rather than behind it, where
// every later reopen would find a corrupt frame.
func TestAppendAfterTornTailSurvivesReopen(t *testing.T) {
	s, path := openTemp(t)
	at := time.Now().UTC()
	for i := 0; i < 3; i++ {
		s.Append(report("A", 0.9, at))
	}
	s.Close()
	tear(t, path, 40)
	before := readFile(t, path)

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("torn store loaded %d records, want 3", s2.Len())
	}
	if after := readFile(t, path); !bytes.Equal(before, after) {
		t.Fatal("Open changed a torn store")
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

// TestOpenLeavesFileUnchanged: Open and a read never change a store with a
// torn tail — it may be a live writer's in-flight frame.
func TestOpenLeavesFileUnchanged(t *testing.T) {
	s, path := openTemp(t)
	s.Append(report("A", 0.9, time.Now().UTC()))
	s.Close()
	tear(t, path, 20)

	before := readFile(t, path)
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
	if after := readFile(t, path); !bytes.Equal(before, after) {
		t.Fatalf("open+read changed the store:\n%q\n%q", before, after)
	}
}

// TestForeignFileRefused: a file that is no framed store — a JSON-lines
// store from before the framing, a model bundle passed as -store — is
// refused by name and left byte-identical.
func TestForeignFileRefused(t *testing.T) {
	var jsonLines []byte
	for id := uint64(1); id <= 3; id++ {
		line, err := json.Marshal(Record{ID: id, Report: *report("A", 0.9, time.Now().UTC())})
		if err != nil {
			t.Fatal(err)
		}
		jsonLines = append(append(jsonLines, line...), '\n')
	}
	bundle := []byte(`{"config":{"embed_dim":24},"num_systems":2,"system":"Thunderbird"}` + "\n#lsbundle v1 crc32c=00000000\n")

	for name, data := range map[string][]byte{"alerts.jsonl": jsonLines, "model.json": bundle} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			s.Close()
			t.Fatalf("%s opened as an alert store", name)
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "not a framed alert store") {
			t.Errorf("%s: error %q does not name the file as no framed store", name, err)
		}
		if after := readFile(t, path); !bytes.Equal(data, after) {
			t.Fatalf("%s changed by a refused Open", name)
		}
	}
}

// TestCorruptFrameRefused: a bit flip inside the second of three frames is
// damage, not a torn tail; Open refuses, names the frame's offset, and
// leaves the file alone.
func TestCorruptFrameRefused(t *testing.T) {
	s, path := openTemp(t)
	at := time.Now().UTC()
	first, _ := s.Append(report("A", 0.9, at))
	s.Append(report("A", 0.8, at))
	s.Append(report("A", 0.7, at))
	s.Close()

	payload, _ := json.Marshal(first)
	second := framelog.HeaderSize + len(payload)
	data := readFile(t, path)
	data[second+framelog.HeaderSize+5] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := Open(path)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("at byte %d:", second)) || !errors.Is(err, framelog.ErrCorrupt) {
		t.Fatalf("Open = %v, want a corrupt frame at byte %d", err, second)
	}
	if after := readFile(t, path); !bytes.Equal(data, after) {
		t.Fatal("a refused Open changed the file")
	}
}

// TestFailedWriteCutBeforeNextAppend: an append whose write fails may leave
// part of its frame on disk. The next append cuts it off first, so the
// fragment never ends up mid-file and every acknowledged record survives
// a reopen.
func TestFailedWriteCutBeforeNextAppend(t *testing.T) {
	s, path := openTemp(t)
	at := time.Now().UTC()
	for i := 0; i < 2; i++ {
		if _, err := s.Append(report("A", 0.9, at)); err != nil {
			t.Fatal(err)
		}
	}

	// The failing write: the store's handle refuses writes, while the
	// bytes a short write would have left reach the file another way.
	writable := s.file
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.file = ro
	tear(t, path, 30)
	if _, err := s.Append(report("A", 0.8, at)); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	s.file = writable
	ro.Close()

	if _, err := s.Append(report("A", 0.7, at)); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Acknowledge(1); !ok || err != nil {
		t.Fatalf("ack #1: %v %v", ok, err)
	}
	want := s.Find(Query{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after a failed write: %v", err)
	}
	defer s2.Close()
	got := s2.Find(Query{})
	if len(got) != len(want) || len(got) != 3 || !got[0].Acknowledged {
		t.Fatalf("reopen holds %d records (ack #1 %v), want the 3 acknowledged by the store", len(got), len(got) > 0 && got[0].Acknowledged)
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Report.Score != want[i].Report.Score {
			t.Fatalf("record %d reopened as #%d score %v, want #%d score %v", i, got[i].ID, got[i].Report.Score, want[i].ID, want[i].Report.Score)
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
	if _, err := Open("/nonexistent-dir-xyz/alerts.log"); err == nil {
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
