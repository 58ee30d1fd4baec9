package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"logsynergy/internal/framelog"
)

// A WAL segment is a framelog file: recovery scans it with framelog.Scan,
// which stops at a torn tail and counts only the whole records before it.
func TestScanSegmentTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.wal")
	var buf []byte
	for _, p := range []string{"one", "two", "three"} {
		buf = framelog.Append(buf, []byte(p))
	}
	validLen := int64(len(buf))
	// A torn tail: a header promising 100 bytes followed by only 4.
	var hdr [framelog.HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 100)
	buf = append(buf, hdr[:]...)
	buf = append(buf, 'x', 'x', 'x', 'x')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, valid, scanErr, err := framelog.Scan(path, 1<<20, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if recs != 3 || valid != validLen {
		t.Fatalf("recs=%d valid=%d, want 3/%d", recs, valid, validLen)
	}
	if scanErr == nil || !strings.Contains(scanErr.Error(), "torn frame payload") {
		t.Fatalf("scanErr = %v, want torn frame payload", scanErr)
	}
}

func TestScanSegmentClean(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.wal")
	var buf []byte
	for i := 0; i < 5; i++ {
		buf = framelog.Append(buf, []byte("record"))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, valid, scanErr, err := framelog.Scan(path, 1<<20, func([]byte) {})
	if err != nil || scanErr != nil {
		t.Fatalf("err=%v scanErr=%v", err, scanErr)
	}
	if recs != 5 || valid != int64(len(buf)) {
		t.Fatalf("recs=%d valid=%d", recs, valid)
	}
}

func TestSegmentNaming(t *testing.T) {
	dir := t.TempDir()
	p := segmentPath(dir, 42)
	base, ok := parseSegmentBase(filepath.Base(p))
	if !ok || base != 42 {
		t.Fatalf("roundtrip of %s: base=%d ok=%v", p, base, ok)
	}
	for _, bad := range []string{"x.wal", "123.txt", "offsets.json", ".wal"} {
		if _, ok := parseSegmentBase(bad); ok {
			t.Fatalf("parseSegmentBase(%q) accepted", bad)
		}
	}

	// listSegments sorts by base offset, not lexically-by-accident.
	for _, base := range []uint64{300, 1, 42, 25} {
		if err := os.WriteFile(segmentPath(dir, base), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	os.WriteFile(filepath.Join(dir, "offsets.json"), []byte("{}"), 0o644)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bases []uint64
	for _, s := range segs {
		bases = append(bases, s.base)
	}
	want := []uint64{1, 25, 42, 300}
	if len(bases) != len(want) {
		t.Fatalf("bases %v, want %v", bases, want)
	}
	for i := range want {
		if bases[i] != want[i] {
			t.Fatalf("bases %v, want %v", bases, want)
		}
	}
}

// readLogFixture writes n records over several small segments and returns
// the directory with its segments, oldest first.
func readLogFixture(t *testing.T, n int) (string, []*segment) {
	t.Helper()
	dir := t.TempDir()
	b, _ := openTest(t, dir, func(c *Config) { c.SegmentBytes = 128 })
	for i := 1; i <= n; i++ {
		if _, err := b.Append(fmt.Sprintf("read log record %04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want three segments or more, got %d (%v)", len(segs), err)
	}
	return dir, segs
}

// readLog collects what ReadLog hands fn, as "offset:payload".
func readLog(dir string, each func(off uint64)) ([]string, error) {
	var got []string
	err := ReadLog(dir, func(off uint64, p []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", off, p))
		if each != nil {
			each(off)
		}
		return nil
	})
	return got, err
}

// ReadLog reads a log as a broker would replay it, offsets included, and
// stops quietly at a torn frame on the newest segment's end — an append in
// flight — leaving the file as it found it. The same tear in an older
// segment is damage, refused by file and byte.
func TestReadLogTornTail(t *testing.T) {
	dir, segs := readLogFixture(t, 30)
	var hdr [framelog.HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 64)
	torn := append(hdr[:], "half"...)
	newest := segs[len(segs)-1].path
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(newest)

	got, err := readLog(dir, nil)
	if err != nil {
		t.Fatalf("ReadLog over a torn tail: %v", err)
	}
	if len(got) != 30 || got[0] != "1:read log record 0001" || got[29] != "30:read log record 0030" {
		t.Fatalf("ReadLog read %d records: %v", len(got), got)
	}
	if after, _ := os.Stat(newest); after.Size() != before.Size() {
		t.Fatalf("ReadLog changed the newest segment: %d → %d bytes", before.Size(), after.Size())
	}

	sealed := segs[0].path
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sealed, append(data, torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = readLog(dir, nil)
	if want := fmt.Sprintf("%s at byte %d", sealed, len(data)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadLog over a torn sealed segment: %v, want an error naming %q", err, want)
	}
}

// A corrupt frame is refused naming the file and the byte it starts at,
// wherever it sits, after the records before it were read.
func TestReadLogCorruptFrame(t *testing.T) {
	dir, segs := readLogFixture(t, 30)
	newest := segs[len(segs)-1].path
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[framelog.HeaderSize+2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readLog(dir, nil)
	if want := newest + " at byte 0"; err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, framelog.ErrCorrupt) {
		t.Fatalf("ReadLog over a corrupt frame: %v, want ErrCorrupt naming %q", err, want)
	}
	if uint64(len(got)) != segs[len(segs)-1].base-1 {
		t.Fatalf("read %d records before the corrupt segment, want %d", len(got), segs[len(segs)-1].base-1)
	}
}

// A segment retention deletes after ReadLog listed the directory is
// skipped; the records after it keep their offsets.
func TestReadLogVanishedSegment(t *testing.T) {
	dir, segs := readLogFixture(t, 30)
	gone := segs[1]
	got, err := readLog(dir, func(off uint64) {
		if off == segs[0].base {
			if err := os.Remove(gone.path); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err != nil {
		t.Fatalf("ReadLog past a vanished segment: %v", err)
	}
	var want []string
	for i := 1; i <= 30; i++ {
		if uint64(i) < gone.base || uint64(i) >= segs[2].base {
			want = append(want, fmt.Sprintf("%d:read log record %04d", i, i))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadLog read %v, want %v", got, want)
	}
}
