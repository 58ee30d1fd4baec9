package broker

import (
	"encoding/binary"
	"os"
	"path/filepath"
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
