package broker

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk record frame: a fixed 8-byte header — little-endian uint32
// payload length, little-endian uint32 CRC32C (Castagnoli) of the payload
// — followed by the payload bytes. A reader that finds a frame whose
// length is implausible, whose bytes run past end-of-file, or whose CRC
// disagrees has hit either a torn tail (crash mid-append) or corruption;
// recovery truncates the former and refuses the latter.
const frameHeader = 8

// segSuffix names WAL segment files: <base offset, 20 digits>.wal, so a
// lexical sort of the directory is an offset sort.
const segSuffix = ".wal"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segment is one append-only WAL file. base is the offset (1-based,
// broker-wide) of its first record; recs and size track its valid
// contents. The highest-base segment is the active one; all others are
// sealed and immutable.
type segment struct {
	base uint64
	recs uint64
	size int64
	path string
}

// last returns the offset of the segment's final record (only meaningful
// when recs > 0).
func (s *segment) last() uint64 { return s.base + s.recs - 1 }

// segmentPath renders the canonical file name for a segment starting at
// base.
func segmentPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d%s", base, segSuffix))
}

// parseSegmentBase extracts the base offset from a segment file name.
func parseSegmentBase(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	base, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// listSegments discovers the WAL files in dir, sorted by base offset.
func listSegments(dir string) ([]*segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("broker: listing %s: %w", dir, err)
	}
	var segs []*segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		base, ok := parseSegmentBase(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, &segment{base: base, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// HoldsLog reports whether dir itself holds a broker's files — WAL
// segments or a consumer-offsets table — so a caller that keeps its logs
// in subdirectories can refuse a directory that is one. A directory that
// does not exist holds nothing.
func HoldsLog(dir string) (bool, error) {
	segs, err := listSegments(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil || len(segs) > 0 {
		return len(segs) > 0, err
	}
	if _, err = os.Stat(offsetsPath(dir)); errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

// appendFrame frames one payload onto buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return append(append(buf, hdr[:]...), payload...)
}

// readFrame reads and verifies one record. io.EOF means a clean end of
// the stream (no header bytes at all); every other failure — short
// header, implausible length, short payload, CRC mismatch — is reported
// as a distinct error so recovery can decide between truncation and
// refusal.
func readFrame(r *bufio.Reader, maxRecord int) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("broker: torn frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if int64(n) > int64(maxRecord) {
		return nil, fmt.Errorf("broker: frame length %d exceeds record limit %d (corrupt header)", n, maxRecord)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("broker: torn frame payload: %w", err)
	}
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("broker: frame checksum mismatch (got %08x want %08x)", got, want)
	}
	return payload, nil
}

// scanSegment walks a segment file from the start, verifying every frame.
// It returns the number of valid records and the byte length of the valid
// prefix; valid < file size means the tail is torn or corrupt, and scanErr
// carries the frame error that stopped the scan (nil on a clean read to
// EOF).
func scanSegment(path string, maxRecord int) (recs uint64, valid int64, scanErr error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("broker: opening segment %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		payload, ferr := readFrame(r, maxRecord)
		if ferr == io.EOF {
			return recs, valid, nil, nil
		}
		if ferr != nil {
			return recs, valid, ferr, nil
		}
		recs++
		valid += frameHeader + int64(len(payload))
	}
}
