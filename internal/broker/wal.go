package broker

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"logsynergy/internal/framelog"
)

// segSuffix names WAL segment files: <base offset, 20 digits>.wal, so a
// lexical sort of the directory is an offset sort. A segment is a framelog
// file, one frame per record.
const segSuffix = ".wal"

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

// ReadLog calls fn with the offset and payload of every record in the log
// directory dir, oldest first, without opening a broker: it recovers,
// truncates and locks nothing, so it may read beside the broker appending
// to dir. A torn frame at the newest segment's end — an append in flight,
// or a crash's leftover the next Open cuts — ends the read; a segment
// retention deleted after the listing is skipped; a torn frame anywhere
// else, or a corrupt one, is refused by file and byte. An error fn returns
// ends the read and is returned as it is.
func ReadLog(dir string, fn func(off uint64, payload []byte) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		off := seg.base
		var fnErr error
		_, valid, stop, err := framelog.Scan(seg.path, MaxRecordBytes, func(p []byte) {
			if fnErr == nil {
				fnErr = fn(off, p)
			}
			off++
		})
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			return fmt.Errorf("broker: reading %s: %w", seg.path, err)
		case fnErr != nil:
			return fnErr
		case stop == nil || (errors.Is(stop, framelog.ErrTorn) && i == len(segs)-1):
		default:
			return fmt.Errorf("broker: %s at byte %d: %w", seg.path, valid, stop)
		}
	}
	return nil
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
