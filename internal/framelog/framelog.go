// Package framelog is the repo's one append format: a file is a sequence
// of CRC-checked frames, each an 8-byte header — little-endian uint32
// payload length, then little-endian uint32 CRC32C (Castagnoli) of the
// payload — followed by the payload bytes. The broker's WAL segments and
// the alert store are written this way.
//
// A reader tells the two ways a frame can be bad apart. A frame cut short
// (ErrTorn) is the signature of a crash mid-append: it can only be the
// last thing in the file, and its owner cuts it off. A frame whose length
// is implausible or whose checksum disagrees (ErrCorrupt) is damage, or a
// file that was never framed; its owner refuses it.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// HeaderSize is the byte length of a frame header.
const HeaderSize = 8

var (
	// ErrTorn marks a frame whose header or payload runs past the end of
	// the stream ("torn frame header", "torn frame payload").
	ErrTorn = errors.New("torn frame")
	// ErrCorrupt marks a frame whose length exceeds the record limit or
	// whose checksum does not match its payload.
	ErrCorrupt = errors.New("corrupt frame")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Append frames one payload onto buf.
func Append(buf, payload []byte) []byte {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return append(append(buf, hdr[:]...), payload...)
}

// Read reads and verifies one frame. It returns io.EOF at a clean end of
// the stream (no header bytes at all); any other failure wraps ErrTorn or
// ErrCorrupt.
func Read(r *bufio.Reader, maxRecord int) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("framelog: %w header: %w", ErrTorn, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if int64(n) > int64(maxRecord) {
		return nil, fmt.Errorf("framelog: %w: length %d exceeds record limit %d", ErrCorrupt, n, maxRecord)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("framelog: %w payload: %w", ErrTorn, err)
	}
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("framelog: %w: checksum mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return payload, nil
}

// Scan reads the file at path from the start, calling fn with every valid
// frame's payload in order. It returns the number of valid frames and the
// byte length of the valid prefix; stop is the Read error that ended the
// scan before the end of the file (nil on a clean read to EOF), and err
// reports a file that could not be read at all.
func Scan(path string, maxRecord int, fn func(payload []byte)) (records uint64, valid int64, stop, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		payload, ferr := Read(r, maxRecord)
		if ferr == io.EOF {
			return records, valid, nil, nil
		}
		if ferr != nil {
			return records, valid, ferr, nil
		}
		fn(payload)
		records++
		valid += HeaderSize + int64(len(payload))
	}
}
