package framelog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFrameGolden pins the on-disk bytes: WAL segments written before the
// framing moved into this package must keep reading back.
func TestFrameGolden(t *testing.T) {
	for payload, want := range map[string]string{
		"logsynergy": "0a000000" + "a0df2fe2" + hex.EncodeToString([]byte("logsynergy")),
		"":           "00000000" + "00000000",
	} {
		if got := hex.EncodeToString(Append(nil, []byte(payload))); got != want {
			t.Errorf("Append(%q) = %s, want %s", payload, got, want)
		}
	}
}

func TestFrameRoundtrip(t *testing.T) {
	payloads := []string{"", "a", "hello world", strings.Repeat("x", 4096)}
	var buf []byte
	for _, p := range payloads {
		buf = Append(buf, []byte(p))
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range payloads {
		got, err := Read(r, 1<<20)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
	}
	if _, err := Read(r, 1<<20); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	good := Append(nil, []byte("payload"))

	cases := []struct {
		name  string
		data  []byte
		class error
		want  string
	}{
		{"torn header", good[:5], ErrTorn, "torn frame header"},
		{"torn payload", good[:HeaderSize+3], ErrTorn, "torn frame payload"},
		{"crc mismatch", func() []byte {
			b := append([]byte(nil), good...)
			b[HeaderSize] ^= 0xff
			return b
		}(), ErrCorrupt, "checksum mismatch"},
		{"implausible length", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[0:4], 1<<30)
			return b
		}(), ErrCorrupt, "exceeds record limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bufio.NewReader(bytes.NewReader(tc.data)), 1<<20)
			if !errors.Is(err, tc.class) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want %v containing %q", err, tc.class, tc.want)
			}
		})
	}
}

// FuzzScan: on any file Scan stops at a frame boundary. The valid prefix
// scans clean to the same payloads, and one frame appended to it reads
// back as exactly one more record.
func FuzzScan(f *testing.F) {
	frames := Append(Append(nil, []byte("one")), []byte("two"))
	f.Add([]byte{})
	f.Add(frames)
	f.Add(frames[:len(frames)-2])
	f.Add(frames[:len(frames)-HeaderSize])
	f.Add(append(append([]byte(nil), frames...), 0xff, 0xff, 0, 0, 1, 2, 3, 4, 5))
	f.Add([]byte(`{"id":1,"report":{"system":"A"}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRecord = 1 << 12
		dir := t.TempDir()
		scan := func(name string, data []byte) (payloads [][]byte, valid int64, stop error) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			recs, valid, stop, err := Scan(path, maxRecord, func(p []byte) { payloads = append(payloads, p) })
			if err != nil {
				t.Fatal(err)
			}
			if recs != uint64(len(payloads)) {
				t.Fatalf("Scan counted %d records but passed %d", recs, len(payloads))
			}
			return payloads, valid, stop
		}

		got, valid, stop := scan("input", data)
		if valid > int64(len(data)) || (stop == nil) != (valid == int64(len(data))) {
			t.Fatalf("valid %d of %d bytes, stop %v", valid, len(data), stop)
		}
		if stop != nil && !errors.Is(stop, ErrTorn) && !errors.Is(stop, ErrCorrupt) {
			t.Fatalf("stop %v is neither torn nor corrupt", stop)
		}

		prefix := data[:valid]
		again, valid2, stop2 := scan("prefix", prefix)
		if stop2 != nil || valid2 != valid || len(again) != len(got) {
			t.Fatalf("rescan of the valid prefix: %d records, valid %d, stop %v; want %d, %d, nil", len(again), valid2, stop2, len(got), valid)
		}
		for i := range got {
			if !bytes.Equal(again[i], got[i]) {
				t.Fatalf("record %d: %q on rescan, %q first", i, again[i], got[i])
			}
		}

		grown, _, stop3 := scan("grown", Append(append([]byte(nil), prefix...), []byte("fresh")))
		if stop3 != nil || len(grown) != len(got)+1 || string(grown[len(got)]) != "fresh" {
			t.Fatalf("prefix plus one frame: %d records, stop %v; want %d ending in the new one", len(grown), stop3, len(got)+1)
		}
	})
}
