package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/alertstore"
	"logsynergy/internal/core"
)

// seed writes a store of four alerts, #2 acknowledged, and returns its path.
func seed(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "alerts.log")
	s, err := alertstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2023, 5, 1, 12, 0, 0, 0, time.UTC)
	for i, r := range []struct {
		system string
		score  float64
	}{{"SystemA", 0.95}, {"SystemB", 0.91}, {"SystemA", 0.62}, {"SystemB", 0.99}} {
		rep := &core.Report{System: r.system, Score: r.score, Timestamp: at.Add(time.Duration(i) * time.Hour)}
		if _, err := s.Append(rep); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := s.Acknowledge(2); !ok || err != nil {
		t.Fatalf("ack #2: %v %v", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// alerts runs the command and returns its stdout.
func alerts(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("alerts %v: %v (stderr %q)", args, err, stderr.String())
	}
	return stdout.String()
}

func TestList(t *testing.T) {
	path := seed(t)
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{nil, "#1 SystemA score=0.950 2023-05-01T12:00:00 [open]\n" +
			"#2 SystemB score=0.910 2023-05-01T13:00:00 [acked]\n" +
			"#3 SystemA score=0.620 2023-05-01T14:00:00 [open]\n" +
			"#4 SystemB score=0.990 2023-05-01T15:00:00 [open]\n"},
		{[]string{"-system", "SystemB"}, "#2 SystemB score=0.910 2023-05-01T13:00:00 [acked]\n" +
			"#4 SystemB score=0.990 2023-05-01T15:00:00 [open]\n"},
		{[]string{"-min-score", "0.9", "-open"}, "#1 SystemA score=0.950 2023-05-01T12:00:00 [open]\n" +
			"#4 SystemB score=0.990 2023-05-01T15:00:00 [open]\n"},
		{[]string{"-limit", "1"}, "#1 SystemA score=0.950 2023-05-01T12:00:00 [open]\n"},
	} {
		args := append([]string{"-store", path, "list"}, c.flags...)
		if got := alerts(t, args...); got != c.want {
			t.Errorf("list %v:\n%s\nwant:\n%s", c.flags, got, c.want)
		}
	}
}

func TestAck(t *testing.T) {
	path := seed(t)
	if got := alerts(t, "-store", path, "ack", "-id", "3"); got != "acknowledged #3\n" {
		t.Fatalf("ack #3: %q", got)
	}
	if got := alerts(t, "-store", path, "list", "-open"); strings.Count(got, "\n") != 2 || strings.Contains(got, "#3 ") {
		t.Fatalf("after ack #3, open alerts:\n%s", got)
	}
	err := run([]string{"-store", path, "ack", "-id", "99"}, &bytes.Buffer{}, &bytes.Buffer{})
	var usage usageError
	if err == nil || !strings.Contains(err.Error(), "no alert #99") || errors.As(err, &usage) {
		t.Fatalf("ack of an unknown id: %v", err)
	}
}

func TestCompactDropAcked(t *testing.T) {
	path := seed(t)
	if got := alerts(t, "-store", path, "compact", "-drop-acked"); got != "compacted: 3 alerts retained\n" {
		t.Fatalf("compact: %q", got)
	}
	s, err := alertstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 3 || len(s.Find(alertstore.Query{UnacknowledgedOnly: true})) != 3 {
		t.Fatalf("compacted store holds %d records", s.Len())
	}
}

// TestUsageErrorsCreateNoStore: a missing or unknown command, or a bad
// subcommand flag, is a usage error, and a -store path that does not
// exist — a typo, most likely — fails every command (exit 1, naming the
// path) instead of reporting an empty history. Neither creates the file.
func TestUsageErrorsCreateNoStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.log")
	for _, tc := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"-store", path, "lst"}, true},
		{[]string{"-store", path}, true},
		{[]string{"-store", path, "list", "-bogus"}, true},
		{[]string{"-store", path, "list"}, false},
		{[]string{"-store", path, "ack", "-id", "1"}, false},
		{[]string{"-store", path, "compact"}, false},
	} {
		err := run(tc.args, &bytes.Buffer{}, &bytes.Buffer{})
		var usage usageError
		switch {
		case tc.usage && !errors.As(err, &usage):
			t.Errorf("alerts %v: %v, want a usage error", tc.args, err)
		case !tc.usage && (err == nil || errors.As(err, &usage) || !strings.Contains(err.Error(), path)):
			t.Errorf("alerts %v: %v, want a failure naming the missing store", tc.args, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("alerts %v created the store file (stat: %v)", tc.args, err)
		}
	}
}

// TestForeignStoreRefused: a file that is no framed alert store — here a
// model bundle passed as -store — fails the command (exit 1, not a usage
// error) and is left byte-identical.
func TestForeignStoreRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	bundle := []byte(`{"config":{"embed_dim":24},"num_systems":2,"system":"Thunderbird"}` + "\n#lsbundle v1 crc32c=00000000\n")
	if err := os.WriteFile(path, bundle, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-store", path, "list"}, &bytes.Buffer{}, &bytes.Buffer{})
	var usage usageError
	if err == nil || errors.As(err, &usage) || !strings.Contains(err.Error(), "not a framed alert store") {
		t.Fatalf("list on a model bundle: %v, want a failure naming it no framed store", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(bundle, after) {
		t.Fatal("list changed the model bundle")
	}
}
