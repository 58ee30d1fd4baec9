package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logsynergy/internal/logdata"
)

// TestGenerateLinesAndLabels: -lines N writes N log lines (here to stdout)
// and N labels whose 1s are exactly the corpus's anomalous lines.
func TestGenerateLinesAndLabels(t *testing.T) {
	labPath := filepath.Join(t.TempDir(), "bgl.lab")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-system", "BGL", "-lines", "500", "-seed", "3", "-labels", labPath}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	logs := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(logs) != 500 {
		t.Fatalf("%d log lines, want 500", len(logs))
	}
	raw, err := os.ReadFile(labPath)
	if err != nil {
		t.Fatal(err)
	}
	labels := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(labels) != 500 {
		t.Fatalf("%d labels, want 500", len(labels))
	}
	ones := 0
	for _, l := range labels {
		if l == "1" {
			ones++
		}
	}
	want := logdata.Generate(logdata.Systems()["BGL"], 3, 500).NumAnomalousLines()
	if ones != want || want == 0 {
		t.Fatalf("%d labels are 1, want the corpus's %d anomalous lines", ones, want)
	}
	if !strings.Contains(stderr.String(), "wrote 500 lines") {
		t.Fatalf("stderr %q lacks the summary", stderr.String())
	}
}

func TestListNamesEverySystem(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(rows) != 6 {
		t.Fatalf("-list printed %d rows, want the six paper systems:\n%s", len(rows), stdout.String())
	}
	for name := range logdata.Systems() {
		if !strings.Contains(stdout.String(), name+" ") {
			t.Errorf("-list does not name %s", name)
		}
	}
}

func TestUnknownSystem(t *testing.T) {
	err := run([]string{"-system", "NoSuchSystem", "-lines", "10"}, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "NoSuchSystem") {
		t.Fatalf("unknown system: error %v", err)
	}
}

// TestFullDiskIsAnError: a write that cannot land (ENOSPC on /dev/full)
// fails the command instead of leaving a truncated corpus behind a
// success.
func TestFullDiskIsAnError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := run([]string{"-lines", "100", "-out", "/dev/full"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Fatal("writing the corpus to /dev/full reported success")
	}
}
