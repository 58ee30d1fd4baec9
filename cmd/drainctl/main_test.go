package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture writes lines as a log file under dir.
func fixture(t *testing.T, dir, name string, lines ...string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// drainctl runs the command and returns its stdout.
func drainctl(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("drainctl %v: %v (stderr %q)", args, err, stderr.String())
	}
	return stdout.String()
}

// TestSummary: templates are listed by count, most frequent first, with a
// parameter sample under -show-params, and -limit cuts the list.
func TestSummary(t *testing.T) {
	log := fixture(t, t.TempDir(), "app.log",
		"disk usage at 63 percent",
		"disk usage at 71 percent",
		"cache miss for key session",
		"disk usage at 12 percent",
		"cache miss for key token",
		"disk usage at 99 percent",
		"kernel panic in module alpha",
	)
	want := "7 lines, 3 templates\n" +
		"     4  E0    disk usage at <*> percent\n" +
		"              params: [63]\n" +
		"     2  E1    cache miss for key <*>\n" +
		"     1  E2    kernel panic in module alpha\n"
	if got := drainctl(t, "-log", log, "-show-params"); got != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", got, want)
	}
	if got := drainctl(t, "-log", log, "-limit", "1"); got != "7 lines, 3 templates\n     4  E0    disk usage at <*> percent\n" {
		t.Fatalf("-limit 1:\n%s", got)
	}
}

// TestSaveLoadKeepsEventIDs: a state saved by one run and loaded by the
// next keeps every template's event id and count; new templates take the
// next ids.
func TestSaveLoadKeepsEventIDs(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "state.json")
	first := fixture(t, dir, "a.log",
		"disk usage at 63 percent",
		"cache miss for key session",
		"cache miss for key token",
		"kernel panic in module alpha",
	)
	var stderr bytes.Buffer
	if err := run([]string{"-log", first, "-save", state}, &bytes.Buffer{}, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "state saved to "+state) {
		t.Fatalf("stderr %q", stderr.String())
	}

	second := fixture(t, dir, "b.log",
		"user bob logged in",
		"disk usage at 5 percent",
		"disk usage at 6 percent",
	)
	want := "3 lines, 4 templates\n" +
		"     3  E0    disk usage at <*> percent\n" +
		"     2  E1    cache miss for key <*>\n" +
		"     1  E2    kernel panic in module alpha\n" +
		"     1  E3    user bob logged in\n"
	if got := drainctl(t, "-log", second, "-load", state); got != want {
		t.Fatalf("after -load:\n%s\nwant:\n%s", got, want)
	}
}
