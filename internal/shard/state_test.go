package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"logsynergy/internal/drain"
	"logsynergy/internal/pipeline"
)

func TestStateRoundTripV4(t *testing.T) {
	path := statePath(t.TempDir())
	want := partitionState{
		Partitions: 3,
		Consumed:   41,
		Tails: map[string]pipeline.WindowTail{
			"7001": {IDs: []int{0, 1}, SincePrev: 2},
		},
		Events: []drain.SavedEvent{
			{ID: 0, Template: "a b <*>", Example: "a b c", Count: 7},
			{ID: 1, Template: "d e f", Example: "d e f", Count: 1},
		},
		Patterns: []pipeline.PatternEntry{
			{Seq: []int{0, 1, 0}, Score: 0.25},
			{Seq: []int{1, 1, 1}, Score: 0.75},
		},
	}
	if err := saveState(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != stateVersion || got.Partitions != 3 || got.Consumed != 41 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Tails) != 1 || !reflect.DeepEqual(got.Tails["7001"], want.Tails["7001"]) {
		t.Fatalf("tails mismatch: %+v", got.Tails)
	}
	if len(got.Events) != 2 || got.Events[1].Template != "d e f" || got.Events[0].Count != 7 {
		t.Fatalf("events mismatch: %+v", got.Events)
	}
	if len(got.Patterns) != 2 || got.Patterns[0].Score != 0.25 || len(got.Patterns[1].Seq) != 3 {
		t.Fatalf("patterns mismatch: %+v", got.Patterns)
	}
}

func TestLoadStateMissingFileIsFresh(t *testing.T) {
	st, err := loadState(statePath(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != stateVersion || st.Consumed != 0 || len(st.Tails) != 0 {
		t.Fatalf("fresh state not empty: %+v", st)
	}
}

// A zero-length state file is a torn write, not a fresh partition:
// loading it silently would drop the Consumed watermark and double-feed
// every restored tail on the next run.
func TestLoadStateRefusesZeroLengthFile(t *testing.T) {
	path := statePath(t.TempDir())
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadState(path); err == nil || !strings.Contains(err.Error(), "zero length") {
		t.Fatalf("want zero-length error, got %v", err)
	}
}

// A state file that exists must carry this build's version and a non-zero
// partition stamp; older and unstamped files are refused naming the file
// rather than opened against whatever layout the runtime happens to use.
func TestLoadStateRefusesUnstampedFiles(t *testing.T) {
	for name, body := range map[string]string{
		"version-0":    `{"consumed":9,"tails":{"k":{"lines":["x y"],"since_prev":1}}}`,
		"version-1":    `{"version":1,"partitions":2,"consumed":9,"tails":{"k":{"lines":["x y"],"since_prev":1}}}`,
		"v2-unstamped": `{"version":2,"consumed":9}`,
		"v4-unstamped": `{"version":4,"consumed":9}`,
	} {
		t.Run(name, func(t *testing.T) {
			path := statePath(t.TempDir())
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := loadState(path); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("want a refusal naming %s, got %v", path, err)
			}
		})
	}
	path := statePath(t.TempDir())
	if err := os.WriteFile(path, []byte(`{"version":4,"partitions":2,"consumed":9,"tails":null}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := loadState(path); err != nil || st.Consumed != 9 || st.Partitions != 2 {
		t.Fatalf("stamped v4 file: %+v, %v", st, err)
	}
}

// A state file from before version 4 holds its window tails as raw
// lines, which only a second parse could turn back into ids. Open refuses
// it by path and version before it writes anything: every file under the
// root stays byte for byte as it was.
func TestOpenRefusesRawLineState(t *testing.T) {
	for _, version := range []int{2, 3} {
		t.Run(fmt.Sprintf("version %d", version), func(t *testing.T) {
			dir := t.TempDir()
			h := openHarness(t, dir, 2, nil)
			h.feed(t, genEqLines(8, 400, eqKeys(8)))
			h.drain(t)
			if err := h.rt.Close(); err != nil {
				t.Fatal(err)
			}
			for i := range 2 {
				st, err := loadState(statePath(PartitionDir(dir, i)))
				if err != nil {
					t.Fatal(err)
				}
				old := fmt.Sprintf(`{"version":%d,"partitions":2,"consumed":%d,"tails":{"7001":{"lines":["7001 gc freed 123456"],"since_prev":1}}}`,
					version, st.Consumed)
				if err := os.WriteFile(statePath(PartitionDir(dir, i)), []byte(old), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := treeOf(t, dir)
			_, err := Open(killedConfig(t, dir, 2))
			path, want := statePath(PartitionDir(dir, 0)), fmt.Sprintf("version %d", version)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Open over a version-%d state file: err = %v, want a refusal naming %s and its version", version, err, path)
			}
			if after := treeOf(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refused Open changed the root:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

func TestLoadStateRefusesFutureVersion(t *testing.T) {
	path := statePath(t.TempDir())
	if err := os.WriteFile(path, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadState(path); err == nil {
		t.Fatal("want version error")
	}
}

// A crash between saveState's write and rename leaves a temp file behind;
// loadState must sweep it and return the last durably installed state.
func TestLoadStateSweepsStaleTemp(t *testing.T) {
	dir := t.TempDir()
	path := statePath(dir)
	if err := saveState(path, partitionState{Partitions: 2, Consumed: 5}); err != nil {
		t.Fatal(err)
	}
	stale := path + ".tmp123456"
	if err := os.WriteFile(stale, []byte(`{"version":2,"consumed":999`), 0o600); err != nil {
		t.Fatal(err)
	}
	st, err := loadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Consumed != 5 {
		t.Fatalf("consumed %d, want 5 (the installed state)", st.Consumed)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the sweep: %v", err)
	}
}

// A failed install must not corrupt anything: the error surfaces, the
// temp file is removed, and a previously installed good state in the
// same directory still loads.
func TestSaveStateFailedInstallKeepsPreviousGoodState(t *testing.T) {
	dir := t.TempDir()
	good := statePath(dir)
	if err := saveState(good, partitionState{Partitions: 2, Consumed: 7}); err != nil {
		t.Fatal(err)
	}
	// Renaming a file over an existing directory fails, exercising the
	// install-failure path.
	blocked := filepath.Join(dir, "blocked-target")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := saveState(blocked, partitionState{Partitions: 2, Consumed: 8}); err == nil {
		t.Fatal("want rename failure")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after failed install", e.Name())
		}
	}
	st, err := loadState(good)
	if err != nil {
		t.Fatal(err)
	}
	if st.Consumed != 7 {
		t.Fatalf("good state damaged: %+v", st)
	}
}

// A commit costs the same bytes whatever the parser knows: it is one
// commit-log record of the consumed offset and the alerts raised, and the
// snapshot is not rewritten by it. When every commit rewrote the whole
// state, the bytes grew with every template the stream had minted.
func TestCommitBytesFlatInEventSpace(t *testing.T) {
	h := openHarness(t, t.TempDir(), 1, nil)
	defer h.rt.Close()
	h.feed(t, genEqLines(3, 200, eqKeys(4)))
	h.drain(t)
	pt := h.rt.partitionAt(0)
	snapshot, err := os.ReadFile(statePath(pt.dir))
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(pt.dir, commitLogName, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one commit-log segment, found %v (%v)", segs, err)
	}
	logSize := func() int64 {
		fi, err := os.Stat(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	// word renders i in letters past the hex digits, so no masker touches it.
	word := func(i int) string {
		b := []byte("q")
		for ; i > 0; i /= 20 {
			b = append(b, byte('g'+i%20))
		}
		return string(b)
	}
	var frames []int64
	n := 0
	for _, templates := range []int{10, 2000} {
		pt.feedMu.Lock()
		for ; pt.pipe.Parser().NumEvents() < templates; n++ {
			pt.pipe.Parser().Parse(word(3*n) + " " + word(3*n+1) + " " + word(3*n+2))
		}
		pt.feedMu.Unlock()
		before := logSize()
		// One line of a fresh key: it completes no window and raises nothing.
		if _, err := h.rt.AppendBatch([]string{fmt.Sprintf("%d lone line", 9000+templates)}); err != nil {
			t.Fatal(err)
		}
		h.drain(t)
		frames = append(frames, logSize()-before)
	}
	if frames[0] == 0 || frames[0] != frames[1] {
		t.Fatalf("a commit over 10 templates appended %d bytes, over 2000 %d", frames[0], frames[1])
	}
	if after, err := os.ReadFile(statePath(pt.dir)); err != nil || string(after) != string(snapshot) {
		t.Fatalf("a commit rewrote the snapshot (%d bytes, then %d; %v)", len(snapshot), len(after), err)
	}
}
