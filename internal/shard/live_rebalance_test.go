package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
)

// The live-cutover proof: fixed-seed multi-key traffic keeps flowing
// while the fleet grows 2→3 in place, and the combined output is
// bit-identical to the unsharded keyed reference — per-key score
// sequences score by score, alert multisets signature by signature.
// Traffic is injected from the cutover's own hook points, so "under
// traffic" is deterministic, not a race: batches land exactly at
// double-write start, mid-pause, and first release. The suite further
// proves non-moving keys never stall (their watermarks and score counts
// advance while the cutover is paused), double-written records are
// never detected twice (offset rollback redelivers them into the
// skip-prefix), and a crash at every per-key phase resumes on exactly
// one layout per key.

// liveMovingKeys splits keys by whether the 2→3 growth moves them.
func liveMovingKeys(keys []string) (moving, staying []string) {
	oldRing, newRing := NewPartitioner(2), NewPartitioner(3)
	for _, k := range keys {
		if oldRing.Partition(k) != newRing.Partition(k) {
			moving = append(moving, k)
		} else {
			staying = append(staying, k)
		}
	}
	return moving, staying
}

// liveNewMovingKey finds a key outside the fixture set that the 2→3
// growth moves — introduced only mid-cutover, it exercises the
// straggler path: no donor tail, double-written only, released by the
// finish flip.
func liveNewMovingKey(existing []string) string {
	oldRing, newRing := NewPartitioner(2), NewPartitioner(3)
	used := make(map[string]bool, len(existing))
	for _, k := range existing {
		used[k] = true
	}
	for i := 9001; ; i++ {
		k := strconv.Itoa(i)
		if !used[k] && oldRing.Partition(k) != newRing.Partition(k) {
			return k
		}
	}
}

func TestLiveRebalanceEquivalenceUnderTraffic(t *testing.T) {
	keys := eqKeys(12)
	moving, staying := liveMovingKeys(keys)
	if len(moving) == 0 || len(staying) == 0 {
		t.Fatalf("fixture needs both moving and staying keys (got %d moving, %d staying)", len(moving), len(staying))
	}
	newKey := liveNewMovingKey(keys)

	pre := genEqLines(42, 1500, keys)
	midA := append(genEqLines(43, 300, keys), genEqLines(44, 60, []string{newKey})...)
	stall := genEqLines(45, 80, []string{staying[0]})
	midB := genEqLines(46, 300, keys)
	post := genEqLines(47, 1500, keys)

	var stream []string
	for _, seg := range [][]string{pre, midA, stall, midB, post} {
		stream = append(stream, seg...)
	}
	ref := runReference(t, stream)
	if len(ref.alerts) == 0 {
		t.Fatal("reference produced no alerts; the equivalence comparison is vacuous")
	}
	if len(ref.scores[newKey]) == 0 {
		t.Fatalf("mid-cutover key %s scored no windows in the reference; the straggler path is untested", newKey)
	}

	dir := t.TempDir()
	h := openHarness(t, dir, 2, nil)
	h.feed(t, pre)

	stayPart := h.rt.PartitionFor(staying[0])
	fedMidA, fedMidB, stalled := false, false, false
	report, err := h.rt.liveRebalance(3, func(phase, key string) error {
		switch {
		case phase == "double-write" && !fedMidA:
			// Traffic lands the instant double-writing starts: moving keys
			// (including one the fleet has never seen) split across both
			// WALs, staying keys flow untouched.
			fedMidA = true
			h.feed(t, midA)
		case phase == "tail-landed" && !stalled:
			// Zero-stall proof, run while the cutover is mid-pause: a
			// staying key's traffic must keep scoring and its partition's
			// committed watermark must strictly advance before any moving
			// key is released.
			stalled = true
			h.mu.Lock()
			scoresBefore := len(h.scores[staying[0]])
			h.mu.Unlock()
			committedBefore := h.rt.Committed(stayPart)
			h.feed(t, stall)
			deadline := time.Now().Add(30 * time.Second)
			for {
				h.mu.Lock()
				scored := len(h.scores[staying[0]])
				h.mu.Unlock()
				if scored > scoresBefore && h.rt.Committed(stayPart) > committedBefore {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("staying key %s stalled mid-cutover: %d→%d windows, watermark %d→%d",
						staying[0], scoresBefore, scored, committedBefore, h.rt.Committed(stayPart))
					break
				}
				time.Sleep(time.Millisecond)
			}
		case phase == "released" && !fedMidB:
			// Traffic after the first key flips to destination-only routing.
			fedMidB = true
			h.feed(t, midB)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("LiveRebalance: %v", err)
	}
	if report.From != 2 || report.To != 3 {
		t.Fatalf("report %d→%d, want 2→3", report.From, report.To)
	}
	if report.MovedKeys == 0 {
		t.Fatal("live rebalance moved no keys")
	}
	if got := h.rt.Shards(); got != 3 {
		t.Fatalf("Shards() = %d after live rebalance, want 3", got)
	}
	if _, err := os.Stat(filepath.Join(dir, CutoverJournalName)); !os.IsNotExist(err) {
		t.Fatalf("cutover journal still present after a completed live rebalance (stat err %v)", err)
	}
	if stragglers, _ := filepath.Glob(filepath.Join(dir, "p2", spliceFilePrefix+"*")); len(stragglers) != 0 {
		t.Fatalf("splice files not swept after the cutover: %v", stragglers)
	}
	for _, k := range moving {
		if got := h.rt.PartitionFor(k); got != 2 {
			t.Fatalf("moved key %s routes to partition %d after growth, want 2", k, got)
		}
	}

	h.feed(t, post)
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	requireEqual(t, "live 2→3 under traffic", h.result(), ref)

	// The grown layout is a first-class 3-shard deployment: a plain
	// reopen at 3 shards must come up clean with nothing to re-detect.
	h2 := openHarness(t, dir, 3, nil)
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("reopen Close: %v", err)
	}
	if res := h2.result(); len(res.scores) != 0 || h2.rt.Stats().LinesCollected != 0 {
		t.Fatalf("reopen after live rebalance re-detected: %d keys, %d lines", len(res.scores), h2.rt.Stats().LinesCollected)
	}
}

// Double-written records must be duplicates in storage only, never in
// detection: rolling every partition's committed offset halfway back
// redelivers the double-write window on both its WALs, and the
// redelivery-prefix protocol must skip every record of it.
func TestLiveRebalanceDuplicateSkipOnRedelivery(t *testing.T) {
	keys := eqKeys(8)
	pre := genEqLines(11, 1200, keys)
	mid := genEqLines(12, 500, keys)

	dir := t.TempDir()
	h := openHarness(t, dir, 2, nil)
	h.feed(t, pre)
	fed := false
	if _, err := h.rt.liveRebalance(3, func(phase, key string) error {
		if phase == "double-write" && !fed {
			fed = true
			h.feed(t, mid)
		}
		return nil
	}); err != nil {
		t.Fatalf("LiveRebalance: %v", err)
	}
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("p%d", i), "offsets.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading offsets: %v", err)
		}
		var f struct {
			Version int               `json:"version"`
			Groups  map[string]uint64 `json:"groups"`
		}
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatalf("parsing offsets: %v", err)
		}
		if f.Groups["detector"] == 0 {
			t.Fatalf("partition %d never committed; the rollback is vacuous", i)
		}
		f.Groups["detector"] /= 2
		out, _ := json.Marshal(f)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatalf("rewriting offsets: %v", err)
		}
	}

	h2 := openHarness(t, dir, 3, nil)
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close after rollback: %v", err)
	}
	if res := h2.result(); len(res.scores) != 0 {
		t.Fatalf("redelivered double-write records were re-detected: %d keys scored", len(res.scores))
	}
	if got := h2.rt.Stats().LinesCollected; got != 0 {
		t.Fatalf("redelivered double-write records were re-collected: %d lines", got)
	}
}

// A crash at every per-key cutover phase must resume on exactly one
// layout per key: the journal is the per-key authority, the reopened
// runtime (at the target shard count) finishes the cutover inside Open,
// and the combined pre-crash + post-crash output stays bit-identical to
// the reference.
func TestLiveRebalanceCrashResume(t *testing.T) {
	phases := []string{"double-write", "tail-landed", "staged", "committed", "released", "finish"}
	for _, phase := range phases {
		phase := phase
		t.Run(phase, func(t *testing.T) {
			keys := eqKeys(10)
			pre := genEqLines(21, 1200, keys)
			mid := genEqLines(22, 300, keys)
			post := genEqLines(23, 1200, keys)
			var stream []string
			for _, seg := range [][]string{pre, mid, post} {
				stream = append(stream, seg...)
			}
			ref := runReference(t, stream)

			dir := t.TempDir()
			h := openHarness(t, dir, 2, nil)
			h.feed(t, pre)
			boom := errors.New("injected crash")
			fedMid := false
			_, err := h.rt.liveRebalance(3, func(ph, key string) error {
				if ph == "double-write" && !fedMid {
					// Mid-cutover traffic lands before the crash, so the
					// resume has double-written records on both sides.
					fedMid = true
					h.feed(t, mid)
				}
				if ph == phase {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("LiveRebalance error = %v, want injected crash", err)
			}
			if _, err := os.Stat(filepath.Join(dir, CutoverJournalName)); err != nil {
				t.Fatalf("cutover journal missing after crash at %s: %v", phase, err)
			}
			// Quiesce to a committed boundary (parked-on-gate counts: the
			// gate commits before parking), then crash hard.
			h.drain(t)
			h.rt.Kill()

			// A reopen at the old shard count must refuse — the journal
			// pins the cutover's target.
			if _, err := Open(killedConfig(t, dir, 2)); err == nil || !strings.Contains(err.Error(), "live cutover") {
				t.Fatalf("Open at 2 shards mid-cutover: err = %v, want live-cutover refusal", err)
			}

			h2 := reopenHarness(t, dir, 3, h)
			if got := h2.rt.Shards(); got != 3 {
				t.Fatalf("Shards() = %d after resumed cutover, want 3", got)
			}
			if _, err := os.Stat(filepath.Join(dir, CutoverJournalName)); !os.IsNotExist(err) {
				t.Fatalf("cutover journal still present after resume (stat err %v)", err)
			}
			h2.feed(t, post)
			h2.drain(t)
			if err := h2.rt.Close(); err != nil {
				t.Fatalf("Close after resume: %v", err)
			}
			requireEqual(t, "crash at "+phase, h2.result(), ref)
		})
	}
}

// killedConfig builds a throwaway config over dir purely to probe Open's
// validation (its sink and captures go nowhere).
func killedConfig(t *testing.T, dir string, shards int) Config {
	t.Helper()
	det, interp, e := eqEnv()
	return Config{
		Shards:   shards,
		Dir:      dir,
		Detector: det,
		Interp:   interp,
		Embedder: e,
		Sink:     &pipeline.MemorySink{},
		Metrics:  obs.NewRegistry(),
	}
}

func TestLiveRebalanceValidation(t *testing.T) {
	h := openHarness(t, t.TempDir(), 2, nil)
	defer h.rt.Close()

	report, err := h.rt.LiveRebalance(2)
	if err != nil {
		t.Fatalf("LiveRebalance(2) on 2 shards: %v", err)
	}
	if !report.AlreadyBalanced {
		t.Fatal("LiveRebalance to the current count should report AlreadyBalanced")
	}
	if _, err := h.rt.LiveRebalance(4); err == nil || !strings.Contains(err.Error(), "one partition at a time") {
		t.Fatalf("LiveRebalance(4) on 2 shards: err = %v, want one-at-a-time refusal", err)
	}
	if _, err := h.rt.LiveRebalance(1); err == nil {
		t.Fatal("LiveRebalance(1) on 2 shards should refuse (live shrink is unsupported)")
	}
}

// The offline rebalancer must refuse a root mid live-cutover: the
// journal owns the layout transition until it completes.
func TestOfflineRebalanceRefusesLiveJournal(t *testing.T) {
	dir := t.TempDir()
	j := NewCutoverJournal(2, 3, 0, "")
	j.Freeze = map[int]uint64{0: 1, 1: 1}
	if err := j.save(filepath.Join(dir, CutoverJournalName)); err != nil {
		t.Fatalf("saving journal: %v", err)
	}
	if _, err := RebalanceGroup(dir, "", 2, 3, ""); err == nil || !strings.Contains(err.Error(), "live cutover") {
		t.Fatalf("offline rebalance over a live cutover: err = %v, want refusal", err)
	}
}
