package shard

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logsynergy/internal/broker"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
)

// The offline rebalance is the live cutover on a runtime that takes no
// traffic: feed, drain, LiveRebalance, close, reopen at the new count.
// These tests hold that use of the one engine to the bar the deleted
// stage→manifest→install tool was held to — and, unlike it, over growth
// by one, growth by two and a shrink.
var rebalancePlans = []struct{ from, to int }{{3, 4}, {2, 4}, {4, 2}}

// openRaw opens a minimal runtime over dir without failing the test on
// error — for asserting the refusal paths.
func openRaw(dir string, shards int) (*Runtime, error) {
	det, interp, e := eqEnv()
	return Open(Config{
		Shards:   shards,
		Dir:      dir,
		Pipeline: pipeline.DefaultConfig(eqHint),
		Detector: det,
		Interp:   interp,
		Embedder: e,
		Sink:     &pipeline.MemorySink{},
		Metrics:  obs.NewRegistry(),
	})
}

// rebalanceDrained moves the drained runtime h to `to` partitions, closes
// it, and reopens the root at the new count.
func rebalanceDrained(t *testing.T, h *shardHarness, dir string, to int) (*shardHarness, *RebalanceReport) {
	t.Helper()
	from := h.rt.Shards()
	h.drain(t)
	rep, err := h.rt.LiveRebalance(to)
	if err != nil {
		t.Fatalf("LiveRebalance %d→%d: %v", from, to, err)
	}
	if rep.From != from || rep.To != to || rep.AlreadyBalanced {
		t.Fatalf("report %+v, want a %d→%d move", rep, from, to)
	}
	if got := len(h.rt.Owned()); got != to {
		t.Fatalf("runtime serves %d partitions after %d→%d, want %d", got, from, to, to)
	}
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := openRaw(dir, from); err == nil {
		t.Fatalf("the %d-shard layout still opens after a rebalance to %d", from, to)
	}
	return reopenHarness(t, dir, to, h), rep
}

// The tentpole proof: fixed-seed traffic split at an arbitrary cut, fed
// pre-cut into a from-shard runtime, rebalanced, fed post-cut into a
// to-shard runtime — the combined per-key score sequences and alert
// multiset are bit-identical to the unsharded keyed reference. Moved keys
// keep their window phase across the move, or the sequences would shift.
func TestRebalanceEquivalence(t *testing.T) {
	keys := eqKeys(12)
	rebalanceEquivalence(t, genEqLines(4242, 3000, keys), false)
	// genEqLines never repeats a window, so the pattern library never
	// answers one there; this traffic's windows recur, and a verdict the
	// library returns after the move must be the score the model would
	// have given.
	t.Run("repeating", func(t *testing.T) { rebalanceEquivalence(t, genMemoLines(4243, 3000, keys), true) })
}

// rebalanceEquivalence runs lines through every rebalance plan, cut at
// one fixed line, and requires each run to match the unsharded reference
// bit for bit; with libraryHits, the runtime reopened at the new count
// must also have answered windows from its library.
func rebalanceEquivalence(t *testing.T, lines []string, libraryHits bool) {
	ref := runReference(t, lines)
	if len(ref.alerts) == 0 {
		t.Fatal("reference produced no alerts; the comparison is vacuous")
	}
	const cut = 1337
	for _, plan := range rebalancePlans {
		label := fmt.Sprintf("%d→%d", plan.from, plan.to)
		t.Run(label, func(t *testing.T) {
			dir := t.TempDir()
			h := openHarness(t, dir, plan.from, nil)
			h.feed(t, lines[:cut])
			h2, rep := rebalanceDrained(t, h, dir, plan.to)
			if rep.MovedKeys == 0 {
				t.Fatal("no keys moved; the equivalence run would not exercise a handoff")
			}
			t.Logf("rebalance %s moved %d keys (%d tail ids) in %v", label, rep.MovedKeys, rep.MovedLines, rep.Duration)
			h2.feed(t, lines[cut:])
			h2.drain(t)
			stats := h2.rt.Stats()
			if err := h2.rt.Close(); err != nil {
				t.Fatalf("Close after rebalance: %v", err)
			}
			requireEqual(t, "rebalance "+label, h2.result(), ref)
			if libraryHits && stats.PatternHits == 0 {
				t.Fatalf("rebalance %s: no window of %d after the move was answered from the pattern library", label, stats.SequencesFormed)
			}
		})
	}
}

// A moved key arrives with its partition's template groups: the
// destination re-mints zero drain groups for templates the key's history
// already taught its donor. The move hands over no verdicts: the
// destination's library fills from its own misses, and the key's windows
// scored after the move equal the unsharded reference's bit for bit.
func TestRebalanceMovedKeyKeepsGroups(t *testing.T) {
	for _, plan := range rebalancePlans {
		t.Run(fmt.Sprintf("%d→%d", plan.from, plan.to), func(t *testing.T) {
			oldRing, newRing := NewPartitioner(plan.from), NewPartitioner(plan.to)
			movedKey := ""
			for _, key := range eqKeys(64) {
				if newRing.Partition(key) != oldRing.Partition(key) {
					movedKey = key
					break
				}
			}
			if movedKey == "" {
				t.Fatal("no candidate key moves")
			}
			lines := make([]string, 35)
			for i := range lines {
				lines[i] = fmt.Sprintf("%s gc freed %d", movedKey, 10000+i)
			}
			ref := runReference(t, lines)

			dir := t.TempDir()
			h := openHarness(t, dir, plan.from, nil)
			for _, line := range lines[:25] {
				if _, err := appendOne(h.rt, line); err != nil {
					t.Fatal(err)
				}
			}
			h2, rep := rebalanceDrained(t, h, dir, plan.to)
			if rep.MovedKeys != 1 {
				t.Fatalf("moved %d keys, want exactly the one", rep.MovedKeys)
			}
			before := h2.scoredWindows(movedKey)
			for _, line := range lines[25:] {
				if _, err := appendOne(h2.rt, line); err != nil {
					t.Fatal(err)
				}
			}
			h2.drain(t)
			stats := h2.rt.ShardStats(newRing.Partition(movedKey))
			if err := h2.rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			t.Logf("destination: %d windows, %d library hits, %d misses", stats.SequencesFormed, stats.PatternHits, stats.PatternMisses)
			if stats.LinesCollected != 10 {
				t.Fatalf("destination collected %d lines, want the 10 fed post-rebalance", stats.LinesCollected)
			}
			if stats.NewEvents != 0 {
				t.Fatalf("destination re-minted %d drain groups for an already-seen template", stats.NewEvents)
			}
			if stats.SequencesFormed == 0 {
				t.Fatal("destination completed no windows; the key handoff lost the window phase")
			}
			got, want := h2.result().scores[movedKey], ref.scores[movedKey]
			if len(got) != len(want) || len(got)-before != stats.SequencesFormed {
				t.Fatalf("the key scored %d windows, %d of them after the move; the reference scores %d", len(got), len(got)-before, len(want))
			}
			for i := before; i < len(want); i++ {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("window %d after the move scored %v, the reference %v", i, got[i], want[i])
				}
			}
		})
	}
}

// The runtime refuses a layout mismatch outright, naming the way to fix
// it. The same stamp check makes a root half-installed by the removed
// offline tool fail safe: its partitions disagree on the layout, so no
// shard count opens it.
func TestRuntimeRefusesLayoutMismatch(t *testing.T) {
	dir := t.TempDir()
	keys := eqKeys(6)
	lines := genEqLines(13, 600, keys)
	h := openHarness(t, dir, 2, nil)
	h.feed(t, lines)
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, err := openRaw(dir, 3)
	if err == nil {
		t.Fatal("runtime opened 3 shards over a 2-shard layout")
	}
	if !strings.Contains(err.Error(), "serve at 2 shards") || !strings.Contains(err.Error(), "logsynergy rebalance -addr host:port -to 3") {
		t.Fatalf("error does not name the rebalance command: %v", err)
	}
}

// A root that holds a single broker's log — what `serve -broker-dir`
// wrote before every WAL-backed serve was a runtime — is refused with
// the one-time move named, never shadowed by an empty p0 beside it. The
// second half performs that move and proves it adopts the log exactly:
// partition 0 resumes at the old committed offset + 1 and detects the
// unconsumed suffix, nothing before it and nothing twice.
func TestOpenRefusesSingleBrokerRoot(t *testing.T) {
	dir := t.TempDir()
	lines := genEqLines(17, 300, eqKeys(3))
	const consumed = 120
	b, err := broker.Open(broker.Config{Dir: dir, Fsync: broker.FsyncNever, SegmentBytes: 4096, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(lines); i += 50 { // several segments, as a lived-in root has
		if _, _, err := b.AppendBatch(lines[i : i+50]); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Consumer("detector")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < consumed; i++ {
		if _, ok := c.Next(); !ok {
			t.Fatalf("consumer ended at %d: %v", i, c.Err())
		}
	}
	c.Ack(consumed)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = openRaw(dir, 1)
	if err == nil {
		t.Fatal("runtime opened over a single broker's root; its unconsumed records would be stranded beside an empty p0")
	}
	p0 := PartitionDir(dir, 0)
	for _, want := range []string{"mkdir " + p0, "mv " + dir + "/*.wal " + dir + "/offsets.json " + p0 + "/"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal does not name the move (%q missing): %v", want, err)
		}
	}
	if _, statErr := os.Stat(p0); !os.IsNotExist(statErr) {
		t.Fatalf("the refused Open still created %s (stat err %v)", p0, statErr)
	}

	// The documented move, verbatim.
	if err := os.Mkdir(p0, 0o755); err != nil {
		t.Fatal(err)
	}
	moved, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(moved) < 2 {
		t.Fatalf("fixture wants a multi-segment log, found %v", moved)
	}
	for _, path := range append(moved, filepath.Join(dir, "offsets.json")) {
		if err := os.Rename(path, filepath.Join(p0, filepath.Base(path))); err != nil {
			t.Fatal(err)
		}
	}

	// Exactly the unconsumed suffix, each record once: the per-key window
	// scores and alerts match a reference fed lines[consumed:] alone.
	h := openHarness(t, dir, 1, nil)
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	requireEqual(t, "moved log", h.result(), runReference(t, lines[consumed:]))
	if got := h.rt.Stats().LinesCollected; got != len(lines)-consumed {
		t.Fatalf("detected %d lines, want the unconsumed %d", got, len(lines)-consumed)
	}
	if got := h.rt.Committed(0); got != uint64(len(lines)) {
		t.Fatalf("partition 0 committed %d, want the WAL tail %d", got, len(lines))
	}
}

// A partition directory from before the commit log — its alerts in an
// alerts log beside a state file saved on every commit — is refused by
// name: nothing reads that log any more, so its undelivered alerts are the
// operator's call.
func TestOpenRefusesAlertLogLayout(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(PartitionDir(dir, 0), "alerts")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := openRaw(dir, 1)
	if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "remove it") {
		t.Fatalf("want a refusal naming %s and what to do, got %v", old, err)
	}
}
