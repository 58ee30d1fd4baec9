package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"logsynergy/internal/drain"
	"logsynergy/internal/obs"
	"logsynergy/internal/window"
)

// keyedCapture collects per-key score sequences from OnWindow.
func keyedCapture(k *Keyed, t *testing.T) map[string][]float64 {
	scores := map[string][]float64{}
	k.OnWindow = func(key string, seq []int, score float64, abandoned bool) {
		if abandoned {
			t.Errorf("window for key %q abandoned", key)
		}
		scores[key] = append(scores[key], score)
	}
	return scores
}

// The online windower cuts exactly the sequences the offline sequencer
// does (paper §IV-A1 and §VI-A share one segmentation): a single-key feed's
// OnWindow sequences equal window.Slide's spans over the same lines' event
// ids, assigned by an independent parser. And a single-key Keyed feed is
// the same workflow as Run over the same lines: same stats, same reports
// in the same order.
func TestKeyedSingleKeyMatchesRun(t *testing.T) {
	lines := chaosLines(403) // not a multiple of the step: the last 3 lines complete nothing
	firstWindow := []int{0, 1, 2, 3, 4, 5, 0, 1, 2, 3}

	det, parser, interp, e := tinyDeployment(t)
	runSink := &MemorySink{}
	p := New(DefaultConfig("x"), parser, det, interp, e, runSink)
	p.Library().Store(firstWindow, 0.9)
	runStats := p.Run(context.Background(), NewSliceSource(lines))

	det2, parser2, interp2, e2 := tinyDeployment(t)
	keyedSink := &MemorySink{}
	p2 := New(DefaultConfig("x"), parser2, det2, interp2, e2, keyedSink)
	p2.Library().Store(firstWindow, 0.9)
	k := NewKeyed(p2)
	var got [][]int
	k.OnWindow = func(_ string, seq []int, _ float64, _ bool) { got = append(got, seq) }
	for _, line := range lines {
		k.Feed("the-key", line)
	}
	k.Flush()
	keyedStats := p2.Stats()

	ref := drain.NewDefault()
	ids := make([]int, len(lines))
	for i, line := range lines {
		ids[i] = ref.Parse(line).EventID
	}
	spans := window.Slide(len(ids), window.Default())
	if len(got) != len(spans) {
		t.Fatalf("%d online windows vs %d offline spans", len(got), len(spans))
	}
	for i, sp := range spans {
		if !reflect.DeepEqual(got[i], ids[sp.Start:sp.End]) {
			t.Fatalf("window %d = %v, offline span [%d,%d) = %v", i, got[i], sp.Start, sp.End, ids[sp.Start:sp.End])
		}
	}

	if keyedStats != runStats {
		t.Fatalf("keyed stats %+v != run stats %+v", keyedStats, runStats)
	}
	kr, rr := keyedSink.Reports(), runSink.Reports()
	if len(kr) != len(rr) || len(rr) == 0 {
		t.Fatalf("%d keyed reports vs %d run reports", len(kr), len(rr))
	}
	for i := range rr {
		if kr[i].Score != rr[i].Score || !reflect.DeepEqual(kr[i].EventIDs, rr[i].EventIDs) {
			t.Fatalf("report %d differs: keyed %v %v, run %v %v", i, kr[i].Score, kr[i].EventIDs, rr[i].Score, rr[i].EventIDs)
		}
	}
}

// The demultiplexing property behind sharding: a key's score sequence
// depends only on that key's lines in order — interleaving other keys
// into the same Keyed changes nothing.
func TestKeyedPerKeyIndependence(t *testing.T) {
	mkLines := func(start, n int) []string {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = chaosTemplates[(start+i)%len(chaosTemplates)]
		}
		return lines
	}
	aLines, bLines := mkLines(0, 180), mkLines(3, 180)

	solo := func(key string, lines []string) map[string][]float64 {
		det, parser, interp, e := tinyDeployment(t)
		p := New(DefaultConfig("x"), parser, det, interp, e, &MemorySink{})
		k := NewKeyed(p)
		scores := keyedCapture(k, t)
		for _, line := range lines {
			k.Feed(key, line)
		}
		k.Flush()
		return scores
	}
	wantA, wantB := solo("A", aLines), solo("B", bLines)

	det, parser, interp, e := tinyDeployment(t)
	p := New(DefaultConfig("x"), parser, det, interp, e, &MemorySink{})
	k := NewKeyed(p)
	scores := keyedCapture(k, t)
	for i := 0; i < 180; i++ { // interleave A and B line by line
		k.Feed("A", aLines[i])
		k.Feed("B", bLines[i])
	}
	k.Flush()

	for key, want := range map[string][]float64{"A": wantA["A"], "B": wantB["B"]} {
		got := scores[key]
		if len(got) != len(want) {
			t.Fatalf("key %s: %d interleaved windows vs %d solo", key, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %s window %d: interleaved score %v != solo %v", key, i, got[i], want[i])
			}
		}
	}
	if k.Keys() != 2 {
		t.Fatalf("Keys() = %d, want 2", k.Keys())
	}
}

// Tails + Restore resume every key's window phase exactly: stopping a
// Keyed mid-stream and continuing in a fresh process must score the
// same windows with the same values as the uninterrupted run.
func TestKeyedTailsRestoreResumesExactly(t *testing.T) {
	keys := []string{"alpha", "beta", "gamma"}
	line := func(i int) (string, string) {
		return keys[i%len(keys)], chaosTemplates[i%len(chaosTemplates)]
	}
	const total, cut = 400, 137 // cut mid-window on purpose

	// Uninterrupted reference.
	det, parser, interp, e := tinyDeployment(t)
	p := New(DefaultConfig("x"), parser, det, interp, e, &MemorySink{})
	k := NewKeyed(p)
	want := keyedCapture(k, t)
	for i := 0; i < total; i++ {
		key, l := line(i)
		k.Feed(key, l)
	}
	k.Flush()

	// First "process": feed the prefix, flush, snapshot tails.
	det1, parser1, interp1, e1 := tinyDeployment(t)
	p1 := New(DefaultConfig("x"), parser1, det1, interp1, e1, &MemorySink{})
	k1 := NewKeyed(p1)
	got := keyedCapture(k1, t)
	for i := 0; i < cut; i++ {
		key, l := line(i)
		k1.Feed(key, l)
	}
	k1.Flush()
	tails := k1.Tails()

	// Tails must round-trip deep copies: mutating the snapshot later must
	// not reach into live window state (guards the state-file path).
	for key := range tails {
		if len(tails[key].IDs) > 0 {
			tails[key].IDs[0] += 1000
		}
		break
	}

	// Second "process": a restart's pipeline, restore, continue the stream.
	k2 := resumeFrom(t, k1, k1.Tails())
	k2.OnWindow = func(key string, seq []int, score float64, abandoned bool) {
		if abandoned {
			t.Errorf("window for key %q abandoned", key)
		}
		got[key] = append(got[key], score)
	}
	if n := k2.PendingWindows(); n != 0 {
		t.Fatalf("restore completed %d windows; restored tails must never re-complete", n)
	}
	for i := cut; i < total; i++ {
		key, l := line(i)
		k2.Feed(key, l)
	}
	k2.Flush()

	for _, key := range keys {
		if len(got[key]) != len(want[key]) {
			t.Fatalf("key %s: %d resumed windows vs %d uninterrupted", key, len(got[key]), len(want[key]))
		}
		for i := range want[key] {
			if got[key][i] != want[key][i] {
				t.Fatalf("key %s window %d: resumed score %v != uninterrupted %v", key, i, got[key][i], want[key][i])
			}
		}
	}
}

// Restored lines do not recount collection stats and tails exclude keys
// with no live state.
func TestKeyedTailsBookkeeping(t *testing.T) {
	det, parser, interp, e := tinyDeployment(t)
	p := New(DefaultConfig("x"), parser, det, interp, e, &MemorySink{})
	k := NewKeyed(p)
	for i := 0; i < 7; i++ {
		k.Feed("k", chaosTemplates[i%len(chaosTemplates)])
	}
	k.Flush()
	tails := k.Tails()
	if tl, ok := tails["k"]; !ok || len(tl.IDs) != 7 || tl.SincePrev != 7 {
		t.Fatalf("unexpected tail: %+v", tails)
	}

	k2 := resumeFrom(t, k, tails)
	if c := k2.Pipeline().Stats().LinesCollected; c != 0 {
		t.Fatalf("restore counted %d collected lines, want 0", c)
	}
	if k2.Keys() != 1 {
		t.Fatalf("Keys() = %d after restore, want 1", k2.Keys())
	}
	// The restored window continues: 3 more lines complete the first
	// 10-line window.
	done := 0
	k2.OnWindow = func(string, []int, float64, bool) { done++ }
	for i := 7; i < 10; i++ {
		k2.Feed("k", chaosTemplates[i%len(chaosTemplates)])
	}
	k2.Flush()
	if done != 1 {
		t.Fatalf("completed %d windows after restore+3 lines, want 1", done)
	}
	if fmt.Sprintf("%v", k2.Tails()["k"].SincePrev) != "0" {
		t.Fatalf("sincePrev not reset after completion: %+v", k2.Tails()["k"])
	}
}

// resumeFrom builds what a restart builds from a snapshot of k: a fresh
// deployment whose parser imported k's parser's events and whose event
// table was synced over them, with tails restored into it.
func resumeFrom(t *testing.T, k *Keyed, tails map[string]WindowTail) *Keyed {
	t.Helper()
	det, parser, interp, e := tinyDeployment(t)
	if err := parser.Import(k.Pipeline().Parser().Export()); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("x")
	cfg.Metrics = obs.NewRegistry() // Stats reads this pipeline's counters alone
	p := New(cfg, parser, det, interp, e, &MemorySink{})
	if err := p.SyncTable(); err != nil {
		t.Fatal(err)
	}
	resumed := NewKeyed(p)
	if err := resumed.Restore(tails); err != nil {
		t.Fatal(err)
	}
	return resumed
}

// A restored window holds the ids its lines were given when they were
// fed, not what a second parse would give them. Here key a's later lines
// widen the group key b's first line joined, so parsing that line again
// lands it in another group; the window b completes must be the one the
// uninterrupted pipeline completes.
func TestKeyedRestoreKeepsFedIDs(t *testing.T) {
	det, parser, interp, e := tinyDeployment(t)
	k := NewKeyed(New(DefaultConfig("x"), parser, det, interp, e, &MemorySink{}))
	for _, l := range [][2]string{
		{"a", "p q r s X Y"}, {"b", "p q r s t u"}, {"a", "p q z z t u"}, {"a", "p q r w X Y"},
	} {
		k.Feed(l[0], l[1])
	}
	k.Flush()
	restored := resumeFrom(t, k, k.Tails())

	windowOf := func(k *Keyed) []int {
		var got []int
		k.OnWindow = func(key string, seq []int, _ float64, _ bool) {
			if key == "b" {
				got = seq
			}
		}
		for range 9 {
			k.Feed("b", "p q g h t u")
		}
		k.Flush()
		return got
	}
	want, got := windowOf(k), windowOf(restored)
	if len(want) != window.Default().Length || !reflect.DeepEqual(got, want) {
		t.Fatalf("key b's window after the restore is %v, uninterrupted %v", got, want)
	}
}

// Restore refuses a tail whose ids the event table does not cover — a
// snapshot restored beside another parser's events — naming the key and
// the id, and restores no key at all.
func TestKeyedRestoreRefusesUnknownIDs(t *testing.T) {
	det, parser, interp, e := tinyDeployment(t)
	k := NewKeyed(New(DefaultConfig("x"), parser, det, interp, e, &MemorySink{}))
	k.Feed("a", chaosTemplates[0])
	k.Feed("a", chaosTemplates[1])
	for _, id := range []int{-1, 2} {
		err := k.Restore(map[string]WindowTail{"fine": {IDs: []int{0}, SincePrev: 1}, "bad": {IDs: []int{1, id}, SincePrev: 2}})
		if err == nil || !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), fmt.Sprint(id)) {
			t.Fatalf("restoring id %d into a 2-row table: %v, want a refusal naming the key and the id", id, err)
		}
		if k.Keys() != 1 {
			t.Fatalf("a refused restore left %d keys, want the 1 fed", k.Keys())
		}
	}
}
