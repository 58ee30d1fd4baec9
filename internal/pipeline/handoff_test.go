package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"logsynergy/internal/core"
	"logsynergy/internal/obs"
	"logsynergy/internal/window"
)

// The pattern-key codec must round-trip every rendered sequence and
// reject anything the library could not have rendered itself.
func TestParsePatternKeyRoundTrip(t *testing.T) {
	for _, seq := range [][]int{{0}, {1, 2, 3}, {42, 0, 7, 7}} {
		got, ok := parsePatternKey(patternKey(seq))
		if !ok || !reflect.DeepEqual(got, seq) {
			t.Fatalf("round trip of %v gave %v ok=%v", seq, got, ok)
		}
	}
	for _, bad := range []string{"", "a,b", "1,,2", "1, 2"} {
		if _, ok := parsePatternKey(bad); ok {
			t.Fatalf("parsePatternKey(%q) accepted garbage", bad)
		}
	}
}

// Patterns are keyed by their rendered ids, so the rendering must keep
// distinct sequences apart: [1,23] and [12,3] are two verdicts, not one.
func TestDedupKeyCollisionFree(t *testing.T) {
	lib := NewPatternLibrary(0)
	lib.Store([]int{1, 23}, 0.1)
	lib.Store([]int{12, 3}, 0.2)
	if lib.Size() != 2 {
		t.Fatalf("[1,23] and [12,3] share a key: library holds %d patterns", lib.Size())
	}
	if s, ok := lib.Lookup([]int{1, 23}); !ok || s != 0.1 {
		t.Fatalf("[1,23] = %v ok=%v, want 0.1", s, ok)
	}
}

// Export emits least-recently-used first so Import rebuilds both the
// verdicts and the LRU order: the next eviction after a round trip hits
// the same pattern it would have hit in the original library.
func TestPatternLibraryExportImportPreservesLRUOrder(t *testing.T) {
	lib := NewPatternLibrary(3)
	lib.Store([]int{1, 1}, 0.1)
	lib.Store([]int{2, 2}, 0.2)
	lib.Store([]int{3, 3}, 0.3)
	// Refresh {1,1}: LRU order is now {2,2} oldest, then {3,3}, then {1,1}.
	if _, ok := lib.Lookup([]int{1, 1}); !ok {
		t.Fatal("expected hit")
	}

	entries := lib.Export()
	if len(entries) != 3 {
		t.Fatalf("exported %d entries, want 3", len(entries))
	}
	wantOrder := [][]int{{2, 2}, {3, 3}, {1, 1}}
	for i, e := range entries {
		if !reflect.DeepEqual(e.Seq, wantOrder[i]) {
			t.Fatalf("export position %d is %v, want %v", i, e.Seq, wantOrder[i])
		}
	}

	lib2 := NewPatternLibrary(3)
	lib2.Import(entries)
	if lib2.Size() != 3 {
		t.Fatalf("imported size %d, want 3", lib2.Size())
	}
	if s, ok := lib2.Lookup([]int{3, 3}); !ok || s != 0.3 {
		t.Fatalf("score for {3,3} = %v ok=%v", s, ok)
	}
	// Storing a fourth pattern must evict {2,2}, the least recently used
	// verdict of the exporting library. A Lookup of {3,3} just refreshed
	// it, so {2,2} is still oldest.
	lib2.Store([]int{4, 4}, 0.4)
	if _, ok := lib2.Lookup([]int{2, 2}); ok {
		t.Fatal("{2,2} should have been evicted first after the round trip")
	}
	for _, seq := range [][]int{{3, 3}, {1, 1}, {4, 4}} {
		if _, ok := lib2.Lookup(seq); !ok {
			t.Fatalf("%v missing after eviction", seq)
		}
	}
}

// Importing into a smaller library keeps the most recently used entries,
// exactly as if the verdicts had been stored live.
func TestPatternLibraryImportRespectsCap(t *testing.T) {
	lib := NewPatternLibrary(0)
	lib.Store([]int{1}, 0.1)
	lib.Store([]int{2}, 0.2)
	lib.Store([]int{3}, 0.3)

	small := NewPatternLibrary(2)
	small.Import(lib.Export())
	if small.Size() != 2 {
		t.Fatalf("size %d, want 2", small.Size())
	}
	if _, ok := small.Lookup([]int{1}); ok {
		t.Fatal("oldest entry survived a capped import")
	}
	if _, ok := small.Lookup([]int{3}); !ok {
		t.Fatal("newest entry lost in a capped import")
	}
}

// SyncTable after a parser import must assign every imported event id the
// vector of its own template. The trap it guards against: lazy extension
// in parseLine grows the table with the template of the line at hand,
// which mis-assigns vectors when ids arrive out of discovery order — so a
// synced pipeline fed a permuted stream must score identically to a fresh
// pipeline discovering the same stream naturally.
func TestSyncTableCoversImportedEvents(t *testing.T) {
	// Teach a donor pipeline all six templates in canonical order.
	det, parser, interp, e := tinyDeployment(t)
	p := New(DefaultConfig("x"), parser, det, interp, e, &MemorySink{})
	k := NewKeyed(p)
	for _, line := range chaosLines(12) {
		k.Feed("seed", line)
	}
	k.Flush()
	events := parser.Export()
	if len(events) != len(chaosTemplates) {
		t.Fatalf("donor discovered %d events, want %d", len(events), len(chaosTemplates))
	}

	// A permuted stream whose first line is the highest event id: without
	// SyncTable, lazy table extension would give ids 0..5 that line's
	// vector.
	var permuted []string
	for i := 0; i < 60; i++ {
		permuted = append(permuted, chaosTemplates[(len(chaosTemplates)-1+i)%len(chaosTemplates)])
	}

	det2, parser2, interp2, e2 := tinyDeployment(t)
	if err := parser2.Import(events); err != nil {
		t.Fatal(err)
	}
	p2 := New(DefaultConfig("x"), parser2, det2, interp2, e2, &MemorySink{})
	if err := p2.SyncTable(); err != nil {
		t.Fatal(err)
	}
	if det2.Table.Len() != len(events) {
		t.Fatalf("synced table has %d rows, want %d", det2.Table.Len(), len(events))
	}
	k2 := NewKeyed(p2)
	got := keyedCapture(k2, t)
	for _, line := range permuted {
		k2.Feed("key", line)
	}
	k2.Flush()
	if s := p2.Stats(); s.NewEvents != 0 {
		t.Fatalf("synced pipeline minted %d new events for known templates", s.NewEvents)
	}

	det3, parser3, interp3, e3 := tinyDeployment(t)
	p3 := New(DefaultConfig("x"), parser3, det3, interp3, e3, &MemorySink{})
	k3 := NewKeyed(p3)
	want := keyedCapture(k3, t)
	for _, line := range permuted {
		k3.Feed("key", line)
	}
	k3.Flush()

	if !reflect.DeepEqual(got["key"], want["key"]) {
		t.Fatalf("synced scores %v != fresh scores %v", got["key"], want["key"])
	}
}

// A template that generalizes after it was minted keeps the table row it
// was minted with: the live pipeline interpreted the first line's masked
// text when the event appeared, and the second line only widened the
// template to "<*>" afterwards. A parser restored from an export must
// rebuild that row, not one interpreted from the widened template — or the
// same window scores differently once the state has gone through a save
// and a restore (or a cutover's merge).
func TestSyncTableInterpretsTheMintedTemplate(t *testing.T) {
	lines := []string{
		"session opened for alice on console today",
		"session opened for bobby on console today",
	}
	for len(lines) < window.Default().Length {
		lines = append(lines, chaosTemplates[len(lines)%len(chaosTemplates)])
	}
	det, parser, interp, e := tinyDeployment(t)
	k := NewKeyed(New(DefaultConfig("x"), parser, det, interp, e))
	live := keyedCapture(k, t)
	for _, line := range lines {
		k.Feed("key", line)
	}
	k.Flush()
	events := parser.Export()
	if events[0].Template == strings.Join(strings.Fields(events[0].Example), " ") {
		t.Fatalf("fixture: event 0 never generalized past %q", events[0].Template)
	}

	det2, parser2, interp2, e2 := tinyDeployment(t)
	if err := parser2.Import(events); err != nil {
		t.Fatal(err)
	}
	p2 := New(DefaultConfig("x"), parser2, det2, interp2, e2)
	if err := p2.SyncTable(); err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if got, want := det2.Table.Interps[i].Text, det.Table.Interps[i].Text; got != want {
			t.Fatalf("restored event %d interprets as %q, the live row as %q", i, got, want)
		}
	}
	seq := make([]int, window.Default().Length)
	for i, line := range lines {
		seq[i] = parser.Parse(line).EventID
	}
	if got, want := det2.ScoreSequences([][]int{seq})[0], live["key"][0]; got != want {
		t.Fatalf("the restored pipeline scores the window %v, the live one %v", got, want)
	}
}

// TakeTails is the donor half of a key handoff: the selected keys leave
// with their exact window state, the rest stay, and a receiver that
// Restores the taken tails continues the moved keys' score sequences
// bit-identically.
func TestKeyedTakeTailsHandoff(t *testing.T) {
	lines := chaosLines(200)
	key := func(i int) string {
		if i%2 == 0 {
			return "moved"
		}
		return "kept"
	}

	// Reference: both keys run uninterrupted in one process.
	det, parser, interp, e := tinyDeployment(t)
	kRef := NewKeyed(New(DefaultConfig("x"), parser, det, interp, e, &MemorySink{}))
	want := keyedCapture(kRef, t)
	for i, line := range lines {
		kRef.Feed(key(i), line)
	}
	kRef.Flush()

	// Donor runs both keys up to an arbitrary cut, then hands "moved" off.
	const cut = 137
	det1, parser1, interp1, e1 := tinyDeployment(t)
	k1 := NewKeyed(New(DefaultConfig("x"), parser1, det1, interp1, e1, &MemorySink{}))
	got := keyedCapture(k1, t)
	for i := 0; i < cut; i++ {
		k1.Feed(key(i), lines[i])
	}
	k1.Flush()

	if taken := k1.TakeTails(func(k string) bool { return k == "absent" }); len(taken) != 0 {
		t.Fatalf("selector matching nothing returned %d tails", len(taken))
	}
	before := k1.Tails()["moved"]
	taken := k1.TakeTails(func(k string) bool { return k == "moved" })
	if !reflect.DeepEqual(taken["moved"], before) {
		t.Fatalf("taken tail %+v != snapshot %+v", taken["moved"], before)
	}
	if k1.Keys() != 1 {
		t.Fatalf("donor still tracks %d keys, want 1", k1.Keys())
	}
	if _, stillThere := k1.Tails()["moved"]; stillThere {
		t.Fatal("donor still holds the moved key's tail")
	}

	// Receiver is a fresh deployment over the donor's events.
	k2 := resumeFrom(t, k1, taken)
	got2 := keyedCapture(k2, t)

	for i := cut; i < len(lines); i++ {
		if key(i) == "moved" {
			k2.Feed("moved", lines[i])
		} else {
			k1.Feed("kept", lines[i])
		}
	}
	k1.Flush()
	k2.Flush()

	moved := append(append([]float64(nil), got["moved"]...), got2["moved"]...)
	if !reflect.DeepEqual(moved, want["moved"]) {
		t.Fatalf("moved key scores %v != reference %v", moved, want["moved"])
	}
	if !reflect.DeepEqual(got["kept"], want["kept"]) {
		t.Fatalf("kept key scores %v != reference %v", got["kept"], want["kept"])
	}
}

// The table grows one way: a line whose event id is past the table's end
// extends it through SyncTable. A parser imported without a sync and then
// fed a line that mints a new event must give every missing row its own
// minted template — the same table a synced pipeline builds — and count
// each row added as a new event, not grow every row from the line at hand.
func TestParseLineExtendsThroughSyncTable(t *testing.T) {
	det, parser, interp, e := tinyDeployment(t)
	k := NewKeyed(New(DefaultConfig("x"), parser, det, interp, e, &MemorySink{}))
	for _, line := range chaosLines(12) {
		k.Feed("seed", line)
	}
	k.Flush()
	events := parser.Export()
	const fresh = "worker pool resized to 8 threads"

	imported := func(sync bool) (*Pipeline, *core.Detector) {
		det, parser, interp, e := tinyDeployment(t)
		if err := parser.Import(events); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig("x")
		cfg.Metrics = obs.NewRegistry() // Stats reads this pipeline's counters alone
		p := New(cfg, parser, det, interp, e, &MemorySink{})
		if sync {
			if err := p.SyncTable(); err != nil {
				t.Fatal(err)
			}
		}
		NewKeyed(p).Feed("key", fresh)
		return p, det
	}
	lazy, got := imported(false)
	_, want := imported(true)
	if n := got.Table.Len(); n != len(events)+1 {
		t.Fatalf("the table has %d rows after the line minted event %d", n, len(events))
	}
	for i, in := range want.Table.Interps {
		if got.Table.Interps[i] != in {
			t.Errorf("row %d interprets %q, want its minted template's %q", i, got.Table.Interps[i].Template, in.Template)
		}
	}
	if !reflect.DeepEqual(got.Table.Vectors, want.Table.Vectors) {
		t.Error("the lazily grown table embeds different vectors than the synced one")
	}
	if s := lazy.Stats(); s.NewEvents != len(events)+1 {
		t.Errorf("the line counted %d new events, want the %d rows it added", s.NewEvents, len(events)+1)
	}
}
