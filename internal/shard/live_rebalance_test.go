package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/fault"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
)

// The live-cutover proof: fixed-seed multi-key traffic keeps flowing
// while the fleet moves from N to M partitions in place — growing by one
// (from the single partition a default serve starts with, too), growing by
// two, shrinking — and the combined output is bit-identical to
// the unsharded keyed reference: per-key score sequences score by score,
// alert multisets signature by signature. Traffic is injected from the
// cutover's own hook points, so "under traffic" is deterministic, not a
// race: batches land exactly at begin, mid-pause, and first commit. The suite further proves non-moving keys never stall under
// growth (their watermarks and score counts advance while the cutover is
// paused) and resume by the finish under a shrink, records redelivered
// after a cutover are never detected twice (offset rollback redelivers
// them into the skip-prefix, and a retired partition reopened by a later
// growth resumes past its WAL), and a crash at every per-move phase resumes on exactly one
// layout per key.

// livePlans are the cutovers the under-traffic suites run.
var livePlans = []struct{ from, to int }{{1, 2}, {2, 3}, {2, 4}, {3, 2}}

// liveMovingKeys splits keys by whether the from→to cutover moves them.
func liveMovingKeys(keys []string, from, to int) (moving, staying []string) {
	oldRing, newRing := NewPartitioner(from), NewPartitioner(to)
	for _, k := range keys {
		if oldRing.Partition(k) != newRing.Partition(k) {
			moving = append(moving, k)
		} else {
			staying = append(staying, k)
		}
	}
	return moving, staying
}

// liveNewMovingKey finds a key outside the fixture set that the cutover
// moves — introduced only mid-cutover, it exercises the straggler path:
// no donor tail, in its destination's WAL only, handed over by the finish
// flip.
func liveNewMovingKey(existing []string, from, to int) string {
	oldRing, newRing := NewPartitioner(from), NewPartitioner(to)
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

// scoredWindows reads how many windows the harness has seen for key.
func (h *shardHarness) scoredWindows(key string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.scores[key])
}

func TestLiveRebalanceEquivalenceUnderTraffic(t *testing.T) {
	for _, plan := range livePlans {
		t.Run(fmt.Sprintf("%d→%d", plan.from, plan.to), func(t *testing.T) {
			liveEquivalenceUnderTraffic(t, plan.from, plan.to, genEqLines, false)
		})
	}
	// genEqLines never repeats a window, so the pattern library never
	// answers one there; this traffic's windows recur, and the library
	// answers some of them on both sides of the cutover.
	t.Run("repeating", func(t *testing.T) {
		for _, plan := range livePlans {
			t.Run(fmt.Sprintf("%d→%d", plan.from, plan.to), func(t *testing.T) {
				liveEquivalenceUnderTraffic(t, plan.from, plan.to, genMemoLines, true)
			})
		}
	})
}

// liveEquivalenceUnderTraffic runs a from→to cutover over traffic gen
// renders, fed at its hook points, and holds the output to the unsharded
// reference; with libraryHits, the runtime must also have answered
// windows from its pattern library.
func liveEquivalenceUnderTraffic(t *testing.T, from, to int, gen func(seed int64, n int, keys []string) []string, libraryHits bool) {
	label := fmt.Sprintf("live %d→%d under traffic", from, to)
	keys := eqKeys(12)
	moving, staying := liveMovingKeys(keys, from, to)
	if len(moving) == 0 || len(staying) == 0 {
		t.Fatalf("fixture needs both moving and staying keys (got %d moving, %d staying)", len(moving), len(staying))
	}
	newKey := liveNewMovingKey(keys, from, to)

	pre := gen(42, 1500, keys)
	midA := append(gen(43, 300, keys), gen(44, 60, []string{newKey})...)
	stall := gen(45, 80, []string{staying[0]})
	midB := gen(46, 300, keys)
	post := gen(47, 1500, keys)

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
	h := openHarness(t, dir, from, nil)
	h.feed(t, pre)

	// awaitStaying waits until the staying key has scored past before
	// and, when asked, its partition's committed watermark has advanced.
	stayPart := h.rt.PartitionFor(staying[0])
	awaitStaying := func(when string, scoresBefore int, committedBefore uint64, needCommit bool) {
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			scored, committed := h.scoredWindows(staying[0]), h.rt.Committed(stayPart)
			if scored > scoresBefore && (!needCommit || committed > committedBefore) {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("staying key %s stalled %s: %d→%d windows, watermark %d→%d",
					staying[0], when, scoresBefore, scored, committedBefore, committed)
				return
			}
		}
	}
	fedMidA, fedMidB, stalled, scoresAtStall := false, false, false, 0
	var freeze []uint64
	report, err := h.rt.liveRebalance(to, func(phase, key string) error {
		switch {
		case phase == "begun" && !fedMidA:
			// Traffic lands the instant the cutover begins: moving keys
			// (including one the fleet has never seen) land in their
			// destinations' WALs alone, staying keys flow untouched.
			fedMidA = true
			freeze = slices.Clone(h.rt.cut.Load().freeze)
			h.feed(t, midA)
		case phase == "tail-landed" && !stalled:
			// Run while the cutover is mid-pause, before any moving key is
			// committed. Growth — zero stall: a staying key's partition
			// receives no key, so its traffic must keep scoring and its
			// committed watermark must strictly advance right now. Shrink:
			// the staying key's partition is a destination, and its worker
			// may be parked on an uncommitted moving key's record queued
			// ahead of this traffic; the bound is the finish flip, which
			// hands every key over — checked once the cutover returns.
			stalled = true
			scoresAtStall = h.scoredWindows(staying[0])
			committedBefore := h.rt.Committed(stayPart)
			h.feed(t, stall)
			if to > from {
				awaitStaying("mid-cutover", scoresAtStall, committedBefore, true)
			}
		case phase == "committed" && !fedMidB:
			// Traffic after the first move flips to destination-only routing.
			fedMidB = true
			h.feed(t, midB)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("LiveRebalance: %v", err)
	}
	if !fedMidA || !fedMidB || !stalled {
		t.Fatalf("hook points missed: begun %v, tail-landed %v, committed %v", fedMidA, stalled, fedMidB)
	}
	awaitStaying("past the finish", scoresAtStall, 0, false)
	if report.From != from || report.To != to {
		t.Fatalf("report %d→%d, want %d→%d", report.From, report.To, from, to)
	}
	if report.MovedKeys == 0 {
		t.Fatal("live rebalance moved no keys")
	}
	if got := h.rt.Shards(); got != to {
		t.Fatalf("Shards() = %d after live rebalance, want %d", got, to)
	}
	if got := len(h.rt.Owned()); got != to {
		t.Fatalf("runtime serves %d partitions after live rebalance, want %d", got, to)
	}
	if _, err := os.Stat(filepath.Join(dir, CutoverJournalName)); !os.IsNotExist(err) {
		t.Fatalf("cutover journal still present after a completed live rebalance (stat err %v)", err)
	}
	requireTailsOnNewRing(t, h.rt, to)
	newRing := NewPartitioner(to)
	for _, k := range moving {
		if got, want := h.rt.PartitionFor(k), newRing.Partition(k); got != want {
			t.Fatalf("moved key %s routes to partition %d after the cutover, want %d", k, got, want)
		}
	}

	h.feed(t, post)
	h.drain(t)
	stats := h.rt.Stats()
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	requireEqual(t, label, h.result(), ref)
	if libraryHits && stats.PatternHits == 0 {
		t.Fatalf("%s: no window of %d was answered from the pattern library", label, stats.SequencesFormed)
	}
	requireNoDonorCopies(t, dir, from, to, freeze)

	// The new layout is a first-class deployment: a plain reopen at the
	// new count must come up clean with nothing to re-detect.
	h2 := openHarness(t, dir, to, nil)
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("reopen Close: %v", err)
	}
	if res := h2.result(); len(res.scores) != 0 || h2.rt.Stats().LinesCollected != 0 {
		t.Fatalf("reopen after live rebalance re-detected: %d keys, %d lines", len(res.scores), h2.rt.Stats().LinesCollected)
	}
}

// requireNoDonorCopies fails if any donor's WAL holds a record at or past
// the donor's freeze point whose key the from→to cutover moved away from
// it: from begin, a moving key's line lands in its destination alone. It
// also fails if no donor holds any record past its freeze point, which
// would leave the check vacuous.
func requireNoDonorCopies(t *testing.T, dir string, from, to int, freeze []uint64) {
	t.Helper()
	if len(freeze) != from {
		t.Fatalf("captured %d freeze offsets for %d donors", len(freeze), from)
	}
	oldRing, newRing := NewPartitioner(from), NewPartitioner(to)
	past := 0
	for d := 0; d < from; d++ {
		err := broker.ReadLog(PartitionDir(dir, d), func(off uint64, p []byte) error {
			if off < freeze[d] {
				return nil
			}
			past++
			if key := DefaultKeyFunc(string(p)); oldRing.Partition(key) == d && newRing.Partition(key) != d {
				return fmt.Errorf("offset %d (freeze %d) holds moving key %s's line %q", off, freeze[d], key, p)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("donor partition %d's WAL: %v", d, err)
		}
	}
	if past == 0 {
		t.Fatal("no donor's WAL holds a record past its freeze point; the check is vacuous")
	}
}

// The pattern library is a memo of the model's own score: with it on,
// off and capped at 4 entries, the same traffic gives byte-identical
// per-key reports — every key's scores bit for bit and the alert
// multiset — at 1 and 2 shards and through a 2→3 live cutover fed at
// begin and at its first commit, and each equals the unsharded
// reference's. No verdict the library holds, stored live, evicted or
// handed over, changes a score; it changes only whether the model runs.
func TestLiveRebalanceLibraryIsAMemo(t *testing.T) {
	keys := eqKeys(12)
	pre, mid, post := genMemoLines(91, 1200, keys), genMemoLines(92, 300, keys), genMemoLines(93, 1200, keys)
	var stream []string
	for _, seg := range [][]string{pre, mid, post} {
		stream = append(stream, seg...)
	}
	ref := runReference(t, stream)
	if len(ref.alerts) == 0 {
		t.Fatal("reference produced no alerts; the comparison is vacuous")
	}
	want := perKeyReport(t, ref)

	libraries := []struct {
		name string
		set  func(*pipeline.Config)
		ok   func(pipeline.Stats) bool
	}{
		{"library on", func(*pipeline.Config) {}, func(s pipeline.Stats) bool { return s.PatternHits > 0 }},
		{"library off", func(c *pipeline.Config) { c.DisablePatternLibrary = true }, func(s pipeline.Stats) bool { return s.PatternHits == 0 }},
		{"library capped at 4", func(c *pipeline.Config) { c.PatternCap = 4 }, func(s pipeline.Stats) bool { return s.PatternEvictions > 0 }},
	}
	for _, lib := range libraries {
		for _, run := range []struct{ from, to int }{{1, 1}, {2, 2}, {2, 3}} {
			label := fmt.Sprintf("%s, %d→%d", lib.name, run.from, run.to)
			h := openHarness(t, t.TempDir(), run.from, func(cfg *Config) { lib.set(&cfg.Pipeline) })
			h.feed(t, pre)
			if run.to == run.from {
				h.feed(t, mid)
			} else {
				fedA, fedB := false, false
				if _, err := h.rt.liveRebalance(run.to, func(phase, _ string) error {
					switch {
					case phase == "begun" && !fedA:
						fedA = true
						h.feed(t, mid[:150])
					case phase == "committed" && !fedB:
						fedB = true
						h.feed(t, mid[150:])
					}
					return nil
				}); err != nil {
					t.Fatalf("%s: LiveRebalance: %v", label, err)
				}
				if !fedA || !fedB {
					t.Fatalf("%s: hook points missed: begun %v, committed %v", label, fedA, fedB)
				}
			}
			h.feed(t, post)
			h.drain(t)
			stats := h.rt.Stats()
			if err := h.rt.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
			t.Logf("%s: %d windows, %d library hits, %d evictions", label, stats.SequencesFormed, stats.PatternHits, stats.PatternEvictions)
			if !lib.ok(stats) {
				t.Fatalf("%s: the library did not act as set (%d hits, %d evictions)", label, stats.PatternHits, stats.PatternEvictions)
			}
			if got := perKeyReport(t, h.result()); !bytes.Equal(got, want) {
				t.Fatalf("%s: per-key reports differ from the unsharded reference's\n got %.300s\nwant %.300s", label, got, want)
			}
		}
	}
}

// A move's splice holds the move's tails and the donor's events, not its
// pattern verdicts: its JSON size is the same whether the donor's library
// holds 0, 1 000 or 10 000 verdicts.
func TestLiveRebalanceSpliceCarriesNoVerdicts(t *testing.T) {
	h := openHarness(t, t.TempDir(), 1, nil)
	h.feed(t, genEqLines(94, 600, eqKeys(12)))
	h.drain(t)
	sizes := map[int]int{}
	if _, err := h.rt.liveRebalance(2, func(phase, move string) error {
		if phase != "tail-landed" {
			return nil
		}
		var m Move
		if err := m.UnmarshalText([]byte(move)); err != nil {
			return err
		}
		lib := h.rt.partitionAt(m.Donor).pipe.Library()
		for planted, n := 0, 0; n <= 10000; n *= 10 {
			for ; planted < n; planted++ {
				lib.Store([]int{planted, 1, 2, 3, 4, 5, 6, 7, 8, 9}, float64(planted%97)/97)
			}
			sp, err := h.rt.CaptureMove(m)
			if err != nil {
				return err
			}
			b, err := json.Marshal(sp)
			if err != nil {
				return err
			}
			sizes[n] = len(b)
			if n == 0 {
				n = 100
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("LiveRebalance: %v", err)
	}
	if err := h.rt.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("splice bytes by planted verdicts: %v", sizes)
	if len(sizes) != 3 || sizes[0] == 0 || sizes[1000] != sizes[0] || sizes[10000] != sizes[0] {
		t.Fatalf("splice bytes by planted verdicts %v, want one size for 0, 1000 and 10000", sizes)
	}
}

// perKeyReport renders a run's output as bytes: every key's scores in
// hex, bit for bit, and the alert multiset.
func perKeyReport(t *testing.T, res eqResult) []byte {
	t.Helper()
	scores := make(map[string][]string, len(res.scores))
	for k, seq := range res.scores {
		for _, s := range seq {
			scores[k] = append(scores[k], strconv.FormatFloat(s, 'x', -1, 64))
		}
	}
	b, err := json.Marshal(struct {
		Scores map[string][]string `json:"scores"`
		Alerts map[string]int      `json:"alerts"`
	}{scores, res.alerts})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A partition retired by a live shrink is closed at its WAL tail, and a
// later growth reopens its directory as a destination under a ring that
// routes its old keys back to it. Here traffic lands once the donors'
// tails have landed, and the retired partition's reads are slowed from
// then on: the regrown partition must resume past everything the
// directory holds, or the moved keys' sequences gain duplicate windows.
func TestLiveRebalanceShrinkThenRegrow(t *testing.T) {
	t.Run("3→2→3", func(t *testing.T) { liveRoundTrip(t, []int{3, 2, 3}, func(i int) bool { return i == 2 }) })
	// Regrown a step at a time, the second step reopens a directory whose
	// stamp (the shrink's target) is neither of that step's two counts.
	t.Run("4→2→3→4", func(t *testing.T) { liveRoundTrip(t, []int{4, 2, 3, 4}, func(i int) bool { return i >= 2 }) })
}

// The mirror case: a shrink right after a growth hands the partitions
// that survived it the same keys back while their slowed workers still
// lag their WALs. A survivor counts as those keys' traffic only what it
// holds at or past its own freeze point: taking an older record of theirs
// for it would park the worker below its freeze point, where its tail
// would never land and the cutover would hang.
func TestLiveRebalanceGrowThenShrink(t *testing.T) {
	liveRoundTrip(t, []int{2, 3, 2}, func(i int) bool { return i < 2 })
}

// liveRoundTrip moves a runtime along path (its first count is the one it
// opens at) under traffic and holds the result to the unsharded
// reference. The partitions slow selects read at 2 ms a record from the
// moment the first cutover's tails have landed (traffic is fed right
// then) until the second cutover has begun, so what they take in that
// span is still unconsumed at the first finish and at the second begin.
func liveRoundTrip(t *testing.T, path []int, slow func(i int) bool) {
	keys := eqKeys(12)
	segs := make([][]string, 3*len(path)-2)
	var stream []string
	for i := range segs {
		segs[i] = genEqLines(int64(60+i), 500, keys)
		stream = append(stream, segs[i]...)
	}
	ref := runReference(t, stream)

	slowed := fault.New(1)
	dir := t.TempDir()
	h := openHarness(t, dir, path[0], func(cfg *Config) {
		cfg.ShardFaults = func(i int) *fault.Registry {
			if slow(i) {
				return slowed
			}
			return nil
		}
	})
	h.feed(t, segs[0])
	next := 1
	for step, to := range path[1:] {
		was, fed := h.rt.Shards(), 0
		if _, err := h.rt.liveRebalance(to, func(phase, key string) error {
			switch {
			case step == 0 && phase == "tail-landed" && fed == 0:
				slowed.Enable(fault.Rule{Point: broker.PointRead, Delay: 2 * time.Millisecond})
			case step == 1 && phase == "begun":
				slowed.Disable(broker.PointRead)
			}
			if (phase == "tail-landed" && fed == 0) || (phase == "finish" && fed == 1) {
				h.feed(t, segs[next])
				next++
				fed++
			}
			return nil
		}); err != nil {
			t.Fatalf("LiveRebalance %d→%d: %v", was, to, err)
		}
		if got := len(h.rt.Health()); got != to {
			t.Fatalf("runtime reports %d partitions after %d→%d", got, was, to)
		}
		for i := to; i < was; i++ {
			st, err := loadState(statePath(PartitionDir(dir, i)))
			if err != nil {
				t.Fatal(err)
			}
			if st.Partitions != to || len(st.Tails) != 0 {
				t.Fatalf("retired partition %d is stamped %d with %d tails, want stamp %d and none", i, st.Partitions, len(st.Tails), to)
			}
		}
		h.feed(t, segs[next])
		next++
	}
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	requireEqual(t, fmt.Sprintf("live %v under traffic", path), h.result(), ref)
}

// A cutover hands keys over one move at a time: a 2→3 growth over more
// than a hundred moving keys is two moves, 0>2 and 1>2, and pays per move,
// not per key — each move commits once, lands in the destination's
// snapshot with one install and takes one journal entry —
// while the report still counts keys and tail ids: every moving key with
// a window tail, and its tail's ids, as the unsharded reference holds
// them. The destination numbers its events apart from the reference, so
// its tails are compared template by template.
func TestLiveRebalanceOneStepPerMove(t *testing.T) {
	keys := eqKeys(360)
	pre := genEqLines(81, 3600, keys)
	ref := runReference(t, pre)
	moving, _ := liveMovingKeys(keys, 2, 3)
	if len(moving) < 100 {
		t.Fatalf("fixture moves %d keys, want at least 100", len(moving))
	}
	wantKeys, wantLines := 0, 0
	for _, k := range moving {
		if tail, ok := ref.tails[k]; ok {
			wantKeys++
			wantLines += len(tail.IDs)
		}
	}

	dir := t.TempDir()
	h := openHarness(t, dir, 2, nil)
	h.feed(t, pre)
	h.drain(t)
	jpath := filepath.Join(dir, CutoverJournalName)
	oldRing, installed := NewPartitioner(2), map[string]bool{}
	fired := map[string][]string{}
	maxEntries := 0
	rep, err := h.rt.liveRebalance(3, func(phase, move string) error {
		fired[phase] = append(fired[phase], move)
		j, err := LoadCutoverJournal(jpath)
		if err != nil || j == nil {
			return fmt.Errorf("journal at %s: %v, %v", phase, j, err)
		}
		maxEntries = max(maxEntries, len(j.Committed))
		if phase == "staged" {
			// One install per move: the destination's snapshot holds the
			// tails of the moves staged so far, and of no other key.
			installed[move] = true
			want := map[string]pipeline.WindowTail{}
			for _, k := range moving {
				if tail, ok := ref.tails[k]; ok && installed[fmt.Sprintf("%d>2", oldRing.Partition(k))] {
					want[k] = tail
				}
			}
			st, err := loadState(statePath(PartitionDir(dir, 2)))
			if err != nil {
				return err
			}
			same, destParser := len(st.Tails) == len(want), snapshotParser(t, st)
			for k, tail := range st.Tails {
				same = same && sameTail(tail, destParser, want[k], ref.parser)
			}
			if !same {
				t.Errorf("at %s staged the destination's snapshot holds %d tails, want the %d of the moves installed so far",
					move, len(st.Tails), len(want))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("LiveRebalance: %v", err)
	}
	wantMoves := []string{"0>2", "1>2"}
	for _, phase := range []string{"tail-landed", "staged", "committed"} {
		if !reflect.DeepEqual(fired[phase], wantMoves) {
			t.Errorf("%q fired for %v, want once per move: %v", phase, fired[phase], wantMoves)
		}
	}
	if maxEntries > 2*3 || maxEntries != len(wantMoves) {
		t.Errorf("the journal held up to %d entries; want one per move (%d), never more than From×To", maxEntries, len(wantMoves))
	}
	if rep.MovedKeys != wantKeys || rep.MovedLines != wantLines {
		t.Errorf("moved %d keys (%d tail ids), the reference holds tails for %d moving keys (%d ids)",
			rep.MovedKeys, rep.MovedLines, wantKeys, wantLines)
	}
	if err := h.rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// A move's splice lands in its destination's snapshot before the journal
// commits the move, and nowhere else: no hook of a 2→3 growth over more
// than a hundred moving keys finds a splice file, and at "staged" the
// destination's shard-state.json holds the move's tails while the journal
// does not name the move. A crash at the second move's "staged" reopens at
// 3, installs that move again over its uncommitted copy and ends equal to
// the reference, every key's tail on exactly one partition. The snapshot's
// tails are read through its own events, template by template.
func TestLiveRebalanceInstallsBeforeCommit(t *testing.T) {
	keys := eqKeys(360)
	pre, post := genEqLines(81, 3600, keys), genEqLines(82, 1800, keys)
	preRef := runReference(t, pre)
	ref := runReference(t, append(append([]string(nil), pre...), post...))
	moving, _ := liveMovingKeys(keys, 2, 3)
	if len(moving) < 100 {
		t.Fatalf("fixture moves %d keys, want at least 100", len(moving))
	}

	dir := t.TempDir()
	h := openHarness(t, dir, 2, nil)
	h.feed(t, pre)
	h.drain(t)
	oldRing, jpath := NewPartitioner(2), filepath.Join(dir, CutoverJournalName)
	boom := errors.New("injected crash")
	staged := 0
	_, err := h.rt.liveRebalance(3, func(phase, move string) error {
		if files, _ := filepath.Glob(filepath.Join(dir, "p*", "cutover-splice-*")); len(files) != 0 {
			t.Errorf("at %s %s the cutover holds splice files %v", phase, move, files)
		}
		if phase != "staged" {
			return nil
		}
		var m Move
		if err := m.UnmarshalText([]byte(move)); err != nil {
			return err
		}
		j, err := LoadCutoverJournal(jpath)
		if err != nil || j == nil {
			return fmt.Errorf("journal at %s staged: %v, %v", move, j, err)
		}
		if slices.Contains(j.Committed, m) {
			t.Errorf("at %s staged the journal already lists the move committed", move)
		}
		st, err := loadState(statePath(PartitionDir(dir, m.Dest)))
		if err != nil {
			return err
		}
		carried, destParser := 0, snapshotParser(t, st)
		for _, k := range moving {
			if want, ok := preRef.tails[k]; ok && oldRing.Partition(k) == m.Donor {
				carried++
				if got := st.Tails[k]; !sameTail(got, destParser, want, preRef.parser) {
					t.Errorf("at %s staged the destination's snapshot holds %+v for key %s, want %+v", move, got, k, want)
				}
			}
		}
		if carried == 0 {
			t.Errorf("move %s carries no tail; the check is vacuous", move)
		}
		if staged++; staged == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("LiveRebalance error = %v, want the injected crash at the second move's staged", err)
	}
	h.drain(t)
	h.rt.Kill()

	h2 := reopenHarness(t, dir, 3, h)
	requireTailsOnNewRing(t, h2.rt, 3)
	h2.feed(t, post)
	h2.drain(t)
	requireTailsOnNewRing(t, h2.rt, 3)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close after resume: %v", err)
	}
	requireEqual(t, "crash at the second move's staged", h2.result(), ref)
}

// A move's journal commit is its one commit point: by the "committed"
// hook its keys route to the destination alone and the destination's
// consumer feeds them. Lines that complete a window for a key of the move,
// appended at that hook, are scored on the destination before the hook
// returns. No traffic flows between the begin and the commits, so no
// record of a move still pending sits ahead of them in the destination's
// WAL.
func TestLiveRebalanceDestinationFeedsAtCommit(t *testing.T) {
	keys := eqKeys(12)
	moving, _ := liveMovingKeys(keys, 2, 3)
	var onDest atomic.Int64 // windows scored on partition 2, the destination
	h := openHarness(t, t.TempDir(), 2, func(cfg *Config) {
		observe := cfg.OnWindow
		cfg.OnWindow = func(shard int, key string, seq []int, score float64, abandoned bool) {
			observe(shard, key, seq, score, abandoned)
			if shard == 2 {
				onDest.Add(1)
			}
		}
	})
	h.feed(t, genEqLines(71, 600, keys))
	h.drain(t)
	oldRing, fed := NewPartitioner(2), 0
	_, err := h.rt.liveRebalance(3, func(phase, move string) error {
		if phase != "committed" {
			return nil
		}
		var m Move
		if err := m.UnmarshalText([]byte(move)); err != nil {
			return err
		}
		i := slices.IndexFunc(moving, func(k string) bool { return oldRing.Partition(k) == m.Donor })
		if i < 0 {
			return nil
		}
		before := onDest.Load()
		h.feed(t, genEqLines(72, 10, moving[i:i+1]))
		for deadline := time.Now().Add(10 * time.Second); onDest.Load() == before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("at %s committed the destination scored no window of key %s within 10 s", move, moving[i])
				break
			}
		}
		fed++
		return nil
	})
	if err != nil {
		t.Fatalf("LiveRebalance: %v", err)
	}
	if fed == 0 {
		t.Fatal("no committed move had a fixture key to feed")
	}
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// A coordinator can die between a commit's journal write and its syncs;
// the next one re-begins every participant with the journal's committed
// moves. The re-begin scrubs as the sync would have: the donor drops the
// move's tails, and its next snapshot lists none of them, while the
// destination's tails — the installed splice — stay as they were.
func TestLiveRebalanceRebeginScrubsCommittedMove(t *testing.T) {
	dir := t.TempDir()
	h := openHarness(t, dir, 2, nil)
	h.feed(t, genEqLines(73, 1200, eqKeys(40)))
	h.drain(t)
	m, oldRing, newRing := Move{0, 2}, NewPartitioner(2), NewPartitioner(3)
	ofMove := func(idx int) map[string]pipeline.WindowTail {
		h.rt.routeMu.RLock()
		pt := h.rt.byIdx[idx]
		h.rt.routeMu.RUnlock()
		pt.feedMu.Lock()
		defer pt.feedMu.Unlock()
		tails := pt.keyed.Tails()
		for k := range tails {
			if (Move{oldRing.Partition(k), newRing.Partition(k)}) != m {
				delete(tails, k)
			}
		}
		return tails
	}
	jpath, boom := filepath.Join(dir, CutoverJournalName), errors.New("coordinator died after the journal write")
	var installed map[string]pipeline.WindowTail
	_, err := h.rt.liveRebalance(3, func(phase, move string) error {
		if phase != "staged" || move != m.String() {
			return nil
		}
		installed = ofMove(m.Dest)
		if len(installed) == 0 || len(ofMove(m.Donor)) != len(installed) {
			t.Fatalf("fixture: at %s staged the donor holds %d of the move's tails, the destination %d", move, len(ofMove(m.Donor)), len(installed))
		}
		j, err := LoadCutoverJournal(jpath)
		if err != nil {
			return err
		}
		j.Committed = append(j.Committed, m)
		if err := j.save(jpath); err != nil {
			return err
		}
		if _, err := h.rt.BeginCutover(j.Spec(true), nil); err != nil {
			return err
		}
		if got := ofMove(m.Donor); len(got) != 0 {
			t.Errorf("after the re-begin the donor still holds %d tails of committed move %v", len(got), m)
		}
		if got := ofMove(m.Dest); !reflect.DeepEqual(got, installed) {
			t.Errorf("the re-begin changed the destination's tails of move %v", m)
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("LiveRebalance error = %v, want the injected failure", err)
	}
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatal(err)
	}
	for idx, want := range map[int]int{m.Donor: 0, m.Dest: len(installed)} {
		st, err := loadState(statePath(PartitionDir(dir, idx)))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for k := range st.Tails {
			if (Move{oldRing.Partition(k), newRing.Partition(k)}) == m {
				n++
			}
		}
		if n != want {
			t.Errorf("partition %d's snapshot lists %d tails of move %v, want %d", idx, n, m, want)
		}
	}
	h2 := reopenHarness(t, dir, 3, h)
	requireTailsOnNewRing(t, h2.rt, 3)
	if err := h2.rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// A crash between a commit's journal write and its syncs leaves the
// move's tails on its donor as well as in its destination's snapshot. The
// reopen scrubs them from the donor by the journal and ends equal to the
// reference, every key's tail on exactly one partition.
func TestLiveRebalanceCrashAfterCommitWrite(t *testing.T) {
	keys := eqKeys(10)
	pre, post := genEqLines(21, 1200, keys), genEqLines(23, 1200, keys)
	ref := runReference(t, append(append([]string(nil), pre...), post...))
	dir := t.TempDir()
	h := openHarness(t, dir, 2, nil)
	h.feed(t, pre)
	h.drain(t)
	jpath, boom := filepath.Join(dir, CutoverJournalName), errors.New("crash after the journal write")
	_, err := h.rt.liveRebalance(3, func(phase, move string) error {
		if phase != "staged" {
			return nil
		}
		var m Move
		if err := m.UnmarshalText([]byte(move)); err != nil {
			return err
		}
		j, err := LoadCutoverJournal(jpath)
		if err != nil {
			return err
		}
		j.Committed = append(j.Committed, m)
		if err := j.save(jpath); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("LiveRebalance error = %v, want the injected crash", err)
	}
	h.drain(t)
	h.rt.Kill()

	h2 := reopenHarness(t, dir, 3, h)
	requireTailsOnNewRing(t, h2.rt, 3)
	h2.feed(t, post)
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close after resume: %v", err)
	}
	requireEqual(t, "crash after a commit's journal write", h2.result(), ref)
}

// A fleet node that restarts mid-cutover opens from the coordinator's
// spec and serves passively until the coordinator re-begins it; its open
// alone already scrubs a committed move's keys from the donor, whose
// snapshot still holds them.
func TestLiveRebalanceNodeOpenScrubsCommittedMove(t *testing.T) {
	dir := t.TempDir()
	h := openHarness(t, dir, 2, nil)
	h.feed(t, genEqLines(73, 1200, eqKeys(40)))
	h.drain(t)
	spec := CutoverSpec{From: 2, To: 3, Freeze: map[int]uint64{}, Committed: []Move{{0, 2}}, Dest: true}
	for i, pt := range h.rt.byIdx {
		spec.Freeze[i] = pt.bk.NextOffset()
	}
	if err := h.rt.Close(); err != nil {
		t.Fatal(err)
	}
	oldRing, newRing := NewPartitioner(2), NewPartitioner(3)
	moved := func(k string) bool { return oldRing.Partition(k) == 0 && newRing.Partition(k) == 2 }
	st, err := loadState(statePath(PartitionDir(dir, 0)))
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for k := range st.Tails {
		if moved(k) {
			held++
		}
	}
	if held == 0 {
		t.Fatal("fixture: the donor's snapshot holds no tail of move 0>2")
	}

	node := openHarness(t, dir, 3, func(cfg *Config) { cfg.Cutover = &spec })
	defer node.rt.Kill()
	donor := node.rt.byIdx[0]
	donor.feedMu.Lock()
	defer donor.feedMu.Unlock()
	for k := range donor.keyed.Tails() {
		if moved(k) {
			t.Errorf("the reopened donor holds a tail of key %s, whose move 0>2 the spec commits", k)
		}
	}
}

// A finish that completed on the runtime while the journal's removal
// failed leaves the journal naming only the moves that had donor tails. A
// move none of whose keys has any history before the freeze point is never
// journaled, and its destination feeds its keys once the finish hands
// them over. A restart that finds the journal must keep those tails: recovery
// scrubs a committed move's keys from every partition but its destination
// and leaves an uncommitted move's keys where they are.
func TestLiveRebalanceRestartAfterFinishKeepsUnjournaledTails(t *testing.T) {
	oldRing, newRing := NewPartitioner(2), NewPartitioner(3)
	var keys []string
	for _, k := range eqKeys(40) {
		if oldRing.Partition(k) == 0 || newRing.Partition(k) == 1 {
			keys = append(keys, k) // no key with history moves 1>2
		}
	}
	newKey := liveNewMovingKey(keys, 2, 3)
	for tried := keys; oldRing.Partition(newKey) != 1; {
		tried = append(tried, newKey)
		newKey = liveNewMovingKey(tried, 2, 3)
	}
	pre := genEqLines(41, 1200, keys)
	mid := genEqLines(42, 120, []string{newKey}) // in its destination's WAL only: no donor tail
	post := genEqLines(43, 1200, append(keys, newKey))
	ref := runReference(t, append(append(append([]string(nil), pre...), mid...), post...))

	dir := t.TempDir()
	h := openHarness(t, dir, 2, nil)
	h.feed(t, pre)
	c := h.rt.coordinator(func(phase, _ string) error {
		if phase == "begun" {
			h.feed(t, mid)
		}
		return nil
	})
	boom := errors.New("injected failure after the finish")
	c.OnFinish = func() error { return boom }
	if _, err := c.Run(NewCutoverJournal(2, 3, 0, "")); !errors.Is(err, boom) {
		t.Fatalf("cutover with a failing OnFinish: err = %v, want the injected failure", err)
	}
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := LoadCutoverJournal(filepath.Join(dir, CutoverJournalName))
	if err != nil || j == nil || !reflect.DeepEqual(j.Committed, []Move{{0, 2}}) {
		t.Fatalf("journal after the finish: %+v, %v; want only 0>2 committed", j, err)
	}
	if st, err := loadState(statePath(PartitionDir(dir, 2))); err != nil || len(st.Tails[newKey].IDs) == 0 {
		t.Fatalf("fixture: the destination's snapshot holds no tail for %s (%v)", newKey, err)
	}

	h2 := reopenHarness(t, dir, 3, h)
	requireTailsOnNewRing(t, h2.rt, 3)
	h2.feed(t, post)
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close after resume: %v", err)
	}
	requireEqual(t, "restart after a finish that kept its journal", h2.result(), ref)
}

// requireTailsOnNewRing fails unless every key's window tail is held by
// exactly one partition of rt: the one the to-partition ring names.
func requireTailsOnNewRing(t *testing.T, rt *Runtime, to int) {
	t.Helper()
	holders := map[string][]int{}
	rt.routeMu.RLock()
	for _, pt := range rt.parts {
		pt.feedMu.Lock()
		for k := range pt.keyed.Tails() {
			holders[k] = append(holders[k], pt.idx)
		}
		pt.feedMu.Unlock()
	}
	rt.routeMu.RUnlock()
	ring := NewPartitioner(to)
	for k, parts := range holders {
		if len(parts) != 1 || parts[0] != ring.Partition(k) {
			t.Errorf("key %s has a tail on partitions %v, want it on %d alone", k, parts, ring.Partition(k))
		}
	}
}

// A full destination refuses only the moving keys' lines: mid-cutover a
// moving key's line lands in its destination alone, so when the
// destination's backlog is full — its consumer is parked before the
// uncommitted key, nothing drains it — the 429 names exactly the moving
// key's lines, reported under the destination, and the staying keys'
// lines are acked on the donor and on the other partition.
func TestLiveRebalanceFullDestinationRefusesOnlyMovingLines(t *testing.T) {
	oldRing, newRing := NewPartitioner(2), NewPartitioner(3)
	var mover, stayer, other string
	for _, k := range eqKeys(256) {
		donor, dest := oldRing.Partition(k), newRing.Partition(k)
		switch {
		case mover == "" && dest == 2:
			mover = k
		case mover != "" && stayer == "" && dest == donor && donor == oldRing.Partition(mover):
			stayer = k
		case mover != "" && other == "" && dest == donor && donor != oldRing.Partition(mover):
			other = k
		}
	}
	if mover == "" || stayer == "" || other == "" {
		t.Fatalf("fixture keys: mover %q, stayer %q, other %q", mover, stayer, other)
	}
	donor := oldRing.Partition(mover)

	h := openHarness(t, t.TempDir(), 2, func(cfg *Config) {
		cfg.Broker = broker.Config{SegmentBytes: 256, MaxBacklogBytes: 2048, FullPolicy: broker.FullReject, Fsync: broker.FsyncNever}
	})
	checked := false
	_, err := h.rt.liveRebalance(3, func(phase, _ string) error {
		if phase != "begun" {
			return nil
		}
		// Fill the destination: every line it takes stays queued behind its
		// parked consumer. Only the destination's refusal ends the loop.
		for i := 0; ; i++ {
			_, err := appendOne(h.rt, fmt.Sprintf("%s filler payload record %d", mover, i))
			if err != nil && !errors.Is(err, broker.ErrBacklogFull) {
				t.Fatalf("filling the destination: %v", err)
			}
			if err != nil && strings.Contains(err.Error(), "partition 2:") {
				break
			}
			if i > 5000 {
				t.Fatal("the destination's backlog never refused")
			}
			if err != nil {
				time.Sleep(time.Millisecond)
			}
		}
		// The donor itself has room: what follows is the destination's verdict.
		for try := 0; ; try++ {
			if _, err := appendOne(h.rt, stayer+" gc freed 1"); err == nil {
				break
			} else if try > 2000 {
				t.Fatalf("donor partition %d never drained: %v", donor, err)
			}
			time.Sleep(time.Millisecond)
		}

		rec := httptest.NewRecorder()
		batch := []string{stayer + " gc freed 2", mover + " gc freed 3", other + " gc freed 4", mover + " gc freed 5", stayer + " gc freed 6"}
		h.rt.IngestHandler(0).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(strings.Join(batch, "\n"))))
		var ir IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
			t.Fatalf("decoding the %d answer: %v", rec.Code, err)
		}
		if rec.Code != http.StatusTooManyRequests || ir.Acked != 3 || ir.Rejected != 2 {
			t.Fatalf("mixed mid-cutover batch: status %d, %+v", rec.Code, ir)
		}
		if !reflect.DeepEqual(ir.RejectedLines, []int{1, 3}) {
			t.Fatalf("rejected lines %v, want [1 3]: the moving key's lines alone", ir.RejectedLines)
		}
		for _, row := range ir.Partitions {
			if (row.Partition == 2) != (row.Error == "backlog full") || (row.Partition == 2) != (row.Rejected == 2) {
				t.Fatalf("row %+v: only destination partition 2 rejects, and only the moving key's lines", row)
			}
		}
		checked = true
		return nil
	})
	if err != nil {
		t.Fatalf("LiveRebalance: %v", err)
	}
	if !checked {
		t.Fatal("the begun hook never ran")
	}
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// A cutover's records are detected once: rolling every partition's
// committed offset halfway back redelivers the records that landed
// mid-cutover, on donors and destination alike, and the
// redelivery-prefix protocol must skip every one of them.
func TestLiveRebalanceDuplicateSkipOnRedelivery(t *testing.T) {
	keys := eqKeys(8)
	pre := genEqLines(11, 1200, keys)
	mid := genEqLines(12, 500, keys)

	dir := t.TempDir()
	h := openHarness(t, dir, 2, nil)
	h.feed(t, pre)
	fed := false
	if _, err := h.rt.liveRebalance(3, func(phase, key string) error {
		if phase == "begun" && !fed {
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
		t.Fatalf("redelivered cutover records were re-detected: %d keys scored", len(res.scores))
	}
	if got := h2.rt.Stats().LinesCollected; got != 0 {
		t.Fatalf("redelivered cutover records were re-collected: %d lines", got)
	}
}

// Earlier builds also appended each uncommitted moving key's line to its
// donor's WAL. A root such a build left mid-cutover holds those copies at
// or past each donor's freeze point under a journal of the same version:
// here they are planted at begin, the cutover crashes at "staged", and
// the reopened runtime resumes it. Every donor skips the copies — before
// the finish by its freeze point, after it by the ownership ring — and a
// retired one is closed past them, so the output stays equivalent to the
// reference.
func TestLiveRebalanceResumesEarlierDonorCopies(t *testing.T) {
	keys := eqKeys(10)
	pre, mid, post := genEqLines(24, 1200, keys), genEqLines(25, 300, keys), genEqLines(26, 1200, keys)
	ref := runReference(t, append(append(append([]string(nil), pre...), mid...), post...))
	for _, plan := range livePlans {
		from, to := plan.from, plan.to
		t.Run(fmt.Sprintf("%d→%d", from, to), func(t *testing.T) {
			dir := t.TempDir()
			h := openHarness(t, dir, from, nil)
			h.feed(t, pre)
			boom := errors.New("injected crash")
			planted := 0
			_, err := h.rt.liveRebalance(to, func(phase, _ string) error {
				switch phase {
				case "begun":
					h.feed(t, mid)
					n, err := plantDonorCopies(h, from, to, mid)
					planted += n
					if err != nil {
						return err
					}
				case "staged":
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("LiveRebalance error = %v, want injected crash", err)
			}
			if planted == 0 {
				t.Fatal("no donor copy was planted; the test is vacuous")
			}
			h.drain(t)
			h.rt.Kill()

			h2 := reopenHarness(t, dir, to, h)
			h2.feed(t, post)
			h2.drain(t)
			if err := h2.rt.Close(); err != nil {
				t.Fatalf("Close after resume: %v", err)
			}
			requireEqual(t, "resume over donor copies", h2.result(), ref)
		})
	}
}

// plantDonorCopies appends each line of a key the from→to cutover moves to
// its donor's WAL as well, the way earlier builds double-wrote it, and
// returns how many copies it planted.
func plantDonorCopies(h *shardHarness, from, to int, lines []string) (int, error) {
	oldRing, newRing := NewPartitioner(from), NewPartitioner(to)
	copies := make([][]string, from)
	planted := 0
	for _, line := range lines {
		if k := DefaultKeyFunc(line); oldRing.Partition(k) != newRing.Partition(k) {
			copies[oldRing.Partition(k)] = append(copies[oldRing.Partition(k)], line)
			planted++
		}
	}
	for d, donor := range copies {
		if len(donor) == 0 {
			continue
		}
		if _, _, err := h.rt.partitionAt(d).bk.AppendBatch(donor); err != nil {
			return planted, err
		}
	}
	return planted, nil
}

// A crash at every per-move cutover phase must resume on exactly one
// layout per key: the journal is the per-move authority, the reopened
// runtime (at the target shard count) finishes the cutover inside Open,
// and the combined pre-crash + post-crash output stays bit-identical to
// the reference. The "double-write" case crashes at begin too, over the
// donor copies an earlier build double-wrote for the mid-cutover traffic.
func TestLiveRebalanceCrashResume(t *testing.T) {
	cases := []struct {
		name, crashAt string
		plant         bool
	}{
		{"begun", "begun", false},
		{"double-write", "begun", true},
		{"tail-landed", "tail-landed", false},
		{"staged", "staged", false},
		{"committed", "committed", false},
		{"finish", "finish", false},
	}
	keys := eqKeys(10)
	pre := genEqLines(21, 1200, keys)
	mid := genEqLines(22, 300, keys)
	post := genEqLines(23, 1200, keys)
	var stream []string
	for _, seg := range [][]string{pre, mid, post} {
		stream = append(stream, seg...)
	}
	ref := runReference(t, stream)
	for _, plan := range livePlans {
		for _, tc := range cases {
			from, to, tc := plan.from, plan.to, tc
			phase := tc.crashAt
			t.Run(fmt.Sprintf("%d→%d/%s", from, to, tc.name), func(t *testing.T) {
				dir := t.TempDir()
				h := openHarness(t, dir, from, nil)
				h.feed(t, pre)
				boom := errors.New("injected crash")
				fedMid, planted := false, 0
				_, err := h.rt.liveRebalance(to, func(ph, key string) error {
					if ph == "begun" && !fedMid {
						// Mid-cutover traffic lands before the crash, so the
						// resume finds records past the freeze points.
						fedMid = true
						h.feed(t, mid)
						if tc.plant {
							n, err := plantDonorCopies(h, from, to, mid)
							if planted = n; err != nil {
								return err
							}
						}
					}
					if ph == phase {
						return boom
					}
					return nil
				})
				if !errors.Is(err, boom) {
					t.Fatalf("LiveRebalance error = %v, want injected crash", err)
				}
				if tc.plant && planted == 0 {
					t.Fatal("no donor copy was planted; the case is vacuous")
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
				if _, err := Open(killedConfig(t, dir, from)); err == nil || !strings.Contains(err.Error(), "live cutover") {
					t.Fatalf("Open at %d shards mid-cutover: err = %v, want live-cutover refusal", from, err)
				}

				h2 := reopenHarness(t, dir, to, h)
				if got := h2.rt.Shards(); got != to {
					t.Fatalf("Shards() = %d after resumed cutover, want %d", got, to)
				}
				if got := len(h2.rt.Owned()); got != to {
					t.Fatalf("resumed runtime serves %d partitions, want %d", got, to)
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
}

// A finish that fails at one partition must not have closed another: the
// 4→2 finish persists p2, then cannot write p3's state. The runtime keeps
// serving under the journaled cutover — a key seen only now, whose donor
// is the already-persisted p2, lands in its destination — and a
// restart at the target count finishes the cutover.
func TestLiveRebalanceFinishFailureKeepsServing(t *testing.T) {
	keys := eqKeys(10)
	oldRing, tried := NewPartitioner(4), append([]string(nil), keys...)
	newKey := liveNewMovingKey(tried, 4, 2)
	for oldRing.Partition(newKey) != 2 {
		tried = append(tried, newKey)
		newKey = liveNewMovingKey(tried, 4, 2)
	}
	pre := genEqLines(31, 1200, keys)
	mid := append(genEqLines(32, 300, keys), genEqLines(33, 60, []string{newKey})...)
	post := genEqLines(34, 1200, append(keys, newKey))
	ref := runReference(t, append(append(append([]string(nil), pre...), mid...), post...))

	dir := t.TempDir()
	h := openHarness(t, dir, 4, nil)
	h.feed(t, pre)
	state, aside := statePath(PartitionDir(dir, 3)), filepath.Join(dir, "p3-state.aside")
	_, err := h.rt.liveRebalance(2, func(phase, key string) error {
		if phase != "finish" {
			return nil
		}
		// A directory where the state file goes: the rename that installs
		// the next persist fails. Drained first, so that persist is the
		// finish's and not a worker's own.
		h.drain(t)
		if err := os.Rename(state, aside); err != nil {
			return err
		}
		return os.Mkdir(state, 0o755)
	})
	if err == nil || !strings.Contains(err.Error(), "persisting partition 3") {
		t.Fatalf("LiveRebalance with p3's state unwritable: err = %v, want the persist failure", err)
	}
	if got := len(h.rt.Owned()); got != 4 {
		t.Fatalf("runtime serves %d partitions after the failed finish, want all 4 still open", got)
	}
	h.feed(t, mid)
	h.drain(t)
	h.rt.Kill()
	if err := os.Remove(state); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, state); err != nil {
		t.Fatal(err)
	}

	h2 := reopenHarness(t, dir, 2, h)
	if got := len(h2.rt.Owned()); got != 2 {
		t.Fatalf("resumed runtime serves %d partitions, want 2", got)
	}
	h2.feed(t, post)
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close after resume: %v", err)
	}
	requireEqual(t, "4→2 with a failed finish", h2.result(), ref)
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

// What LiveRebalance still refuses now that any other positive count is a
// valid target: a non-positive count, any target while an earlier
// cutover's journal is unfinished, and a runtime that serves a subset.
func TestLiveRebalanceValidation(t *testing.T) {
	h := openHarness(t, t.TempDir(), 2, nil)
	defer h.rt.Close()
	h.feed(t, genEqLines(9, 400, eqKeys(8)))

	report, err := h.rt.LiveRebalance(2)
	if err != nil {
		t.Fatalf("LiveRebalance(2) on 2 shards: %v", err)
	}
	if !report.AlreadyBalanced {
		t.Fatal("LiveRebalance to the current count should report AlreadyBalanced")
	}
	for _, to := range []int{0, -1} {
		if _, err := h.rt.LiveRebalance(to); err == nil || !strings.Contains(err.Error(), "positive partition count") {
			t.Fatalf("LiveRebalance(%d): err = %v, want the positive-count refusal", to, err)
		}
	}

	// A cutover that failed partway stays journaled and pins the runtime:
	// every further target is refused — the old count, the journal's own
	// and any other — until a restart at the journal's count finishes it
	// (TestLiveRebalanceCrashResume).
	boom := errors.New("injected failure")
	if _, err := h.rt.liveRebalance(4, func(phase, key string) error {
		if phase == "staged" {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("liveRebalance(4) with a failing hook: %v", err)
	}
	for _, to := range []int{3, 2, 1, 4} {
		if _, err := h.rt.LiveRebalance(to); err == nil || !strings.Contains(err.Error(), "2 -> 4 is journaled") {
			t.Fatalf("LiveRebalance(%d) over a journaled 2→4: err = %v, want refusal", to, err)
		}
	}

	sub := openHarness(t, t.TempDir(), 2, func(cfg *Config) { cfg.Subset = []int{0, 1} })
	defer sub.rt.Close()
	if _, err := sub.rt.LiveRebalance(3); err == nil || !strings.Contains(err.Error(), "subset") {
		t.Fatalf("LiveRebalance on a subset runtime: err = %v, want refusal", err)
	}
}

// LoadCutoverJournal must refuse every journal a Coordinator could not
// have written — callers treat only "absent" as "no cutover".
func TestLoadCutoverJournalRefusesInconsistent(t *testing.T) {
	good := func() *CutoverJournal {
		j := NewCutoverJournal(3, 2, 0, "")
		j.Freeze = map[int]uint64{0: 1, 1: 5, 2: 9}
		j.Committed = []Move{{1, 0}, {2, 0}}
		return j
	}
	path := filepath.Join(t.TempDir(), CutoverJournalName)
	if j, err := LoadCutoverJournal(path); j != nil || err != nil {
		t.Fatalf("absent journal: %+v, %v; want nil, nil", j, err)
	}
	if err := good().save(path); err != nil {
		t.Fatal(err)
	}
	if j, err := LoadCutoverJournal(path); err != nil || j.From != 3 || j.To != 2 || !reflect.DeepEqual(j.Committed, good().Committed) {
		t.Fatalf("a consistent shrink journal: %+v, %v", j, err)
	}
	for name, bend := range map[string]func(*CutoverJournal){
		"from < 1":                func(j *CutoverJournal) { j.From, j.Freeze = 0, map[int]uint64{} },
		"to < 1":                  func(j *CutoverJournal) { j.To = 0 },
		"to == from":              func(j *CutoverJournal) { j.To = 3 },
		"a donor has no freeze":   func(j *CutoverJournal) { delete(j.Freeze, 2) },
		"freeze names a stranger": func(j *CutoverJournal) { delete(j.Freeze, 1); j.Freeze[7] = 1 },
		"a move twice":            func(j *CutoverJournal) { j.Committed = append(j.Committed, Move{2, 0}) },
		"version 1":               func(j *CutoverJournal) { j.Version = 1 },
		"version 2":               func(j *CutoverJournal) { j.Version = 2 },
		"version 3":               func(j *CutoverJournal) { j.Version = 3 },
		"a donor past From":       func(j *CutoverJournal) { j.Committed = append(j.Committed, Move{3, 0}) },
		"a destination past To":   func(j *CutoverJournal) { j.Committed = append(j.Committed, Move{0, 2}) },
		"a negative side":         func(j *CutoverJournal) { j.Committed = append(j.Committed, Move{-1, 0}) },
		"both sides the same":     func(j *CutoverJournal) { j.Committed = append(j.Committed, Move{1, 1}) },
	} {
		j := good()
		bend(j)
		if err := j.save(path); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadCutoverJournal(path); err == nil {
			t.Errorf("%s: accepted %+v", name, got)
		}
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCutoverJournal(path); err == nil {
		t.Error("corrupt journal accepted")
	}
}

// A journal an earlier build wrote is refused by name: version 1 ledgers
// keys, version 2's committed moves may exist only in staged splice files
// this build never reads, and version 3 maps moves to phases, "committed"
// and then "released". Open names the journal and its version and refuses
// before it writes anything: the partitions, their states and the journal
// stay byte for byte as they were.
func TestLoadCutoverJournalRefusesVersion1(t *testing.T) {
	for version, journal := range map[int]string{
		1: `{"version":1,"from":2,"to":3,"vnodes":0,"freeze":{"0":120,"1":130},"keys":{"k3":"committed"}}`,
		2: `{"version":2,"from":2,"to":3,"vnodes":0,"freeze":{"0":120,"1":130},"moves":{"0>2":"committed"}}`,
		3: `{"version":3,"from":2,"to":3,"vnodes":0,"freeze":{"0":120,"1":130},"moves":{"0>2":"released","1>2":"committed"}}`,
	} {
		t.Run(fmt.Sprintf("version %d", version), func(t *testing.T) {
			dir := t.TempDir()
			h := openHarness(t, dir, 2, nil)
			h.feed(t, genEqLines(8, 400, eqKeys(8)))
			h.drain(t)
			if err := h.rt.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, CutoverJournalName)
			if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
				t.Fatal(err)
			}
			before := treeOf(t, dir)
			_, err := Open(killedConfig(t, dir, 3))
			if want := fmt.Sprintf("version %d", version); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
				t.Fatalf("Open over a version-%d journal: err = %v, want a refusal naming %s and its version", version, err, path)
			}
			if after := treeOf(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refused Open changed the root:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// treeOf maps every file under dir to its contents (directories to "/").
func treeOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() {
			tree[path] = "/"
			return nil
		}
		data, err := os.ReadFile(path)
		tree[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// destCopy is the rule that keeps an earlier cutover's donor copies out
// of a later one: a surviving partition that gets a key back counts only
// records at or past its own freeze point as that key's traffic.
func TestCutoverDestCopy(t *testing.T) {
	oldRing, newRing := NewPartitioner(3), NewPartitioner(2)
	cut, err := newCutover(CutoverSpec{From: 3, To: 2, Freeze: map[int]uint64{0: 40, 1: 50, 2: 60}})
	if err != nil {
		t.Fatal(err)
	}
	moving, _ := liveMovingKeys(eqKeys(64), 3, 2)
	key := moving[0]
	dest := newRing.Partition(key)
	if cut.destCopy(dest, key, cut.freeze[dest]-1) {
		t.Fatal("a record below the surviving destination's freeze point counted as the key's traffic")
	}
	if !cut.destCopy(dest, key, cut.freeze[dest]) {
		t.Fatal("the record at the freeze point was not the destination's")
	}
	if cut.destCopy(1-dest, key, 1000) || cut.destCopy(oldRing.Partition(key), key, 1000) {
		t.Fatal("a partition other than the destination claimed the destination's copy")
	}
	grow, err := newCutover(CutoverSpec{From: 2, To: 3, Freeze: map[int]uint64{0: 40, 1: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if !grow.destCopy(2, key, 1) {
		t.Fatal("an added partition has no freeze point: every record of a key it receives is the copy")
	}
}

// A shrink must not drop the alerts its retired partition could not yet
// deliver. The sink is down while keys of partition 2 raise alerts, and
// comes back at one of four points: just before the 3→2 cutover retires
// the partition (retries then wait a minute, so only the retirement itself
// can deliver before Close); after it, while the retired partition's
// delivery goes on in the background; after a Close and a restart at 2
// shards, which picks the retired commit log up; or after a regrowth to 3
// reopens the retired directory. Each time the sink ends up holding every
// alert exactly once. When undeliverable alerts sat in an in-memory queue
// the finish closed partition 2 without flushing it, and they were gone.
func TestLiveRebalanceShrinkDeliversRetiredAlerts(t *testing.T) {
	keys := eqKeys(12)
	var retiring []string
	for _, k := range keys {
		if NewPartitioner(3).Partition(k) == 2 {
			retiring = append(retiring, k)
		}
	}
	pre, outage := genEqLines(51, 900, keys), genEqLines(52, 900, retiring)
	ref := runReference(t, append(append([]string(nil), pre...), outage...))
	if len(ref.alerts) == 0 {
		t.Fatal("reference produced no alerts")
	}

	for _, back := range []string{"before the shrink", "after the shrink", "after a restart", "after a regrowth"} {
		t.Run("sink back "+back, func(t *testing.T) {
			dir, sink := t.TempDir(), &flakySink{}
			withSink := func(cfg *Config) {
				cfg.Sink = sink
				cfg.Pipeline.Resilience = fastRetries
				if back == "before the shrink" {
					cfg.Pipeline.Resilience = pipeline.ResilienceConfig{RetryBase: time.Minute, RetryMax: time.Minute, Sleep: noSleep}
				}
			}
			h := openHarness(t, dir, 3, withSink)
			h.feed(t, pre)
			h.drain(t)
			sink.down.Store(true)
			h.feed(t, outage)
			// Drain would wait on the down sink.
			waitFor(t, "the outage traffic to be scored", func() bool { return h.rt.Stats().SequencesFormed >= ref.windows() })
			if back == "before the shrink" {
				sink.down.Store(false)
			}
			if _, err := h.rt.LiveRebalance(2); err != nil {
				t.Fatalf("LiveRebalance(2): %v", err)
			}
			retiredLog := filepath.Join(PartitionDir(dir, 2), commitLogName)
			if back != "before the shrink" {
				if h.rt.UndeliveredAlerts()[retiredLog] == 0 || h.rt.Snapshot().Gauges["shard.alerts_undelivered"] == 0 {
					t.Fatalf("the retired partition's alerts are not counted undelivered: %v", h.rt.UndeliveredAlerts())
				}
			}
			switch back {
			case "after the shrink":
				sink.down.Store(false)
				h.drain(t)
			case "after a restart":
				if err := h.rt.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if h.rt.UndeliveredAlerts()[retiredLog] == 0 {
					t.Fatalf("Close does not count the retired partition's alerts: %v", h.rt.UndeliveredAlerts())
				}
				sink.down.Store(false)
				h = openHarness(t, dir, 2, withSink)
				h.drain(t)
			case "after a regrowth":
				if _, err := h.rt.LiveRebalance(3); err != nil {
					t.Fatalf("LiveRebalance(3): %v", err)
				}
				sink.down.Store(false)
				h.drain(t)
			}
			if err := h.rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := alertSigs(sink.Reports()); !reflect.DeepEqual(got, ref.alerts) {
				t.Fatalf("the sink holds %d alerts, the reference raised %d", len(sink.Reports()), len(ref.reports))
			}
		})
	}
}
