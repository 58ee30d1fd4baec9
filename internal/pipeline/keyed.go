package pipeline

import (
	"sort"

	"logsynergy/internal/tensor"
	"logsynergy/internal/window"
)

// Keyed drives a Pipeline one line at a time with an independent sliding
// window per stream key — the demultiplexed form of the §VI workflow that
// makes key-based sharding safe: a key's window sequence depends only on
// that key's lines, in order, never on which other keys happen to share
// the process (or the shard). The shard runtime runs one Keyed per
// partition; a single Keyed over the whole stream is the reference the
// shard-vs-single equivalence suite compares against.
//
// Keyed owns the package's only window-advance code: Run is a plain loop
// feeding a Keyed over one constant key. Keyed is synchronous and
// single-goroutine: the caller owns the consume loop (typically a broker
// consumer) and calls Feed per line. That makes commit-time snapshots
// exact — everything fed is reflected in Tails() — which is what lets a
// restarted partition resume its window phase bit-identically.
type Keyed struct {
	p        *Pipeline
	batchCap int
	keys     map[string]*keyWindow
	pending  []pendingWindow

	// OnWindow, when set, observes every completed window after its batch
	// is scored: the stream key, the event-id sequence, its score, and
	// whether the detect stage terminally failed (abandoned=true means
	// score is meaningless). Called on the feeding goroutine, in window
	// completion order.
	OnWindow func(key string, seq []int, score float64, abandoned bool)
}

// keyWindow is one key's in-flight sliding window: the event ids, the raw
// lines they were parsed from (kept so the window phase can be persisted
// and re-parsed after a restart), and the slide distance since the last
// completed window.
type keyWindow struct {
	ids       []int
	lines     []string
	sincePrev int
}

// tail copies the window state out as a WindowTail; ok is false when there
// is none (an empty buffer at a window boundary).
func (kw *keyWindow) tail() (WindowTail, bool) {
	if len(kw.lines) == 0 && kw.sincePrev == 0 {
		return WindowTail{}, false
	}
	return WindowTail{Lines: append([]string(nil), kw.lines...), SincePrev: kw.sincePrev}, true
}

// pendingWindow is a completed window waiting for its batch flush.
type pendingWindow struct {
	key string
	seq []int
}

// WindowTail is the resumable snapshot of one key's window state: the raw
// lines currently in the window buffer and the slide counter. Lines are
// stored raw (not as event ids) because id spaces are assigned per
// process run; a restart re-parses them, which re-extends the event table
// deterministically.
type WindowTail struct {
	// Lines are the raw log lines in the window buffer, oldest first
	// (at most window.Default().Length of them).
	Lines []string `json:"lines"`
	// SincePrev is how many of those lines arrived after the key's last
	// completed window.
	SincePrev int `json:"since_prev"`
}

// NewKeyed wraps a pipeline for keyed, caller-driven streaming. The
// pipeline's stage guards, pattern library, stats, obs counters and sinks
// all apply.
func NewKeyed(p *Pipeline) *Keyed {
	batchCap := p.cfg.DetectBatch
	if batchCap <= 0 {
		batchCap = 2 * tensor.Parallelism()
	}
	return &Keyed{p: p, batchCap: batchCap, keys: make(map[string]*keyWindow)}
}

// Pipeline returns the wrapped pipeline (stats, library access).
func (k *Keyed) Pipeline() *Pipeline { return k.p }

// Feed collects one raw line under the stream key: parse (guarded),
// extend the key's sliding window, and queue the completed window, if
// any, for the next batch flush. A full batch flushes inline.
func (k *Keyed) Feed(key, line string) {
	p := k.p
	p.om.linesCollected.Inc()
	eventID, ok := p.parseLine(line)
	if !ok {
		// Abandoned after terminal parse/embed failure; the key's window
		// continues from its next line.
		return
	}
	kw := k.keys[key]
	if kw == nil {
		kw = &keyWindow{}
		k.keys[key] = kw
	}
	kw.ids = append(kw.ids, eventID)
	kw.lines = append(kw.lines, line)
	kw.sincePrev++
	win := window.Default()
	if len(kw.ids) > win.Length {
		kw.ids = kw.ids[1:]
		kw.lines = kw.lines[1:]
	}
	if len(kw.ids) == win.Length && kw.sincePrev >= win.Step {
		k.pending = append(k.pending, pendingWindow{key: key, seq: append([]int(nil), kw.ids...)})
		kw.sincePrev = 0
		if len(k.pending) >= k.batchCap {
			k.Flush()
		}
	}
}

// Flush scores every pending completed window as one batch, delivering
// anomaly reports to the pipeline's sinks. Call it whenever
// the source runs dry (so batching never delays an alert) and before
// snapshotting Tails for a commit.
func (k *Keyed) Flush() {
	if len(k.pending) == 0 {
		return
	}
	seqs := make([][]int, len(k.pending))
	for i, pw := range k.pending {
		seqs[i] = pw.seq
	}
	scores, abandoned := k.p.detectBatch(seqs)
	if k.OnWindow != nil {
		for i, pw := range k.pending {
			k.OnWindow(pw.key, pw.seq, scores[i], abandoned[i])
		}
	}
	k.pending = k.pending[:0]
}

// PendingWindows returns how many completed windows await the next flush.
func (k *Keyed) PendingWindows() int { return len(k.pending) }

// Keys returns the number of stream keys with live window state.
func (k *Keyed) Keys() int { return len(k.keys) }

// Tails snapshots every key's window state. The snapshot is only
// consistent when no completed windows are pending — call Flush first.
// Persist it alongside the source offset: a restart that redelivers from
// that offset and Restores the snapshot resumes every key's window phase
// exactly.
func (k *Keyed) Tails() map[string]WindowTail {
	out := make(map[string]WindowTail, len(k.keys))
	for key, kw := range k.keys {
		if tail, ok := kw.tail(); ok {
			out[key] = tail
		}
	}
	return out
}

// Tail snapshots a single key's window state without disturbing it — the
// capture half of a live key handoff, where the donor partition keeps
// serving every other key while this one's tail is staged for splicing.
// Like Tails, the snapshot is only consistent when no completed windows
// are pending — call Flush first. A key with no state (never seen, or
// empty buffer at a window boundary) returns ok=false with a zero tail,
// which Restore treats as a fresh key.
func (k *Keyed) Tail(key string) (WindowTail, bool) {
	if kw := k.keys[key]; kw != nil {
		return kw.tail()
	}
	return WindowTail{}, false
}

// TakeTails removes and returns the window state of every key belongs
// selects — the donor half of a key handoff (shard rebalancing): the
// returned map is a Tails-shaped snapshot another Keyed can Restore,
// while this Keyed forgets the keys entirely so it can never score them
// again. Like Tails, the snapshot is only consistent when no completed
// windows are pending — call Flush first. Selected keys whose state is
// empty are dropped without appearing in the result.
func (k *Keyed) TakeTails(belongs func(key string) bool) map[string]WindowTail {
	out := make(map[string]WindowTail)
	for key, kw := range k.keys {
		if !belongs(key) {
			continue
		}
		if tail, ok := kw.tail(); ok {
			out[key] = tail
		}
		delete(k.keys, key)
	}
	return out
}

// Restore rebuilds window state from a Tails snapshot by re-parsing the
// saved lines (keys in sorted order, so event-table extension is
// deterministic). Restored lines never complete a window — they were all
// part of the pre-snapshot stream — and are not re-counted in stats.
// Lines whose re-parse terminally fails are skipped, mirroring Feed.
func (k *Keyed) Restore(tails map[string]WindowTail) {
	keys := make([]string, 0, len(tails))
	for key := range tails {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		tail := tails[key]
		kw := &keyWindow{sincePrev: tail.SincePrev}
		for _, line := range tail.Lines {
			eventID, ok := k.p.parseLine(line)
			if !ok {
				continue
			}
			kw.ids = append(kw.ids, eventID)
			kw.lines = append(kw.lines, line)
		}
		k.keys[key] = kw
	}
}
