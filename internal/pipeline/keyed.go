package pipeline

import (
	"fmt"

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
// feeding a Keyed over one constant key. A key's window is its event ids
// alone: Feed parses each line once, and snapshots, restores and moves
// carry the ids. Keyed is synchronous and single-goroutine: the caller
// owns the consume loop (typically a broker consumer) and calls Feed per
// line. That makes commit-time snapshots exact — everything fed is
// reflected in Tails() — which is what lets a restarted partition resume
// its window phase bit-identically.
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

// keyWindow is one key's in-flight sliding window: the event ids and the
// slide distance since the last completed window.
type keyWindow struct {
	ids       []int
	sincePrev int
}

// tail copies the window state out as a WindowTail; ok is false when there
// is none (an empty buffer at a window boundary).
func (kw *keyWindow) tail() (WindowTail, bool) {
	if len(kw.ids) == 0 && kw.sincePrev == 0 {
		return WindowTail{}, false
	}
	return WindowTail{IDs: append([]int(nil), kw.ids...), SincePrev: kw.sincePrev}, true
}

// pendingWindow is a completed window waiting for its batch flush.
type pendingWindow struct {
	key string
	seq []int
}

// WindowTail is the resumable snapshot of one key's window state: the
// event ids currently in the window buffer and the slide counter. The ids
// are the parser's that minted them, so a tail is only meaningful next to
// that parser's exported events: a restart imports both, and a move
// translates the ids into its destination's space. A line is parsed once,
// when it is fed.
type WindowTail struct {
	// IDs are the event ids in the window buffer, oldest first (at most
	// window.Default().Length of them).
	IDs []int `json:"ids"`
	// SincePrev is how many of those ids arrived after the key's last
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
	kw.sincePrev++
	win := window.Default()
	if len(kw.ids) > win.Length {
		kw.ids = kw.ids[1:]
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

// Restore copies a Tails snapshot's ids in. The ids must be the ones
// this pipeline's parser and event table know — the parser imported the
// events exported beside the snapshot and SyncTable ran — so Restore
// refuses an id outside the table, naming its key, and restores nothing.
// Restored ids never complete a window — they were all part of the
// pre-snapshot stream — and are not re-counted in stats.
func (k *Keyed) Restore(tails map[string]WindowTail) error {
	rows := k.p.detector.Table.Len()
	for key, tail := range tails {
		for _, id := range tail.IDs {
			if id < 0 || id >= rows {
				return fmt.Errorf("pipeline: restoring key %q: event id %d is outside the event table's %d rows", key, id, rows)
			}
		}
	}
	for key, tail := range tails {
		k.keys[key] = &keyWindow{ids: append([]int(nil), tail.IDs...), sincePrev: tail.SincePrev}
	}
	return nil
}
