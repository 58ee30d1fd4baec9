package shard

import (
	"errors"
	"fmt"
	"time"

	"logsynergy/internal/pipeline"
)

// Participant is one runtime's side of a live cutover: the primitives
// the Coordinator sequences. *Runtime implements it in-process; the
// cluster layer implements it as an HTTP client over each node's
// /admin/v1/cutover/* endpoints, which call the same *Runtime methods on
// the far side. The participant holds the node-local invariants —
// freeze offsets captured under the route write lock, workers gating and
// parking — and never initiates; the coordinator owns the journal and
// the order of steps. Every method is idempotent.
type Participant interface {
	// BeginCutover flips the runtime into the cutover spec describes and
	// reports the freeze offsets of the donors it serves. commit, when
	// non-nil, receives those offsets at the last point the begin can
	// still be abandoned, and its error abandons it: the local runtime
	// calls it under its route write lock, before the cutover is
	// published — so no append can land between a freeze capture and
	// whatever commit makes durable — and a remote participant's client
	// calls it once the node has answered, relying on the coordinator's
	// Gate for the same exclusion.
	BeginCutover(spec CutoverSpec, commit func(freeze map[int]uint64) error) (*CutoverBeginResult, error)
	// PendingMoves waits for the served donors' tails to land, then lists
	// the moves whose keys they still hold, in order.
	PendingMoves() ([]Move, error)
	// CaptureMove snapshots one pending move's splice from its donor.
	CaptureMove(m Move) (MoveSplice, error)
	// InstallSplice applies a captured splice to the move's live
	// destination and returns once the destination's snapshot holds it.
	InstallSplice(sp MoveSplice) error
	// SyncCutover records moves the coordinator's journal committed: their
	// keys route to their destinations alone, a destination parked on one
	// wakes, and every other partition drops their tails.
	SyncCutover(committed []Move) error
	// CompleteCutover restamps every served partition on the new layout,
	// drains and drops the ones it retires, and leaves the cutover.
	CompleteCutover(to int) error
}

// CutoverSpec carries a live cutover's parameters from the
// coordinator's journal to a participant's runtime.
type CutoverSpec struct {
	// From and To are the old and new partition counts (any two different
	// positive counts: grow or shrink, by one or by several).
	From int `json:"from"`
	To   int `json:"to"`
	// Vnodes is the ring's virtual-node override the cutover was
	// computed with (0 = default).
	Vnodes int `json:"vnodes"`
	// Freeze maps donor partition → first offset appended under the
	// cutover. At the initial begin a donor's entry is absent — the
	// runtime serving it captures the offset and reports it back; on
	// resume it carries the journal's recorded offsets.
	Freeze map[int]uint64 `json:"freeze,omitempty"`
	// Committed lists the moves the journal committed; pending moves are
	// absent.
	Committed []Move `json:"committed,omitempty"`
	// Dest marks this runtime as the host of the partitions the new
	// layout adds (From..To-1): it opens them at begin. A shrink adds none.
	Dest bool `json:"dest,omitempty"`
}

// CutoverBeginResult is what BeginCutover reports back to the
// coordinator.
type CutoverBeginResult struct {
	// Freeze maps the donor partitions this runtime owns to their
	// freeze offsets (captured now, or the cutover's existing ones on an
	// idempotent re-begin).
	Freeze map[int]uint64 `json:"freeze,omitempty"`
	// Finished is set when the runtime already serves To partitions — a
	// finish landed before this begin was retried; there is nothing to
	// (re)start.
	Finished bool `json:"finished,omitempty"`
}

// CutoverStatus summarizes an active live cutover for a status answer.
type CutoverStatus struct {
	From int `json:"from"`
	To   int `json:"to"`
	// Pending counts moves still donor-owned on partitions this runtime
	// serves; Committed counts the journal's committed moves the runtime
	// has been told about.
	Pending   int `json:"pending"`
	Committed int `json:"committed"`
}

// BeginCutover implements Participant. The route write lock is held
// while freeze offsets are captured for owned donors, the partitions the
// new layout adds open on it (when spec.Dest), commit runs, and the
// cutover is published — from a producer's view one atomic step.
// Re-beginning the same (From, To) syncs the spec's committed moves —
// scrubbing their keys as SyncCutover does, since a coordinator may have
// died between a commit's journal write and its syncs — and reports the
// existing freeze offsets; a runtime already serving To partitions
// answers Finished.
func (rt *Runtime) BeginCutover(spec CutoverSpec, commit func(freeze map[int]uint64) error) (*CutoverBeginResult, error) {
	rt.routeMu.Lock()
	defer rt.routeMu.Unlock()

	if cut := rt.cut.Load(); cut != nil {
		if cut.From != spec.From || cut.To != spec.To {
			return nil, fmt.Errorf("shard: a live cutover %d -> %d is already in progress; cannot begin %d -> %d",
				cut.From, cut.To, spec.From, spec.To)
		}
		if err := rt.syncCommitted(cut, spec.Committed); err != nil {
			return nil, err
		}
		return &CutoverBeginResult{Freeze: rt.ownedFreezesLocked(cut)}, nil
	}
	if rt.cfg.Shards == spec.To {
		return &CutoverBeginResult{Finished: true}, nil
	}
	if rt.cfg.Shards != spec.From {
		return nil, fmt.Errorf("shard: cutover begins at %d partitions but this runtime serves %d", spec.From, rt.cfg.Shards)
	}
	if spec.To < 1 {
		return nil, fmt.Errorf("shard: cutover targets %d partitions; the count must be positive", spec.To)
	}
	if spec.Vnodes != rt.cfg.Vnodes {
		return nil, fmt.Errorf("shard: cutover was computed with Vnodes=%d but this runtime uses %d", spec.Vnodes, rt.cfg.Vnodes)
	}

	cut, err := newCutover(spec)
	if err != nil {
		return nil, err
	}
	// Every participant's routing table covers both layouts — AppendBatch
	// indexes byIdx by new-ring partitions even on pure-donor nodes (where
	// an added slot stays nil and rejects). An added partition's directory
	// may be an empty shell from an earlier abandoned begin; records only
	// ever land in it once a journal exists, so that is benign.
	for len(rt.byIdx) < spec.To {
		rt.byIdx = append(rt.byIdx, nil)
	}
	var added []*partition
	abandon := func(err error) (*CutoverBeginResult, error) {
		for _, pt := range added {
			pt.closeLogs()
		}
		rt.byIdx = rt.byIdx[:spec.From]
		return nil, err
	}
	for i := spec.From; spec.Dest && i < spec.To; i++ {
		if err := rt.reclaim(i); err != nil {
			return abandon(fmt.Errorf("shard: reclaiming retired partition %d: %w", i, err))
		}
		pt, err := rt.openPartitionAt(i, midCutoverOpts(spec, i, spec.To, cut.newRing))
		if err != nil {
			return abandon(fmt.Errorf("shard: opening cutover destination partition %d: %w", i, err))
		}
		added = append(added, pt)
		rt.byIdx[i] = pt
	}
	if err := rt.enterCutover(cut, spec); err != nil {
		return abandon(err)
	}
	res := &CutoverBeginResult{Freeze: rt.ownedFreezesLocked(cut)}
	if commit != nil {
		if err := commit(res.Freeze); err != nil {
			return abandon(err)
		}
	}
	rt.parts = append(rt.parts, added...)
	rt.cut.Store(cut)
	rt.reg.Gauge("shard.cutover_active").Set(1)
	for _, pt := range added {
		pt.start()
	}
	return res, nil
}

// midCutoverOpts opens partition idx under one side of a cutover's layout
// pair. A partition stamped with either layout (or fresh, stamp 0) is
// accepted — a crash inside the finish leaves some partitions restamped.
// A partition the cutover adds is no part of the old layout, and its
// directory may be one an earlier shrink retired: that carries the
// shrink's target, a count too small to contain idx, whatever the counts
// in between (4→2 stamps p3 with 2, and 2→3 then 3→4 reopens it). Such a
// directory was persisted with Consumed at its WAL tail and no tails, so
// it opens like a fresh one.
func midCutoverOpts(spec CutoverSpec, idx, layout int, ring *Partitioner) openOpts {
	return openOpts{
		layout: layout,
		ring:   ring,
		acceptStamp: func(s int) bool {
			return s == 0 || s == spec.From || s == spec.To || (idx >= spec.From && s <= idx)
		},
		cutover: true,
	}
}

// enterCutover brings the partitions already in rt.byIdx into cut, the
// overlay newCutover built from spec — the one block both ways into a
// cutover share (BeginCutover on a serving runtime, Open on a root or
// node restarting mid-cutover). Freeze offsets: the journal's recorded
// value wins; an owned donor without one captures its next append offset
// now. Then a partition opened into the cutover replays its WAL and is
// scrubbed of the journal's committed moves (a donor may have crashed
// before snapshotting the drop). The caller holds the route write lock,
// or runs before any worker starts.
func (rt *Runtime) enterCutover(cut *Cutover, spec CutoverSpec) error {
	for i, pt := range rt.byIdx {
		if pt == nil {
			continue
		}
		if _, journaled := spec.Freeze[i]; i < spec.From && !journaled {
			cut.freeze[i] = pt.bk.NextOffset()
		}
		pt.feedMu.Lock()
		err := pt.replay(cut)
		pt.scrub(cut)
		pt.feedMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// scrub is the one rule for who keeps a moving key's tail: a committed
// move's keys are its destination's — whose snapshot took the splice
// before the commit — and every other partition drops their tails, owing
// a snapshot for the drop. An uncommitted move's keys are the donor's; a
// copy its destination holds from an install the journal never committed
// is not scrubbed but replaced by the move's next install, because a
// destination whose finish ran before a crash that kept the journal also
// holds, and must keep, the tails of keys whose move was never journaled
// (their whole history lies past the freeze point). Called under feedMu.
func (pt *partition) scrub(cut *Cutover) {
	dropped := pt.keyed.TakeTails(func(k string) bool {
		m := cut.moveOf(k)
		return m.Dest != pt.idx && cut.isCommitted(m)
	})
	pt.forceSave = pt.forceSave || len(dropped) > 0
}

// syncCommitted records committed moves on cut and scrubs every
// partition this runtime serves. Caller holds routeMu.
func (rt *Runtime) syncCommitted(cut *Cutover, committed []Move) error {
	if err := cut.Sync(committed); err != nil {
		return err
	}
	for _, pt := range rt.byIdx {
		if pt != nil {
			pt.feedMu.Lock()
			pt.scrub(cut)
			pt.feedMu.Unlock()
		}
	}
	return nil
}

// ownedFreezesLocked collects owned donor partitions' freeze offsets.
// Caller holds routeMu.
func (rt *Runtime) ownedFreezesLocked(cut *Cutover) map[int]uint64 {
	out := make(map[int]uint64)
	for i := 0; i < cut.From && i < len(rt.byIdx); i++ {
		if rt.byIdx[i] != nil {
			out[i] = cut.freeze[i]
		}
	}
	return out
}

// activeCutover returns the published cutover and the donor partitions
// this runtime serves.
func (rt *Runtime) activeCutover() (*Cutover, []*partition, error) {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut := rt.cut.Load()
	if cut == nil {
		return nil, nil, fmt.Errorf("shard: no live cutover in progress (runtime serves %d partitions)", rt.cfg.Shards)
	}
	var donors []*partition
	for i := 0; i < cut.From && i < len(rt.byIdx); i++ {
		if rt.byIdx[i] != nil {
			donors = append(donors, rt.byIdx[i])
		}
	}
	return cut, donors, nil
}

// SyncCutover implements Participant: an owned destination parked on a
// committed move wakes, and an owned donor drops its tails (the donor's
// next snapshot makes the drop durable).
func (rt *Runtime) SyncCutover(committed []Move) error {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut := rt.cut.Load()
	if cut == nil {
		return fmt.Errorf("shard: no live cutover in progress (runtime serves %d partitions)", rt.cfg.Shards)
	}
	return rt.syncCommitted(cut, committed)
}

// PendingMoves implements Participant: it blocks until every donor this
// runtime serves has consumed its full pre-freeze backlog — every moving
// key's window tail is then final, because records at or past the freeze
// point are never donor-fed — and lists the moves whose keys those
// donors still hold. A key whose entire history is past the freeze point
// names no move: its records live only in the destination's WAL, and the
// finish hands it over wholesale.
func (rt *Runtime) PendingMoves() ([]Move, error) {
	cut, donors, err := rt.activeCutover()
	if err != nil {
		return nil, err
	}
	for _, pt := range donors {
		if err := awaitTailLanded(pt, cut.freeze[pt.idx]); err != nil {
			return nil, err
		}
	}
	return pendingMoving(cut, donors), nil
}

// awaitTailLanded blocks until the donor has consumed through its freeze
// point, or its worker stops.
func awaitTailLanded(pt *partition, freeze uint64) error {
	for {
		pt.feedMu.Lock()
		consumed := pt.consumed
		pt.feedMu.Unlock()
		if consumed+1 >= freeze {
			return nil
		}
		if pt.finished() {
			if err := pt.workerErr(); err != nil {
				return fmt.Errorf("shard: donor partition %d failed before its tail landed: %w", pt.idx, err)
			}
			return fmt.Errorf("shard: donor partition %d stopped %d records before its tail landed", pt.idx, freeze-1-consumed)
		}
		time.Sleep(time.Millisecond)
	}
}

// pendingMoving enumerates the moves whose keys the donors still hold
// and the journal has not committed, in order.
func pendingMoving(cut *Cutover, donors []*partition) []Move {
	var moves []Move
	for _, pt := range donors {
		pt.feedMu.Lock()
		tails := pt.keyed.Tails()
		pt.feedMu.Unlock()
		for k := range tails {
			if m := cut.moveOf(k); m.Donor != m.Dest && !cut.isCommitted(m) {
				moves = append(moves, m)
			}
		}
	}
	return sortMoves(moves)
}

// moveSide returns the published cutover and the partition of move m on
// one side — the donor when donor is set, the destination otherwise —
// refusing a move the cutover does not make or a side this runtime does
// not serve. Caller holds routeMu.
func (rt *Runtime) moveSide(m Move, donor bool) (*Cutover, *partition, error) {
	cut := rt.cut.Load()
	if cut == nil {
		return nil, nil, fmt.Errorf("shard: no live cutover in progress")
	}
	if !m.in(cut.From, cut.To) {
		return nil, nil, fmt.Errorf("shard: no %d -> %d cutover makes move %v", cut.From, cut.To, m)
	}
	idx, side := m.Dest, "destination"
	if donor {
		idx, side = m.Donor, "donor"
	}
	pt := rt.byIdx[idx]
	if pt == nil {
		return nil, nil, fmt.Errorf("shard: %s partition %d of move %v is not served by this runtime", side, idx, m)
	}
	return cut, pt, nil
}

// CaptureMove implements Participant: the final window tails of every
// key of the move plus the donor's full event space, captured under the
// donor's feed lock (pending windows are flushed and committed first, so
// the tails are consistent and a restart replays all of them). Refused
// until the donor has consumed through its freeze point — a non-final
// tail must never ship.
func (rt *Runtime) CaptureMove(m Move) (MoveSplice, error) {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	cut, donor, err := rt.moveSide(m, true)
	if err != nil {
		return MoveSplice{}, err
	}
	donor.feedMu.Lock()
	defer donor.feedMu.Unlock()
	if donor.consumed+1 < cut.freeze[m.Donor] {
		return MoveSplice{}, fmt.Errorf("shard: donor partition %d has consumed through offset %d of its freeze point %d; capture once the tail lands",
			m.Donor, donor.consumed, cut.freeze[m.Donor])
	}
	if err := donor.flushCommit(); err != nil {
		return MoveSplice{}, fmt.Errorf("shard: committing donor partition %d before capturing move %v: %w", m.Donor, m, err)
	}
	tails := donor.keyed.Tails()
	for k := range tails {
		if cut.moveOf(k) != m {
			delete(tails, k)
		}
	}
	return MoveSplice{Version: stateVersion, Move: m, Tails: tails, Events: donor.pipe.Parser().Export()}, nil
}

// ErrBadSplice marks a splice InstallSplice refuses for what it holds,
// not for the destination's state: a format this build does not install,
// a tail of a key the move does not carry, or a tail id the splice's
// events do not define.
var ErrBadSplice = errors.New("shard: bad splice")

// InstallSplice implements Participant. It checks the splice whole
// before it changes anything. Then, under the destination's feed lock,
// it drops whatever tails the destination holds for the move's keys (an
// earlier install the journal never committed: a repeat replaces it),
// merges the donor's events by template into the running parser and
// extends the event table over them, maps the donor's window tails
// through the merge's translation into the destination's id space,
// restores the tails and takes a snapshot — the splice's one durable
// copy, on disk before the journal commits the move. Re-merging a donor
// export translates onto the same ids. No verdict moves: the
// destination's pattern library fills from its own misses, and a score
// does not depend on which library answered it. A move the cutover
// already committed is left alone: its destination's snapshot holds the
// splice, and its keys may have fed since.
func (rt *Runtime) InstallSplice(sp MoveSplice) error {
	if sp.Version != stateVersion {
		return fmt.Errorf("%w: move %v is format %d; this build installs format %d", ErrBadSplice, sp.Move, sp.Version, stateVersion)
	}
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	m := sp.Move
	cut, dest, err := rt.moveSide(m, false)
	if err != nil || cut.isCommitted(m) {
		return err
	}
	if err := checkSpliceTails(cut, sp); err != nil {
		return err
	}
	dest.feedMu.Lock()
	defer dest.feedMu.Unlock()
	dest.keyed.TakeTails(func(k string) bool { return cut.moveOf(k) == m })
	translate, err := dest.pipe.Parser().Merge(sp.Events)
	if err != nil {
		return fmt.Errorf("shard: merging donor events of move %v: %w", m, err)
	}
	if err := dest.pipe.SyncTable(); err != nil {
		return fmt.Errorf("shard: extending destination event table for move %v: %w", m, err)
	}
	tails := make(map[string]pipeline.WindowTail, len(sp.Tails))
	for k, tail := range sp.Tails {
		ids := make([]int, len(tail.IDs))
		for i, id := range tail.IDs {
			ids[i] = translate[id] // checkSpliceTails saw every id defined
		}
		tails[k] = pipeline.WindowTail{IDs: ids, SincePrev: tail.SincePrev}
	}
	if err := dest.keyed.Restore(tails); err != nil {
		return fmt.Errorf("shard: restoring the tails of move %v: %w", m, err)
	}
	dest.forceSave = true
	if err := dest.flushCommit(); err != nil {
		return fmt.Errorf("shard: persisting the splice of move %v on partition %d: %w", m, m.Dest, err)
	}
	return nil
}

// checkSpliceTails refuses a splice with a tail of a key the move does
// not carry, or a tail id the splice's events do not define (Merge
// translates exactly those ids).
func checkSpliceTails(cut *Cutover, sp MoveSplice) error {
	defined := make(map[int]bool, len(sp.Events))
	for _, ev := range sp.Events {
		defined[ev.ID] = true
	}
	for k, tail := range sp.Tails {
		if m := cut.moveOf(k); m != sp.Move {
			return fmt.Errorf("%w: move %v carries a tail of key %q, which the cutover places in move %v", ErrBadSplice, sp.Move, k, m)
		}
		for _, id := range tail.IDs {
			if !defined[id] {
				return fmt.Errorf("%w: move %v's tail of key %q holds event id %d, which its events do not define", ErrBadSplice, sp.Move, k, id)
			}
		}
	}
	return nil
}

// CompleteCutover implements Participant: under the route write lock
// every owned partition restamps and persists on the new layout, the
// partitions the new layout retires are drained and dropped, the routing
// ring swaps and the cutover is cleared, before the coordinator removes
// the journal. A runtime already serving to partitions answers nil.
//
// Nothing is closed until every partition has persisted: a failure up to
// there returns with all of them open and the cutover still published, so
// the runtime keeps serving under it and a restart resumes from the
// journal. Retired partitions close their WALs once the route write lock
// is released; persisted at their WAL tails, their close errors cost
// nothing recovery reads and are only reported. Their deliveries go on
// in the background (partition.retire), so a down sink never holds the
// flip and loses nothing.
func (rt *Runtime) CompleteCutover(to int) (err error) {
	var retired []*partition
	defer func() {
		for _, pt := range retired {
			if cerr := pt.retire(); cerr != nil && err == nil {
				err = fmt.Errorf("shard: closing retired partition %d: %w", pt.idx, cerr)
			}
		}
	}()
	rt.routeMu.Lock()
	defer rt.routeMu.Unlock()
	cut := rt.cut.Load()
	if cut == nil {
		if rt.cfg.Shards == to {
			return nil
		}
		return fmt.Errorf("shard: no live cutover to complete (runtime serves %d partitions, finish asked for %d)", rt.cfg.Shards, to)
	}
	if cut.To != to {
		return fmt.Errorf("shard: live cutover targets %d partitions, finish asked for %d", cut.To, to)
	}
	for _, pt := range rt.parts {
		if err := pt.persistOn(cut); err != nil {
			return fmt.Errorf("shard: persisting partition %d on the new layout: %w", pt.idx, err)
		}
	}
	kept := make([]*partition, 0, len(rt.parts))
	for _, pt := range rt.parts {
		if pt.idx < cut.To {
			kept = append(kept, pt)
		} else {
			retired = append(retired, pt)
		}
	}
	rt.parts = kept
	rt.retiredMu.Lock()
	for _, pt := range retired {
		rt.retired = append(rt.retired, pt.dl)
	}
	rt.retiredMu.Unlock()
	rt.byIdx = rt.byIdx[:cut.To]
	rt.part = cut.newRing
	rt.cfg.Shards = cut.To
	rt.reg.Gauge("shard.partitions").Set(int64(cut.To))
	rt.reg.Gauge("shard.partitions_owned").Set(int64(len(kept)))
	rt.reg.Gauge("shard.cutover_active").Set(0)
	cut.mu.Lock()
	cut.finished = true
	cut.cond.Broadcast()
	cut.mu.Unlock()
	rt.cut.Store(nil)
	return nil
}

// persistOn restamps the partition on the cutover's new layout, commits
// and takes a snapshot. A partition the new layout retires first lets its
// worker skip through to the WAL tail (the caller holds the route write
// lock; no append can race it) and must snapshot there: a later growth
// that reopens the directory as a destination, under a ring that routes
// its old keys back to it, opens it like a fresh one (midCutoverOpts) and
// must not feed what it still holds. Past the freeze point that is only
// the donor copies an earlier build appended.
func (pt *partition) persistOn(cut *Cutover) error {
	retired := pt.idx >= cut.To
	tail := pt.bk.NextOffset() - 1
	if retired {
		if err := awaitTailLanded(pt, tail+1); err != nil {
			return err
		}
	}
	pt.feedMu.Lock()
	defer pt.feedMu.Unlock()
	pt.layout = cut.To
	pt.ring = cut.newRing
	pt.forceSave = true
	if err := pt.flushCommit(); err != nil {
		return err
	}
	if retired && pt.snapAt < tail {
		return fmt.Errorf("retired partition persisted at offset %d, short of its WAL tail %d", pt.snapAt, tail)
	}
	return nil
}

// CutoverStatus reports the active cutover's per-move progress as seen
// by this runtime, or nil outside one.
func (rt *Runtime) CutoverStatus() *CutoverStatus {
	cut, donors, err := rt.activeCutover()
	if err != nil {
		return nil
	}
	st := &CutoverStatus{From: cut.From, To: cut.To, Pending: len(pendingMoving(cut, donors))}
	cut.mu.Lock()
	st.Committed = len(cut.committed)
	cut.mu.Unlock()
	return st
}
