package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"logsynergy/internal/atomicfile"
	"logsynergy/internal/drain"
	"logsynergy/internal/pipeline"
)

// Live rebalancing is how this repo moves keys between partitions: it
// takes a deployment from any partition count N to any other count M —
// growing or shrinking, by one or by several — while traffic keeps
// flowing, and run against a runtime that takes no traffic it is the
// offline rebalance too. The plan is read off the two consistent-hash
// rings: every key whose partition under the old ring differs from its
// partition under the new one moves, from the former (its donor) to the
// latter (its destination). Growth moves keys from the surviving
// partitions onto the added ones; a shrink moves every key of the retired
// partitions onto survivors. One Coordinator runs it, in-process
// (Runtime.LiveRebalance, one local participant) and across a fleet
// (cluster.Router.LiveRebalance, one HTTP participant per node) alike:
//
//  1. Begin. Every participant flips into the cutover: the partitions the
//     new layout adds open on it, each old partition's next append offset
//     is captured as its freeze point, and the cutover journal (freeze
//     points + ring parameters) lands durably — with intake excluded, so
//     no acknowledged append sits between a freeze capture and the
//     journal. From this instant every moving key's intake is
//     double-written — appended to both the donor's WAL (which stops
//     feeding it at the freeze point) and the destination's WAL (whose
//     consumer parks before any unreleased moving key's record).
//     Non-moving keys keep their partition, their detection and their
//     acks; on a surviving partition that is also a destination (a
//     shrink) they queue behind a parked record until that key releases.
//  2. Tail landing. Each old partition drains its pre-freeze backlog, so
//     every moving key's in-flight window tail is final.
//  3. Per key — capture: the key's WindowTail plus the donor's full
//     event space, under the donor's feed lock. Stage: the splice is
//     written to a file in the destination's directory (atomic,
//     fsynced). Commit: the journal records the key as "committed" — the
//     per-key commit point; from here the key is destination-owned and a
//     crash rolls it forward. Install: the splice merges into the live
//     destination (donor event ids translated by template, pattern
//     verdicts deduped, tail restored). Forget: the donor drops the
//     key's tail. Release: the journal records "released", the
//     destination's parked consumer wakes for the key and routing sends
//     it to the destination only.
//  4. Finish. Every participant restamps and persists its partitions on
//     the new layout, drains each partition the new layout retires to its
//     WAL tail and drops it, and swaps rings (double-writing ends here);
//     the host installs whatever names the new layout (a fleet's
//     epoch-bumped manifest), and the journal is removed — the end
//     commit point.
//
// Crash safety is a per-key ledger: a participant that restarts while the
// journal exists reopens at the new shard count straight into the
// journaled state (committed-but-unspliced keys re-apply from their
// staged files; destinations that already persisted a splice carry a
// Spliced marker in shard-state v3 and are left alone; a pending key's
// tail is still the donor's, and records past the freeze point live in
// the destination's WAL), and the Coordinator run again — by Open
// in-process, by the operator's retry in a fleet — re-begins every
// participant idempotently and drives what is left. Every key is on
// exactly one side at every instant: donor until its journal entry says
// "committed", destination after. There is no way back to the old layout
// once the journal exists; the rollback is a copy of the root taken
// before the command.
//
// Double-written records are exactly the donor-WAL records at offsets ≥
// the freeze point for moving keys: the donor consumes and acks them but
// never feeds them (the destination's copy is the one that counts), and
// after the cutover the ownership check — a record whose key no longer
// routes to the partition under its stamped layout is skipped — keeps
// redelivered copies out of detection. A partition that is later handed
// one of those keys back must not mistake the old copies for the key's
// traffic: a surviving destination feeds a moving key only at or past
// its own freeze point (tail landing has consumed everything below it by
// the finish), and a retired partition is closed only once its persisted
// Consumed is its WAL tail, so a growth that reopens the directory
// resumes past every copy.

// CutoverJournalName is the cutover journal's file name: at the runtime
// root in-process, next to cluster.json in a fleet. Its existence IS the
// cutover: begin writes it before any double-write, finish removes it
// after every partition is persisted on the new layout.
const CutoverJournalName = "live-cutover.json"

// spliceFilePrefix names staged per-key splice files inside the
// destination partition's directory.
const spliceFilePrefix = "cutover-splice-"

// Per-key cutover phases, in order. A key absent from the journal is
// pending (donor-owned).
const (
	phasePending = iota
	// phaseCommitted: the journal entry exists — the key is
	// destination-owned; recovery rolls it forward from its splice file.
	phaseCommitted
	// phaseReleased: the destination consumer feeds the key and the
	// router no longer double-writes it.
	phaseReleased
)

// journalPhaseNames maps journal strings to phases.
var journalPhaseNames = map[string]int{"committed": phaseCommitted, "released": phaseReleased}

// CutoverJournal is the durable cutover ledger — the single source of
// truth every participant and router recovers from.
type CutoverJournal struct {
	Version int `json:"version"`
	From    int `json:"from"`
	To      int `json:"to"`
	// Vnodes is the ring's virtual-node override the cutover was computed
	// with (0 = default); a resume under a different ring would move a
	// different key set.
	Vnodes int `json:"vnodes"`
	// DestNode names the fleet node hosting the partitions the new layout
	// adds until the manifest bump assigns them there; empty in-process.
	DestNode string `json:"dest_node,omitempty"`
	// Freeze maps each old-layout partition's index → its first
	// double-written offset. Donor records below it are donor-fed;
	// records at or above it belong to the destination's WAL copy.
	Freeze map[int]uint64 `json:"freeze"`
	// Keys is the per-key ledger: moved key → "committed" | "released".
	// Pending keys are absent.
	Keys map[string]string `json:"keys"`
}

// NewCutoverJournal describes a cutover that has not begun — it has no
// freeze offsets yet, which a journal on disk always does: the
// Coordinator collects them and writes the journal at begin.
func NewCutoverJournal(from, to, vnodes int, destNode string) *CutoverJournal {
	return &CutoverJournal{Version: 1, From: from, To: to, Vnodes: vnodes, DestNode: destNode,
		Freeze: make(map[int]uint64, from), Keys: make(map[string]string)}
}

// LoadCutoverJournal reads the cutover journal at path; absent means no
// cutover (nil, nil). Anything unreadable or inconsistent is an error —
// callers must not treat it as "no cutover".
func LoadCutoverJournal(path string) (*CutoverJournal, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: reading cutover journal: %w", err)
	}
	j := &CutoverJournal{}
	if err := json.Unmarshal(data, j); err != nil {
		return nil, fmt.Errorf("shard: corrupt cutover journal %s: %w", path, err)
	}
	if j.From < 1 || j.To < 1 || j.To == j.From || len(j.Freeze) != j.From {
		return nil, fmt.Errorf("shard: cutover journal %s is inconsistent (%d -> %d with %d freeze offsets)",
			path, j.From, j.To, len(j.Freeze))
	}
	for d := 0; d < j.From; d++ {
		if _, ok := j.Freeze[d]; !ok {
			return nil, fmt.Errorf("shard: cutover journal %s records no freeze offset for donor partition %d", path, d)
		}
	}
	for k, name := range j.Keys {
		if _, ok := journalPhaseNames[name]; !ok {
			return nil, fmt.Errorf("shard: cutover journal %s has unknown phase %q for key %q", path, name, k)
		}
	}
	if j.Keys == nil {
		j.Keys = make(map[string]string)
	}
	return j, nil
}

// save durably rewrites the journal (atomic + fsynced) — each per-key
// commit must be on disk before the key's destination copy is the one
// detection consumes.
func (j *CutoverJournal) save(path string) error { return writeJSONFile(path, j) }

// removeCutoverJournal deletes the journal — the cutover's end commit
// point — and syncs the directory so the removal survives a crash.
func removeCutoverJournal(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("shard: removing cutover journal: %w", err)
	}
	return atomicfile.SyncDir(filepath.Dir(path))
}

// Spec renders the journal as one participant's begin parameters
// (dest: the participant hosts the partitions the new layout adds).
func (j *CutoverJournal) Spec(dest bool) CutoverSpec {
	return CutoverSpec{From: j.From, To: j.To, Vnodes: j.Vnodes, Freeze: j.Freeze, Keys: j.Keys, Dest: dest}
}

// KeysAt lists the keys journaled at phase ("committed" | "released"),
// sorted.
func (j *CutoverJournal) KeysAt(phase string) []string {
	var keys []string
	for k, ph := range j.Keys {
		if ph == phase {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// KeySplice is one staged per-key handoff: the moving key's window tail
// plus the donor's full event space at capture time (the key's parse
// history is scattered through it, and translation dedups by template).
// A donor captures it, the coordinator ships it, and the destination
// stages it as a splice file.
type KeySplice struct {
	Version  int                     `json:"version"`
	Key      string                  `json:"key"`
	Tail     pipeline.WindowTail     `json:"tail"`
	Events   []drain.SavedEvent      `json:"events,omitempty"`
	Patterns []pipeline.PatternEntry `json:"patterns,omitempty"`
}

// splicePath renders a key's staged splice file inside the destination
// partition's directory (the key itself may not be filename-safe).
func splicePath(dir, key string) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x.json", spliceFilePrefix, hashKey(key)))
}

// loadSplice reads a staged splice file.
func loadSplice(path string) (KeySplice, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return KeySplice{}, fmt.Errorf("shard: reading splice file %s: %w", path, err)
	}
	var sp KeySplice
	if err := json.Unmarshal(data, &sp); err != nil {
		return KeySplice{}, fmt.Errorf("shard: corrupt splice file %s: %w", path, err)
	}
	return sp, nil
}

// sweepSplices removes staged splice files — run once a destination's
// Spliced markers are durable at cutover end, and by journal-less opens
// (staged files mean nothing without the journal).
func sweepSplices(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if len(name) > len(spliceFilePrefix) && name[:len(spliceFilePrefix)] == spliceFilePrefix {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// Cutover is the in-memory overlay of a live rebalance: both rings, the
// donors' freeze offsets and every moving key's phase. A runtime publishes
// one to its router and workers through Runtime.cut; a fleet router holds
// one built from the journal (CutoverJournal.Overlay). Both ask it the same
// question per line — Route — and advance it the same way — Sync. Rings and
// freeze offsets are immutable after publication; the per-key phase map,
// finished and closed are guarded by mu, with cond waking the destination's
// parked consumer on every transition.
type Cutover struct {
	// From and To are the old and new partition counts.
	From, To int
	// DestNode names the fleet node hosting the partitions the new layout
	// adds (indices >= From) until the manifest assigns them; empty
	// in-process.
	DestNode string

	oldRing *Partitioner
	newRing *Partitioner
	freeze  []uint64 // per old-layout partition: first double-written offset

	mu       sync.Mutex
	cond     *sync.Cond
	phase    map[string]int
	finished bool // set at finish; stale holders treat every key as released
	closed   bool // set by Kill/Close so a parked consumer can exit
}

// newCutover builds the overlay spec describes: rings from its counts and
// vnode override, the freeze offsets and per-key phases it records.
func newCutover(spec CutoverSpec) (*Cutover, error) {
	c := &Cutover{
		From:    spec.From,
		To:      spec.To,
		oldRing: NewPartitionerVnodes(spec.From, spec.Vnodes),
		newRing: NewPartitionerVnodes(spec.To, spec.Vnodes),
		freeze:  make([]uint64, spec.From),
		phase:   make(map[string]int),
	}
	c.cond = sync.NewCond(&c.mu)
	for i := range c.freeze {
		c.freeze[i] = spec.Freeze[i]
	}
	return c, c.Sync(spec.Keys)
}

// Overlay builds the routing overlay of the cutover j describes — what a
// fleet router holds while the journal exists.
func (j *CutoverJournal) Overlay() (*Cutover, error) {
	c, err := newCutover(j.Spec(false))
	if err != nil {
		return nil, err
	}
	c.DestNode = j.DestNode
	return c, nil
}

// Route is the one routing decision under a cutover. primary is the
// partition the line is appended to and reported under. shadow is -1
// unless key is moving and not yet released: then primary is its donor,
// shadow its destination, and the line is double-written — donor first,
// acked only when both copies land. A released moving key routes to its
// destination alone; a key that does not move keeps its partition.
func (c *Cutover) Route(key string) (primary, shadow int) {
	donor, dest := c.oldRing.Partition(key), c.newRing.Partition(key)
	if donor == dest || c.keyPhase(key) >= phaseReleased {
		return dest, -1
	}
	return donor, dest
}

// moving reports whether the cutover moves key between partitions.
func (c *Cutover) moving(key string) bool {
	return c.oldRing.Partition(key) != c.newRing.Partition(key)
}

// destCopy reports whether the record at off in partition idx's WAL is
// the destination's copy of moving key — the one detection consumes.
// Anything a surviving partition holds for the key below its own freeze
// point predates this cutover (donor copies from an earlier one that
// moved the key away) and is not.
func (c *Cutover) destCopy(idx int, key string, off uint64) bool {
	return c.newRing.Partition(key) == idx && (idx >= c.From || off >= c.freeze[idx])
}

// keyPhase returns the key's current phase (a finished cutover reads as
// all-released for workers still holding the pointer).
func (c *Cutover) keyPhase(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return phaseReleased
	}
	return c.phase[key]
}

// Sync advances per-key phases from a journal view (key → "committed" |
// "released"), never backwards — syncs can arrive out of order — and
// wakes the destination's parked consumer.
func (c *Cutover) Sync(keys map[string]string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, name := range keys {
		ph, ok := journalPhaseNames[name]
		if !ok {
			return fmt.Errorf("shard: unknown cutover phase %q for key %q", name, k)
		}
		if ph > c.phase[k] {
			c.phase[k] = ph
		}
	}
	c.cond.Broadcast()
	return nil
}

// interrupt marks the cutover closed (crash or shutdown) and wakes any
// parked consumer so it can exit.
func (c *Cutover) interrupt() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Coordinator drives one live cutover to completion over a set of
// Participants: begin every participant and make the journal durable,
// move each pending key (capture → stage → journal "committed" → install
// → forget → journal "released"), finish. It owns the journal; the host
// supplies what is transport- or fleet-specific.
type Coordinator struct {
	// JournalPath is where the journal lives: the runtime root
	// in-process, the cluster directory in a fleet.
	JournalPath string
	// Owner maps a partition index of either layout — 0..max(From,To)-1 —
	// to the participant serving it.
	Owner func(partition int) Participant
	// Gate, when set, runs each of the two flips with the host's intake
	// excluded: begin (every participant begun, journal durable, OnBegin)
	// and finish (every participant completed, OnFinish, journal removed).
	// A fleet router passes its routing gate, because a remote node's own
	// exclusion ends when its begin answers. The local runtime needs none:
	// its BeginCutover runs the journal write under its route write lock.
	Gate func(flip func() error) error
	// OnBegin runs inside the begin flip once the journal is durable (a
	// router installs its double-write overlay here).
	OnBegin func()
	// OnRelease runs once a key's "released" entry is durable.
	OnRelease func(key string)
	// OnFinish runs inside the finish flip after every participant
	// completed and before the journal is removed (a router installs the
	// epoch-bumped manifest here).
	OnFinish func() error
	// Hook, when set, is invoked at the cutover's named points, in this
	// order: "double-write" once after begin (key empty); per key
	// "tail-landed", "staged", "committed", "released"; "finish" once
	// before the finish flip (key empty). A key resumed at "committed"
	// fires only "released". Returning an error aborts exactly there,
	// leaving the journal in place — the crash-injection suites then kill
	// participants and prove a second Run resumes.
	Hook func(phase, key string) error
}

// Run drives the cutover j describes: a journal loaded from disk
// resumes (every participant re-begins idempotently with the journaled
// freezes and phases), one from NewCutoverJournal begins. On error the
// journal stays in place and Run may be called again with the reloaded
// journal.
func (c *Coordinator) Run(j *CutoverJournal) (*RebalanceReport, error) {
	var parts []Participant // distinct, in partition order
	for p := 0; p < max(j.From, j.To); p++ {
		owner, seen := c.Owner(p), false
		for _, q := range parts {
			seen = seen || q == owner
		}
		if !seen {
			parts = append(parts, owner)
		}
	}
	active, err := c.begin(j, parts)
	if err != nil {
		return nil, err
	}
	if err := c.hook("double-write", ""); err != nil {
		return nil, err
	}

	// Keys the journal already committed (a resumed cutover) roll forward
	// first: they are destination-owned. Then every pending moving key,
	// until no donor holds one — records past the freeze point never
	// re-enter donor tails, so the pending set can only shrink and the
	// empty round proves convergence.
	rep := &RebalanceReport{From: j.From, To: j.To}
	oldRing, newRing := NewPartitionerVnodes(j.From, j.Vnodes), NewPartitionerVnodes(j.To, j.Vnodes)
	keys := j.KeysAt("committed")
	for {
		for _, k := range keys {
			lines, err := c.move(j, k, c.Owner(oldRing.Partition(k)), c.Owner(newRing.Partition(k)))
			if err != nil {
				return nil, err
			}
			rep.MovedKeys++
			rep.MovedLines += lines
		}
		if keys, err = pendingKeys(active); err != nil {
			return nil, err
		}
		if len(keys) == 0 {
			break
		}
	}

	if err := c.hook("finish", ""); err != nil {
		return nil, err
	}
	err = c.gate(func() error {
		for _, p := range parts {
			if err := p.CompleteCutover(j.To); err != nil {
				return err
			}
		}
		if c.OnFinish != nil {
			if err := c.OnFinish(); err != nil {
				return err
			}
		}
		return removeCutoverJournal(c.JournalPath)
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// begin flips every participant into the cutover and, for a fresh one,
// makes the journal durable: each participant hands the freeze offsets
// it captured to its commit callback, and the last one's writes the
// journal — still inside that participant's begin, so a write failure
// abandons it. Returns the participants with work left (one that already
// serves To partitions completed before an earlier run died).
func (c *Coordinator) begin(j *CutoverJournal, parts []Participant) (active []Participant, err error) {
	fresh := len(j.Freeze) == 0
	err = c.gate(func() error {
		for i, p := range parts {
			var commit func(map[int]uint64) error
			if fresh {
				last := i == len(parts)-1
				commit = func(freeze map[int]uint64) error {
					for d, off := range freeze {
						j.Freeze[d] = off
					}
					if !last {
						return nil
					}
					for d := 0; d < j.From; d++ {
						if _, ok := j.Freeze[d]; !ok {
							return fmt.Errorf("shard: no participant reported a freeze offset for donor partition %d", d)
						}
					}
					return j.save(c.JournalPath)
				}
			}
			res, err := p.BeginCutover(j.Spec(p == c.Owner(j.To-1)), commit)
			if err != nil {
				return fmt.Errorf("shard: beginning live cutover %d -> %d: %w", j.From, j.To, err)
			}
			if !res.Finished {
				active = append(active, p)
			} else if fresh {
				return fmt.Errorf("shard: a participant already serves %d partitions; cannot begin a cutover to %d", j.To, j.To)
			}
		}
		if c.OnBegin != nil {
			c.OnBegin()
		}
		return nil
	})
	return active, err
}

// pendingKeys unions every active participant's pending moving keys,
// sorted for a deterministic cutover order.
func pendingKeys(active []Participant) ([]string, error) {
	seen := make(map[string]bool)
	var keys []string
	for _, p := range active {
		ks, err := p.PendingMovingKeys()
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// move cuts one key over, from wherever the journal says it stands:
// capture on the donor → stage on the destination → journal "committed"
// (the per-key commit point: from here the key is destination-owned and
// recovery rolls it forward) → install → forget → journal "released".
// Every step is idempotent. Returns the window-tail lines that moved.
func (c *Coordinator) move(j *CutoverJournal, key string, donor, dest Participant) (int, error) {
	lines := 0
	if j.Keys[key] != "committed" {
		if err := c.hook("tail-landed", key); err != nil {
			return 0, err
		}
		sp, err := donor.CaptureKey(key)
		if err != nil {
			return 0, err
		}
		if err := dest.StageSplice(sp); err != nil {
			return 0, err
		}
		if err := c.hook("staged", key); err != nil {
			return 0, err
		}
		if err := c.record(j, key, "committed", donor, dest); err != nil {
			return 0, err
		}
		if err := c.hook("committed", key); err != nil {
			return 0, err
		}
		lines = len(sp.Tail.Lines)
	}
	if err := dest.InstallSplice(key); err != nil {
		return 0, err
	}
	// The donor's next snapshot makes the drop durable; in the interim the
	// journal, not the donor's snapshot, is what recovery trusts.
	if err := donor.ForgetKey(key); err != nil {
		return 0, err
	}
	if err := c.record(j, key, "released", donor, dest); err != nil {
		return 0, err
	}
	if c.OnRelease != nil {
		c.OnRelease(key)
	}
	return lines, c.hook("released", key)
}

// record journals a key's new phase durably, then tells the key's two
// participants (a "released" sync wakes the destination's parked
// consumer and ends the key's double-writes).
func (c *Coordinator) record(j *CutoverJournal, key, phase string, donor, dest Participant) error {
	j.Keys[key] = phase
	if err := j.save(c.JournalPath); err != nil {
		return err
	}
	update := map[string]string{key: phase}
	if err := donor.SyncCutover(update); err != nil {
		return err
	}
	if dest == donor {
		return nil
	}
	return dest.SyncCutover(update)
}

func (c *Coordinator) gate(flip func() error) error {
	if c.Gate == nil {
		return flip()
	}
	return c.Gate(flip)
}

func (c *Coordinator) hook(phase, key string) error {
	if c.Hook == nil {
		return nil
	}
	return c.Hook(phase, key)
}

// RebalanceReport summarizes a completed rebalance.
type RebalanceReport struct {
	// From and To are the old and new partition counts.
	From, To int
	// Dir is the runtime root holding the rebalanced layout.
	Dir string
	// MovedKeys is how many stream keys changed partitions.
	MovedKeys int
	// MovedLines is the total number of window-tail lines that moved
	// with them.
	MovedLines int
	// AlreadyBalanced reports a no-op: the runtime already serves To
	// partitions.
	AlreadyBalanced bool
	// Duration is the wall-clock time the rebalance took.
	Duration time.Duration
}

// LiveRebalance takes this open runtime from its current partition count
// to any other count to >= 1 under traffic: intake stays open throughout
// (moving keys double-write during their window), keys that stay put keep
// detecting and acking on every partition that receives no key, and each
// moving key cuts over individually as its donor window tail lands. With
// no traffic it is the offline rebalance. On success the runtime serves
// the new layout; on error the cutover journal stays in place, the
// runtime keeps serving under it and refuses further rebalances, and a
// process restart (Open at the new shard count) resumes and finishes it.
func (rt *Runtime) LiveRebalance(to int) (*RebalanceReport, error) {
	return rt.liveRebalance(to, nil)
}

// liveRebalance implements LiveRebalance with the Coordinator's crash
// hook exposed to tests.
func (rt *Runtime) liveRebalance(to int, hook func(phase, key string) error) (*RebalanceReport, error) {
	start := time.Now()
	rt.liveMu.Lock()
	defer rt.liveMu.Unlock()
	if rt.cfg.Subset != nil {
		return nil, errors.New("shard: live rebalance requires a runtime serving every partition; " +
			"this one opened a subset (cluster node mode)")
	}
	if to < 1 {
		return nil, fmt.Errorf("shard: live rebalance needs a positive partition count; got -to %d", to)
	}
	if cut := rt.cut.Load(); cut != nil {
		return nil, fmt.Errorf("shard: a live cutover %d -> %d is journaled; restart the runtime at %d shards to finish it before asking for %d partitions",
			cut.From, cut.To, cut.To, to)
	}
	from := rt.Shards()
	if to == from {
		return &RebalanceReport{From: from, To: to, Dir: rt.cfg.Dir, AlreadyBalanced: true, Duration: time.Since(start)}, nil
	}
	rep, err := rt.coordinator(hook).Run(NewCutoverJournal(from, to, rt.cfg.Vnodes, ""))
	if err != nil {
		return nil, err
	}
	rep.Dir = rt.cfg.Dir
	rep.Duration = time.Since(start)
	return rep, nil
}

// coordinator assembles the in-process Coordinator: this runtime is the
// one participant and the journal lives at its root.
func (rt *Runtime) coordinator(hook func(phase, key string) error) *Coordinator {
	return &Coordinator{
		JournalPath: filepath.Join(rt.cfg.Dir, CutoverJournalName),
		Owner:       func(int) Participant { return rt },
		Hook:        hook,
	}
}
