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

	"logsynergy/internal/drain"
	"logsynergy/internal/pipeline"
)

// Live rebalancing grows a serving deployment from N to N+1 partitions
// while traffic keeps flowing — the online counterpart of the offline
// stage→manifest→install protocol, decomposed per key. One Coordinator
// runs it, in-process (Runtime.LiveRebalance, one local participant) and
// across a fleet (cluster.Router.LiveRebalance, one HTTP participant per
// node) alike:
//
//  1. Begin. Every participant flips into the cutover: the destination
//     partition opens on the new layout, each donor's next append offset
//     is captured as its freeze point, and the cutover journal (freeze
//     points + ring parameters) lands durably — with intake excluded, so
//     no acknowledged append sits between a freeze capture and the
//     journal. From this instant every moving key's intake is
//     double-written — appended to both the donor's WAL (which stops
//     feeding it at the freeze point) and the destination's WAL (whose
//     consumer parks before any unreleased moving key's record).
//     Non-moving keys are untouched: same partition, same detection,
//     same acks.
//  2. Tail landing. Each donor drains its pre-freeze backlog, so every
//     moving key's in-flight window tail is final.
//  3. Per key — capture: the key's WindowTail plus the donor's full
//     event space, under the donor's feed lock. Stage: the splice is
//     written to a file in the destination's directory (atomic,
//     fsynced). Commit: the journal records the key as "committed" — the
//     per-key manifest; from here the key is destination-owned and a
//     crash rolls it forward. Install: the splice merges into the live
//     destination (donor event ids translated by template, pattern
//     verdicts deduped, tail restored). Forget: the donor drops the
//     key's tail. Release: the journal records "released", the
//     destination's parked consumer wakes for the key and routing sends
//     it to the destination only.
//  4. Finish. Every participant restamps and persists its partitions on
//     the new layout and swaps rings (double-writing ends here), the
//     host installs whatever names the new layout (a fleet's
//     epoch-bumped manifest), and the journal is removed — the end
//     commit point.
//
// Crash safety inverts the offline protocol's all-or-nothing manifest
// into a per-key ledger: a participant that restarts while the journal
// exists reopens at the new shard count straight into the journaled
// state (committed-but-unspliced keys re-apply from their staged files;
// destinations that already persisted a splice carry a Spliced marker in
// shard-state v3 and are left alone; a pending key's tail is still the
// donor's, and records past the freeze point live in the destination's
// WAL), and the Coordinator run again — by Open in-process, by the
// operator's retry in a fleet — re-begins every participant
// idempotently and drives what is left. Every key is on exactly one side
// at every instant: donor until its journal entry says "committed",
// destination after.
//
// Double-written records are exactly the donor-WAL records at offsets ≥
// the freeze point for moving keys: the donor consumes and acks them but
// never feeds them (the destination's copy is the one that counts), and
// after the cutover the ownership check — a record whose key no longer
// routes to the partition under its stamped layout is skipped — keeps
// redelivered copies out of detection forever.

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
	// DestNode names the fleet node hosting the new partition To-1 until
	// the manifest bump assigns it there; empty in-process.
	DestNode string `json:"dest_node,omitempty"`
	// Freeze maps donor partition index → that donor's first
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
	if j.From < 1 || j.To != j.From+1 || len(j.Freeze) != j.From {
		return nil, fmt.Errorf("shard: cutover journal %s is inconsistent (%d -> %d with %d freeze offsets)",
			path, j.From, j.To, len(j.Freeze))
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
	return syncDir(filepath.Dir(path))
}

// Spec renders the journal as one participant's begin parameters
// (dest: the participant hosts the new partition To-1).
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

// cutover is the in-memory state of a live rebalance, published to the
// router and every worker through Runtime.cut. Rings and freeze offsets
// are immutable after publication; the per-key phase map, finished and
// closed are guarded by mu, with cond waking the destination's parked
// consumer on every transition.
type cutover struct {
	from, to int
	oldRing  *Partitioner
	newRing  *Partitioner
	freeze   []uint64 // per-donor first double-written offset

	mu       sync.Mutex
	cond     *sync.Cond
	phase    map[string]int
	finished bool // set at finish; stale holders treat every key as released
	closed   bool // set by Kill/Close so a parked consumer can exit
}

// newCutover builds the in-memory cutover state.
func newCutover(from, to int, oldRing, newRing *Partitioner) *cutover {
	c := &cutover{
		from:    from,
		to:      to,
		oldRing: oldRing,
		newRing: newRing,
		freeze:  make([]uint64, from),
		phase:   make(map[string]int),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// moving reports whether the cutover moves key between partitions.
func (c *cutover) moving(key string) bool {
	return c.oldRing.Partition(key) != c.newRing.Partition(key)
}

// keyPhase returns the key's current phase (a finished cutover reads as
// all-released for workers still holding the pointer).
func (c *cutover) keyPhase(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return phaseReleased
	}
	return c.phase[key]
}

// sync advances per-key phases from a journal view (key → "committed" |
// "released"), never backwards — syncs can arrive out of order — and
// wakes the destination's parked consumer.
func (c *cutover) sync(keys map[string]string) error {
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
func (c *cutover) interrupt() {
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
	// Owner maps a partition index — donors 0..From-1, the destination
	// To-1 — to the participant serving it.
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
	for p := 0; p < j.To; p++ {
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
	// The donor's next persist makes the drop durable; in the interim the
	// journal, not the donor's state file, is what recovery trusts.
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

// LiveRebalance grows this open runtime from its current partition count
// N to to=N+1 under traffic: intake stays open throughout (moving keys
// double-write during their window), non-moving keys never stop
// detecting or acking, and each moving key cuts over individually as its
// donor window tail lands. On success the runtime serves the new layout;
// on error the cutover journal stays in place and a process restart
// (Open at the new shard count) resumes and finishes it. Grows one
// partition per call — run it repeatedly for larger growth.
func (rt *Runtime) LiveRebalance(to int) (*RebalanceReport, error) {
	return rt.liveRebalance(to, nil)
}

// liveRebalance implements LiveRebalance with the Coordinator's crash
// hook exposed to tests.
func (rt *Runtime) liveRebalance(to int, hook func(phase, key string) error) (*RebalanceReport, error) {
	start := time.Now()
	rt.liveMu.Lock()
	defer rt.liveMu.Unlock()
	if rt.cut.Load() != nil {
		return nil, errors.New("shard: a live cutover is already in progress")
	}
	if rt.cfg.Subset != nil {
		return nil, errors.New("shard: live rebalance requires a runtime serving every partition; " +
			"this one opened a subset (cluster node mode)")
	}
	from := rt.Shards()
	if to == from {
		return &RebalanceReport{From: from, To: to, Dir: rt.cfg.Dir, AlreadyBalanced: true, Duration: time.Since(start)}, nil
	}
	if to != from+1 {
		return nil, fmt.Errorf("shard: live rebalance grows one partition at a time (%d -> %d); got -to %d", from, from+1, to)
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
