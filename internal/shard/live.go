package shard

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// latter (its destination). The keys of one (donor, destination) pair
// form a move, the unit the cutover hands over: a 2→3 growth is the two
// moves 0>2 and 1>2 however many keys they carry. Growth moves keys from
// the surviving partitions onto the added ones; a shrink moves every key
// of the retired partitions onto survivors. One Coordinator runs it, in-process
// (Runtime.LiveRebalance, one local participant) and across a fleet
// (cluster.Router.LiveRebalance, one HTTP participant per node) alike:
//
//  1. Begin. Every participant flips into the cutover: the partitions the
//     new layout adds open on it, each old partition's next append offset
//     is captured as its freeze point, and the cutover journal (freeze
//     points + ring parameters) lands durably — with intake excluded, so
//     no acknowledged append sits between a freeze capture and the
//     journal. From this instant intake routes every line by the new
//     ring: a moving key's line lands once, in its destination's WAL,
//     whose consumer parks before the record of any moving key whose move
//     is uncommitted. Non-moving keys keep their partition, their
//     detection and their acks; on a surviving partition that is also a
//     destination (a shrink) they queue behind a parked record until its
//     move commits.
//  2. Tail landing. Each old partition drains its pre-freeze backlog, so
//     every moving key's in-flight window tail is final.
//  3. Per move — capture: the WindowTail of every key of the move plus
//     the donor's full event space, exported once, under the donor's
//     feed lock. Install: the splice merges into the live destination
//     (donor event ids translated by template, tails restored) and the
//     destination takes a snapshot — the splice's one durable copy. No
//     pattern verdict moves: a library is a memo of the model's score,
//     and the destination's fills from its own misses. Commit: the
//     journal lists the move as committed — the move's one commit point.
//     From here the destination's parked consumer wakes for its keys, and
//     the donor drops their tails (every partition but the destination
//     scrubs a committed move's keys, whenever it learns of the commit).
//  4. Finish. Every participant restamps and persists its partitions on
//     the new layout, drains each partition the new layout retires to its
//     WAL tail and drops it, and swaps rings; the host installs whatever
//     names the new layout (a fleet's epoch-bumped manifest), and the
//     journal is removed — the end commit point.
//
// Crash safety is a per-move ledger: a participant that restarts while
// the journal exists reopens at the new shard count straight into the
// journaled state (a committed move's splice is in its destination's
// snapshot, which was durable before the commit; a pending move's tails
// are still the donor's, and records past the freeze point live in the
// destination's WAL), and the Coordinator run again — by Open in-process,
// by the operator's retry in a fleet — re-begins every participant
// idempotently and drives what is left. Every key is owned by exactly one
// side at every instant: donor until its move's journal entry says
// "committed", destination after. There is no way back to the old layout
// once the journal exists; the rollback is a copy of the root taken
// before the command.
//
// No acknowledged line is lost or fed twice. A line acked before begin
// sits below its partition's freeze point and is fed there; a moving
// key's, by its donor, lands in the tail the move's splice carries. A
// line acked after begin sits in the partition the new ring names; a
// moving key's is fed by its destination once the move commits, after
// the splice. The two worker rules that make this so also cover the
// donor copies an earlier build appended for each uncommitted moving
// key, so a root it left mid-cutover resumes here with no format change:
// a donor feeds a moving key only below its freeze point, and a
// surviving destination only at or past its own (tail landing has
// consumed everything below it by the finish). After the finish, a record
// whose key no longer routes to its partition under its stamped layout
// is skipped, and a retired partition is closed only once its persisted
// Consumed is its WAL tail, so a growth that reopens the directory
// resumes past everything it holds.

// CutoverJournalName is the cutover journal's file name: at the runtime
// root in-process, next to cluster.json in a fleet. Its existence IS the
// cutover: begin writes it before any line is routed by the new ring,
// finish removes it after every partition is persisted on the new layout.
const CutoverJournalName = "live-cutover.json"

// journalVersion is the journal format. Version 4 lists the committed
// moves: a move is pending or committed, and its one journal write hands
// its keys over. Version 3 journaled a second phase per move, written
// after the donor dropped the move's tails; version 2 ledgered the same
// moves over staged splice files, and version 1 ledgered keys.
const journalVersion = 4

// Move is the unit a live cutover hands over: every key the old ring
// places on partition Donor and the new ring on partition Dest. It reads
// and writes as "Donor>Dest" (e.g. "0>2") — in the journal, on the admin
// surface and in hook arguments.
type Move struct{ Donor, Dest int }

func (m Move) String() string { return fmt.Sprintf("%d>%d", m.Donor, m.Dest) }

// MarshalText implements encoding.TextMarshaler.
func (m Move) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *Move) UnmarshalText(b []byte) error {
	if _, err := fmt.Sscanf(string(b), "%d>%d", &m.Donor, &m.Dest); err != nil || m.String() != string(b) {
		return fmt.Errorf("shard: %q is not a move (want donor>destination, e.g. 0>2)", b)
	}
	return nil
}

// in reports whether a from -> to cutover can make m: a donor of the old
// layout, a destination of the new one, and two different partitions.
func (m Move) in(from, to int) bool {
	return m.Donor >= 0 && m.Donor < from && m.Dest >= 0 && m.Dest < to && m.Donor != m.Dest
}

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
	// Freeze maps each old-layout partition's index → the first offset
	// appended under the cutover. Donor records below it are donor-fed;
	// a moving key's records at or above it are fed by its destination.
	Freeze map[int]uint64 `json:"freeze"`
	// Committed lists the moves whose commit point has passed, in order:
	// their keys are destination-owned, and each destination's snapshot
	// holds its move's splice. Pending moves are absent, so it never holds
	// more than From×To entries.
	Committed []Move `json:"committed"`
}

// NewCutoverJournal describes a cutover that has not begun — it has no
// freeze offsets yet, which a journal on disk always does: the
// Coordinator collects them and writes the journal at begin.
func NewCutoverJournal(from, to, vnodes int, destNode string) *CutoverJournal {
	return &CutoverJournal{Version: journalVersion, From: from, To: to, Vnodes: vnodes, DestNode: destNode,
		Freeze: make(map[int]uint64, from), Committed: []Move{}}
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
	if j.Version != journalVersion {
		return nil, fmt.Errorf("shard: cutover journal %s is version %d, but this build reads only version %d "+
			"(one commit point per move); "+
			"finish that cutover with the build that began it", path, j.Version, journalVersion)
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
	for i, m := range j.Committed {
		if !m.in(j.From, j.To) {
			return nil, fmt.Errorf("shard: cutover journal %s records move %v, which no %d -> %d cutover makes", path, m, j.From, j.To)
		}
		if slices.Contains(j.Committed[:i], m) {
			return nil, fmt.Errorf("shard: cutover journal %s lists move %v twice", path, m)
		}
	}
	return j, nil
}

// save durably rewrites the journal (atomic + fsynced) — each move's
// commit must be on disk before its destination copy is the one
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
	return CutoverSpec{From: j.From, To: j.To, Vnodes: j.Vnodes, Freeze: j.Freeze, Committed: j.Committed, Dest: dest}
}

// sortMoves orders moves by donor, then destination, and drops repeats.
func sortMoves(moves []Move) []Move {
	slices.SortFunc(moves, func(a, b Move) int { return cmp.Or(a.Donor-b.Donor, a.Dest-b.Dest) })
	return slices.Compact(moves)
}

// MoveSplice is one move's handoff: the window tails of every key of a
// move plus the donor's full event space at capture time. The tails'
// event ids are the donor's; the destination maps them through the
// translation its merge of the events returns (which dedups by
// template), so no line is parsed again. It carries no pattern verdicts,
// and a "patterns" field an older donor still sends is ignored. A donor
// captures it, the coordinator ships it, and the destination installs it.
// Its Version is the snapshot format's, whose tails it carries.
type MoveSplice struct {
	Version int                            `json:"version"`
	Move    Move                           `json:"move"`
	Tails   map[string]pipeline.WindowTail `json:"tails,omitempty"`
	Events  []drain.SavedEvent             `json:"events,omitempty"`
}

// Cutover is the in-memory overlay of a live rebalance: both rings, the
// donors' freeze offsets and the committed moves. A runtime publishes one
// to its intake and workers through Runtime.cut; intake routes by its new
// ring, and Sync advances it as moves commit. Rings and freeze offsets are
// immutable after publication; the committed set, finished and closed are
// guarded by mu, with cond waking the destination's parked consumer on
// every commit.
type Cutover struct {
	// From and To are the old and new partition counts.
	From, To int

	oldRing *Partitioner
	newRing *Partitioner
	freeze  []uint64 // per old-layout partition: first offset appended under the cutover

	mu        sync.Mutex
	cond      *sync.Cond
	committed map[Move]bool
	finished  bool // set at finish; stale holders treat every move as committed
	closed    bool // set by Kill/Close so a parked consumer can exit
}

// newCutover builds the overlay spec describes: rings from its counts and
// vnode override, the freeze offsets and committed moves it records.
func newCutover(spec CutoverSpec) (*Cutover, error) {
	c := &Cutover{
		From:      spec.From,
		To:        spec.To,
		oldRing:   NewPartitionerVnodes(spec.From, spec.Vnodes),
		newRing:   NewPartitionerVnodes(spec.To, spec.Vnodes),
		freeze:    make([]uint64, spec.From),
		committed: make(map[Move]bool),
	}
	c.cond = sync.NewCond(&c.mu)
	for i := range c.freeze {
		c.freeze[i] = spec.Freeze[i]
	}
	return c, c.Sync(spec.Committed)
}

// moveOf names key's move: its partitions under the old and new rings
// (the same one twice when it does not move).
func (c *Cutover) moveOf(key string) Move {
	return Move{c.oldRing.Partition(key), c.newRing.Partition(key)}
}

// moving reports whether the cutover moves key between partitions.
func (c *Cutover) moving(key string) bool {
	m := c.moveOf(key)
	return m.Donor != m.Dest
}

// destCopy reports whether the record at off in partition idx's WAL is
// the destination's record of moving key — the one detection consumes.
// Anything a surviving partition holds for the key below its own freeze
// point predates this cutover (history an earlier cutover moved away, or
// the donor copies an earlier build appended) and is not.
func (c *Cutover) destCopy(idx int, key string, off uint64) bool {
	return c.newRing.Partition(key) == idx && (idx >= c.From || off >= c.freeze[idx])
}

// isCommitted reports whether m's commit point has passed (a finished
// cutover reads as all-committed for workers still holding the pointer).
func (c *Cutover) isCommitted(m Move) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.committedLocked(m)
}

// committedLocked is isCommitted for a caller holding mu.
func (c *Cutover) committedLocked(m Move) bool {
	return c.finished || c.committed[m]
}

// Sync adds moves the journal lists as committed — a commit is never
// undone, so syncs may arrive out of order or twice — and wakes the
// destination's parked consumer.
func (c *Cutover) Sync(committed []Move) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range committed {
		if !m.in(c.From, c.To) {
			return fmt.Errorf("shard: no %d -> %d cutover makes move %v", c.From, c.To, m)
		}
		c.committed[m] = true
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
// hand over each pending move (capture → install → journal it committed →
// sync its two participants), finish. It owns the journal; the host
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
	// router starts routing by the new ring here).
	OnBegin func()
	// OnFinish runs inside the finish flip after every participant
	// completed and before the journal is removed (a router installs the
	// epoch-bumped manifest here).
	OnFinish func() error
	// Hook, when set, is invoked at the cutover's named points, in this
	// order: "begun" once after begin (move empty); per pending
	// move "tail-landed", "staged" (the destination's snapshot holds the
	// splice, the journal does not name the move yet) and "committed" (the
	// destination feeds the move's keys), the second argument naming the
	// move (e.g. "0>2"); "finish" once before the finish flip (move empty).
	// Returning an error aborts exactly there, leaving the journal in
	// place — the crash-injection suites then kill participants and prove a
	// second Run resumes.
	Hook func(phase, move string) error
}

// Run drives the cutover j describes: a journal loaded from disk
// resumes (every participant re-begins idempotently with the journaled
// freezes and committed moves), one from NewCutoverJournal begins. On
// error the journal stays in place and Run may be called again with the
// reloaded journal.
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
	if err := c.hook("begun", ""); err != nil {
		return nil, err
	}

	// Every pending move, until no donor holds one — records past the
	// freeze point never re-enter donor tails, so the pending set can only
	// shrink and the empty round proves convergence. A move the journal
	// already committed (a resumed cutover) has no step left: the
	// re-begin scrubbed its keys from every partition but its destination.
	rep := &RebalanceReport{From: j.From, To: j.To}
	for {
		moves, err := pendingMoves(active)
		if err != nil {
			return nil, err
		}
		if len(moves) == 0 {
			break
		}
		for _, m := range moves {
			if err := c.move(j, m, c.Owner(m.Donor), c.Owner(m.Dest), rep); err != nil {
				return nil, err
			}
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

// pendingMoves unions every active participant's pending moves, in
// order.
func pendingMoves(active []Participant) ([]Move, error) {
	var moves []Move
	for _, p := range active {
		ms, err := p.PendingMoves()
		if err != nil {
			return nil, err
		}
		moves = append(moves, ms...)
	}
	return sortMoves(moves), nil
}

// move hands one pending move over: capture on the donor → install on
// the destination, durable in its snapshot → journal it committed, the
// move's one commit point → sync the donor, which drops the move's tails,
// then the destination, whose parked consumer wakes. A crash after the
// journal write leaves the drop to whichever comes first, the re-begin or
// the recovery: both scrub a committed move's keys from every partition
// but its destination, so the journal, not the donor's snapshot, is what
// recovery trusts. Every step is idempotent. The keys and window-tail
// ids a capture hands over are counted into rep.
func (c *Coordinator) move(j *CutoverJournal, m Move, donor, dest Participant, rep *RebalanceReport) error {
	if err := c.hook("tail-landed", m.String()); err != nil {
		return err
	}
	sp, err := donor.CaptureMove(m)
	if err != nil {
		return err
	}
	if err := dest.InstallSplice(sp); err != nil {
		return err
	}
	if err := c.hook("staged", m.String()); err != nil {
		return err
	}
	j.Committed = sortMoves(append(j.Committed, m))
	if err := j.save(c.JournalPath); err != nil {
		return err
	}
	if err := donor.SyncCutover([]Move{m}); err != nil {
		return err
	}
	if dest != donor {
		if err := dest.SyncCutover([]Move{m}); err != nil {
			return err
		}
	}
	rep.MovedKeys += len(sp.Tails)
	for _, tail := range sp.Tails {
		rep.MovedLines += len(tail.IDs)
	}
	return c.hook("committed", m.String())
}

func (c *Coordinator) gate(flip func() error) error {
	if c.Gate == nil {
		return flip()
	}
	return c.Gate(flip)
}

func (c *Coordinator) hook(phase, move string) error {
	if c.Hook == nil {
		return nil
	}
	return c.Hook(phase, move)
}

// RebalanceReport summarizes a completed rebalance.
type RebalanceReport struct {
	// From and To are the old and new partition counts.
	From, To int
	// Dir is the runtime root holding the rebalanced layout.
	Dir string
	// MovedKeys is how many stream keys changed partitions.
	MovedKeys int
	// MovedLines is the total number of window-tail entries — one event
	// id per line in a key's window — that moved with them.
	MovedLines int
	// AlreadyBalanced reports a no-op: the runtime already serves To
	// partitions.
	AlreadyBalanced bool
	// Duration is the wall-clock time the rebalance took.
	Duration time.Duration
}

// LiveRebalance takes this open runtime from its current partition count
// to any other count to >= 1 under traffic: intake stays open throughout
// (a moving key's lines wait in its destination's WAL until its move
// commits), keys that stay put keep detecting and acking on every
// partition that receives no key, and each move — the keys of one
// (donor, destination) pair — cuts over as one once its donor window
// tails land. With no traffic it is the offline rebalance. On success the runtime serves
// the new layout; on error the cutover journal stays in place, the
// runtime keeps serving under it and refuses further rebalances, and a
// process restart (Open at the new shard count) resumes and finishes it.
func (rt *Runtime) LiveRebalance(to int) (*RebalanceReport, error) {
	return rt.liveRebalance(to, nil)
}

// liveRebalance implements LiveRebalance with the Coordinator's crash
// hook exposed to tests.
func (rt *Runtime) liveRebalance(to int, hook func(phase, move string) error) (*RebalanceReport, error) {
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
func (rt *Runtime) coordinator(hook func(phase, move string) error) *Coordinator {
	return &Coordinator{
		JournalPath: filepath.Join(rt.cfg.Dir, CutoverJournalName),
		Owner:       func(int) Participant { return rt },
		Hook:        hook,
	}
}
