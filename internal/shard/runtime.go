package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/fault"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
)

// Config assembles a sharded runtime. Shards, Dir, Detector, Interp,
// Embedder and Sink are required; zero fields take the defaults
// documented on each.
type Config struct {
	// Shards is the partition count (default 1).
	Shards int
	// Dir is the runtime root; partition i owns the WAL directory Dir/p<i>.
	Dir string
	// Vnodes overrides the partitioner's virtual-node count (default
	// DefaultVirtualNodes).
	Vnodes int
	// Subset, when non-nil, restricts the runtime to the named partition
	// indices: only their WAL directories are opened and fed, and routing
	// a key owned by an unlisted partition returns ErrNotAssigned. The
	// ring still spans all Shards partitions, so key→partition mapping is
	// identical across every process of a cluster fleet. nil opens every
	// partition (the single-process default); an empty non-nil slice opens
	// none (a standby node waiting to adopt).
	Subset []int
	// Cutover, when non-nil, opens the runtime into a live cutover whose
	// journal is held elsewhere (a cluster coordinator's directory, not
	// this root): partitions open under their mid-cutover layouts with
	// the spec's recorded freeze offsets and committed moves (a committed
	// move's splice is already in its destination's snapshot), and the
	// runtime then serves passively — the networked coordinator drives the per-move protocol
	// over the admin surface and calls CompleteCutover. Shards must
	// equal Cutover.To. Mutually exclusive with a journal at Dir.
	Cutover *CutoverSpec
	// Broker is the per-partition broker template; Dir, Metrics and
	// Faults are overridden per partition.
	Broker broker.Config
	// Pipeline is the per-partition pipeline template; Metrics and Faults
	// are overridden per partition. Its Resilience also paces Sink retries.
	Pipeline pipeline.Config
	// Detector is the trained base detector. Each partition scores with
	// the shared (read-only) model and its own clone of the event table.
	Detector *core.Detector
	// Interp is the inner interpreter, wrapped by the shared singleflight
	// InterpCache.
	Interp lei.Interpreter
	// Embedder is shared across partitions (it memoizes whole-text
	// vectors, so hot templates embed once process-wide).
	Embedder *embed.Embedder
	// Sink receives every partition's anomaly reports, one at a time, in
	// per-key order (a FallibleSink's failures are retried; see alerts.go).
	Sink pipeline.Sink
	// Metrics is the runtime-level registry for shared components: the
	// interp cache, the router, the fan-in (nil = obs.Default()).
	Metrics *obs.Registry
	// ShardFaults supplies partition i's fault-injection registry,
	// consulted by both that partition's broker and its pipeline (nil =
	// nothing injected). Chaos tests use it to break exactly one shard.
	ShardFaults func(i int) *fault.Registry
	// OnWindow, when set, observes every scored window: partition index,
	// stream key, event-id sequence, score, and whether detection
	// terminally failed. The equivalence harness uses it to capture
	// per-key score sequences.
	OnWindow func(shard int, key string, seq []int, score float64, abandoned bool)
}

// Every partition's worker keys each record with DefaultKeyFunc, reads
// its WAL as consumer group detectorGroup (whose offset is the snapshot's,
// so retention keeps what a restart replays), and commits every
// commitEvery fed lines — and whenever it catches up with its backlog, and
// on graceful shutdown.
const (
	detectorGroup = "detector"
	commitEvery   = 256
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	return c
}

// Runtime is the assembled sharded detection runtime: N partition
// workers, each tailing its own WAL through its own pipeline, a
// consistent-hash router in front, and a sink fed from their commit logs.
type Runtime struct {
	cfg   Config
	part  *Partitioner
	cache *InterpCache
	reg   *obs.Registry
	parts []*partition
	// byIdx maps partition index → open partition (nil = not served by
	// this runtime, which only happens under Config.Subset). Guarded by
	// routeMu like parts.
	byIdx []*partition

	// routeMu guards the routing topology: part, parts, and cfg.Shards.
	// Producers and accessors read-lock; a live cutover's begin and
	// complete write-lock, making "freeze + journal + publish" and
	// "restamp + ring swap" atomic with respect to appends.
	routeMu sync.RWMutex
	// liveMu serializes LiveRebalance calls.
	liveMu sync.Mutex
	// cut is the active live cutover (nil outside one). Workers and the
	// router load it per record; it is published once the journal is
	// durable and cleared before the journal is removed.
	cut atomic.Pointer[Cutover]

	// closing is closed when Close begins: every delivery loop then gives
	// up after one failed retry round.
	closing   chan struct{}
	closeOnce sync.Once
	// retired holds the deliveries of partitions a shrink dropped (or Open
	// found past the layout): their commit logs outlive them (alerts.go).
	retiredMu sync.Mutex
	retired   []*delivery

	faninMu      sync.Mutex
	faninTotal   *obs.Counter
	sinkErrs     *obs.Counter
	routedLines  *obs.Counter
	rejectedByBP *obs.Counter
}

// partition is one shard: broker, consumer, pipeline, keyed windower,
// worker goroutine, commit log and delivery loop, and resume bookkeeping.
// Its durable state is the intake WAL, the commit log (alerts.go) and a
// snapshot at an offset S no later than the newest commit C (state.go):
// open replays the WAL's records S+1..C with output muted.
type partition struct {
	idx    int
	rt     *Runtime
	dir    string
	bk     *broker.Broker
	cons   *broker.Consumer
	reg    *obs.Registry
	faults *fault.Registry
	pipe   *pipeline.Pipeline
	keyed  *pipeline.Keyed
	layout int          // shard count this partition was opened under (persisted stamp)
	ring   *Partitioner // ownership ring the worker checks records against

	// feedMu serializes detection state (keyed windower, pipeline parser
	// and library, consumed/commit bookkeeping) between the worker — which
	// holds it per record — and a live cutover's coordinator, which holds
	// it to capture tails, apply splices and restamp. Lock order is
	// routeMu before feedMu; feedMu is never held across a routeMu
	// acquisition.
	feedMu sync.Mutex

	consumed  uint64        // highest offset handed to this worker
	committed atomic.Uint64 // C: the consumed offset of the commit log's newest record
	snapAt    uint64        // S: the offset the snapshot was taken at
	replayTo  uint64        // C at open: replay feeds the WAL up to it
	muted     bool          // until replay is done: its windows were observed before
	// A snapshot is due once the intake bytes fed since the last one
	// reach its size (0 after open), which bounds a replay by that size.
	fedBytes, snapBytes int64
	sinceCommit         int

	// forceSave makes the next flushCommit take a snapshot: cutover
	// splices, scrubs and restamps change state without consuming records,
	// so replaying the WAL could not rebuild them.
	forceSave bool

	commitErrs *obs.Counter

	// pending holds the reports raised since the last commit (under
	// feedMu); dl delivers the commit log they are committed to (alerts.go).
	pending []*core.Report
	dl      *delivery

	idle   atomic.Bool
	killed atomic.Bool
	// parkedOn names the move whose key's record the worker is waiting in
	// front of during a live cutover (nil otherwise). It is set once the
	// worker's position is flushed and committed; parked() is what tells
	// whether the key is still holding it there.
	parkedOn atomic.Pointer[Move]
	done     chan struct{}

	errMu sync.Mutex
	err   error
}

// Open builds the runtime at cfg.Dir: per-partition WAL directories are
// created (or recovered — torn tails truncated, offsets loaded, window
// tails restored), partition pipelines are assembled around clones of
// the detector's event table, and one worker per partition starts
// tailing its consumer group.
//
// A root carrying a live-cutover journal resumes the interrupted cutover
// before Open returns: the runtime must be opened at the journal's
// target shard count, partitions open under their mid-cutover layouts
// (a committed move's splice is in its destination's snapshot), and the
// remaining moves cut over exactly as if the process had never died.
func Open(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("shard: Config.Dir is required")
	}
	if cfg.Detector == nil || cfg.Interp == nil || cfg.Embedder == nil || cfg.Sink == nil {
		return nil, errors.New("shard: Detector, Interp, Embedder and Sink are required")
	}
	// A log at the root is what `serve -broker-dir` wrote before every
	// WAL-backed serve was a runtime. Opening beside it would start an
	// empty p0 and strand its acknowledged, unconsumed records.
	if held, err := broker.HoldsLog(cfg.Dir); err != nil {
		return nil, err
	} else if held {
		p0 := PartitionDir(cfg.Dir, 0)
		return nil, fmt.Errorf("shard: %[1]s holds a single broker's log at its root, but partition logs live in %[2]s; "+
			"with the process stopped, move it once — mkdir %[2]s && mv %[1]s/*.wal %[1]s/offsets.json %[2]s/ — "+
			"and partition 0 resumes at its committed offset + 1", cfg.Dir, p0)
	}
	if cfg.Subset != nil {
		seen := make(map[int]bool, len(cfg.Subset))
		for _, i := range cfg.Subset {
			if i < 0 || i >= cfg.Shards {
				return nil, fmt.Errorf("shard: Subset partition %d out of range for %d shards", i, cfg.Shards)
			}
			if seen[i] {
				return nil, fmt.Errorf("shard: Subset lists partition %d twice", i)
			}
			seen[i] = true
		}
	}
	// A journal at the root is an in-process cutover this runtime must
	// finish before serving; Config.Cutover is a cluster coordinator's
	// journal, whose cutover this runtime only takes part in. Either way
	// the runtime opens mid-cutover from the same spec.
	j, err := LoadCutoverJournal(filepath.Join(cfg.Dir, CutoverJournalName))
	if err != nil {
		return nil, err
	}
	spec := cfg.Cutover
	if j != nil {
		if spec != nil {
			return nil, fmt.Errorf("shard: %s has its own live-cutover journal and the config names a networked cutover; "+
				"finish one before starting the other", cfg.Dir)
		}
		if cfg.Subset != nil {
			return nil, fmt.Errorf("shard: %s has a live cutover in progress; finish it with a full runtime "+
				"(every partition) before serving a subset", cfg.Dir)
		}
		s := j.Spec(true)
		spec = &s
	}
	if spec != nil {
		switch {
		case spec.From < 1 || spec.To == spec.From:
			return nil, fmt.Errorf("shard: a live cutover needs two different positive partition counts (%d -> %d)", spec.From, spec.To)
		case cfg.Shards != spec.To:
			return nil, fmt.Errorf("shard: %s has a live cutover to %d partitions in progress but the runtime is opening %d; "+
				"reopen at %d shards to let the cutover finish", cfg.Dir, spec.To, cfg.Shards, spec.To)
		case cfg.Vnodes != spec.Vnodes:
			return nil, fmt.Errorf("shard: %s's live cutover was computed with Vnodes=%d but the runtime is opening with %d; "+
				"a different ring would move a different key set", cfg.Dir, spec.Vnodes, cfg.Vnodes)
		case len(spec.Freeze) != spec.From:
			return nil, fmt.Errorf("shard: the live cutover records %d freeze offsets for %d donor partitions", len(spec.Freeze), spec.From)
		}
	}
	rt := &Runtime{
		cfg:          cfg,
		part:         NewPartitionerVnodes(cfg.Shards, cfg.Vnodes),
		reg:          cfg.Metrics,
		closing:      make(chan struct{}),
		faninTotal:   cfg.Metrics.Counter("shard.fanin_reports_total"),
		sinkErrs:     cfg.Metrics.Counter("shard.sink_errors_total"),
		routedLines:  cfg.Metrics.Counter("shard.routed_lines_total"),
		rejectedByBP: cfg.Metrics.Counter("shard.rejected_lines_total"),
	}
	rt.cache = NewInterpCache(cfg.Interp, cfg.Metrics)
	cfg.Metrics.Gauge("shard.partitions").Set(int64(cfg.Shards))

	// Mid-cutover the runtime holds both layouts' partitions: a shrink's
	// retired partitions stay open as donors until the finish drops them.
	slots := cfg.Shards
	if spec != nil && spec.From > slots {
		slots = spec.From
	}
	own := cfg.Subset
	if own == nil {
		own = make([]int, slots)
		for i := range own {
			own[i] = i
		}
	} else {
		own = append([]int(nil), own...)
		sort.Ints(own)
	}
	cfg.Metrics.Gauge("shard.partitions_owned").Set(int64(len(own)))
	rt.byIdx = make([]*partition, slots)
	if spec != nil {
		if err := rt.openMidCutover(*spec, own); err != nil {
			rt.closePartitions()
			return nil, err
		}
		if j != nil {
			if _, err := rt.coordinator(nil).Run(j); err != nil {
				rt.Kill()
				return nil, fmt.Errorf("shard: resuming live cutover: %w", err)
			}
		}
	} else {
		for _, i := range own {
			pt, err := rt.openPartitionAt(i, openOpts{})
			if err != nil {
				rt.closePartitions()
				return nil, fmt.Errorf("shard: opening partition %d: %w", i, err)
			}
			rt.parts = append(rt.parts, pt)
			rt.byIdx[i] = pt
		}
		for _, pt := range rt.parts {
			pt.start()
		}
	}
	if cfg.Subset == nil {
		if err := rt.openRetired(slots); err != nil {
			rt.Close()
			return nil, err
		}
	}
	return rt, nil
}

// openMidCutover opens the partitions in own into the live cutover spec
// describes and starts their workers under it: the old layout's
// partitions under the old layout and ring, the ones the new layout adds
// (when owned) under the new. The cutover is NOT driven here — the
// runtime serves under it until a Coordinator finishes the protocol
// (Open itself for a journal at this root, the fleet's coordinator over
// the admin surface otherwise).
func (rt *Runtime) openMidCutover(spec CutoverSpec, own []int) error {
	cut, err := newCutover(spec)
	if err != nil {
		return err
	}
	for _, i := range own {
		o := midCutoverOpts(spec, i, spec.From, cut.oldRing)
		if i >= spec.From {
			if !spec.Dest {
				return fmt.Errorf("shard: partition %d is added by the cutover but the spec does not mark this runtime as its host", i)
			}
			o = midCutoverOpts(spec, i, spec.To, cut.newRing)
		}
		pt, err := rt.openPartitionAt(i, o)
		if err != nil {
			return fmt.Errorf("shard: opening partition %d: %w", i, err)
		}
		rt.parts = append(rt.parts, pt)
		rt.byIdx[i] = pt
	}
	if err := rt.enterCutover(cut, spec); err != nil {
		return err
	}
	rt.cut.Store(cut)
	rt.reg.Gauge("shard.cutover_active").Set(1)
	for _, pt := range rt.parts {
		pt.start()
	}
	return nil
}

// openOpts parameterizes openPartitionAt for mid-cutover opens; the zero
// value opens a partition normally under the runtime's configured layout.
type openOpts struct {
	// layout is the shard count to open under (0 = cfg.Shards).
	layout int
	// ring is the ownership ring the worker checks records against
	// (nil = the runtime's partitioner).
	ring *Partitioner
	// acceptStamp, when set, overrides which persisted layout stamps are
	// acceptable (default: layout, or 0 — a fresh partition, the only
	// state loadState returns unstamped).
	acceptStamp func(int) bool
	// cutover opens the partition into a live cutover: enterCutover
	// replays the WAL under it.
	cutover bool
}

// openPartitionAt assembles one shard (no worker started yet).
func (rt *Runtime) openPartitionAt(i int, o openOpts) (_ *partition, err error) {
	cfg := rt.cfg
	if o.layout == 0 {
		o.layout = cfg.Shards
	}
	if o.ring == nil {
		o.ring = rt.part
	}
	dir := PartitionDir(cfg.Dir, i)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The snapshot is read first: a refused one leaves the directory as
	// it was.
	st, err := loadState(statePath(dir))
	if err != nil {
		return nil, err
	}
	acceptable := o.acceptStamp
	if acceptable == nil {
		acceptable = func(s int) bool { return s == 0 || s == o.layout }
	}
	if !acceptable(st.Partitions) {
		return nil, fmt.Errorf("shard: partition %s was laid out for %d shards but the runtime is opening %d; "+
			"serve at %d shards, then run `logsynergy rebalance -addr host:port -to %d` against it",
			dir, st.Partitions, cfg.Shards, st.Partitions, cfg.Shards)
	}
	reg, faults := obs.NewRegistry(), rt.faultsFor(i)

	bcfg := cfg.Broker
	bcfg.Dir = dir
	bcfg.Metrics = reg
	bcfg.Faults = faults
	bk, err := broker.Open(bcfg)
	if err != nil {
		return nil, err
	}
	var log *broker.Broker
	defer func() {
		if err != nil {
			bk.Close()
			if log != nil {
				log.Close()
			}
		}
	}()

	commitReg := obs.NewRegistry()
	if log, err = openCommitLog(cfg.Broker, dir, commitReg); err != nil {
		return nil, err
	}
	var last commitRecord
	if p := log.Last(); p != nil {
		if last, err = decodeCommit(string(p)); err != nil {
			return nil, err
		}
	}

	// Each partition scores with the shared read-only model but owns its
	// event-table clone and its own parser, so online extension never
	// crosses shard boundaries. A snapshot carries the parser's full
	// template groups (offline seeds plus everything the stream taught it)
	// — import them verbatim so restored ids keep their meaning. A fresh
	// partition carries none; it is seeded with the offline table's rows.
	det := core.NewDetector(cfg.Detector.Model, cfg.Detector.Table.Clone())
	det.Now = cfg.Detector.Now
	var parser *drain.Parser
	if len(st.Events) > 0 {
		parser = drain.NewDefault()
		if err := parser.Import(st.Events); err != nil {
			return nil, fmt.Errorf("restoring parser state: %w", err)
		}
	} else {
		parser = pipeline.SeededParser(det)
	}

	pcfg := cfg.Pipeline
	pcfg.Metrics = reg
	pcfg.Faults = faults
	pt := &partition{
		idx:        i,
		rt:         rt,
		dir:        dir,
		bk:         bk,
		reg:        reg,
		faults:     faults,
		layout:     o.layout,
		ring:       o.ring,
		commitErrs: reg.Counter("shard.commit_errors_total"),
		muted:      true,
		done:       make(chan struct{}),
	}
	if pt.dl, err = rt.newDelivery(i, faults, log, commitReg); err != nil {
		return nil, err
	}
	pt.pipe = pipeline.New(pcfg, parser, det, rt.cache, cfg.Embedder, pt)
	pt.keyed = pipeline.NewKeyed(pt.pipe)
	if cfg.OnWindow != nil {
		shardIdx := i
		pt.keyed.OnWindow = func(key string, seq []int, score float64, abandoned bool) {
			if !pt.muted {
				cfg.OnWindow(shardIdx, key, seq, score, abandoned)
			}
		}
	}

	// Sync the event table before touching any line: imported event ids
	// can be out of discovery order relative to the table (a rebalance
	// splices groups from other partitions), and lazy extension in the
	// feed path would mis-assign their vectors.
	if len(st.Events) > 0 {
		if err := pt.pipe.SyncTable(); err != nil {
			return nil, err
		}
	}
	pt.pipe.Library().Import(st.Patterns)
	if err := pt.keyed.Restore(st.Tails); err != nil {
		return nil, fmt.Errorf("shard: restoring partition %s: %w", dir, err)
	}

	if pt.cons, err = bk.Consumer(detectorGroup); err != nil {
		return nil, err
	}
	// Records up to the group's offset count as consumed even when the
	// snapshot is older (a log moved in from elsewhere).
	pt.snapAt = max(st.Consumed, pt.cons.Position()-1)
	pt.consumed = pt.snapAt
	pt.replayTo = max(last.Consumed, pt.snapAt)
	pt.committed.Store(pt.replayTo)
	if tail := bk.NextOffset() - 1; pt.replayTo > tail {
		// The WAL lost an unsynced tail: the lines appended next reuse its
		// offsets, so replay commits and snapshots at the tail first.
		pt.replayTo, pt.snapAt, pt.consumed, pt.forceSave = tail, min(pt.snapAt, tail), min(pt.consumed, tail), true
	}
	if !o.cutover {
		err = pt.replay(nil)
	}
	return pt, err
}

// faultsFor returns partition i's fault registry (nil = none).
func (rt *Runtime) faultsFor(i int) *fault.Registry {
	if rt.cfg.ShardFaults == nil {
		return nil
	}
	return rt.cfg.ShardFaults(i)
}

// replay feeds the WAL's records (snapAt, replayTo] through the feed path
// with output muted — their windows were observed and their alerts
// committed before the restart — and flushes at replayTo as its commit
// did. It runs once, before the worker starts, under cut, the live cutover
// the partition opens into (nil outside one).
func (pt *partition) replay(cut *Cutover) error {
	if !pt.muted {
		return nil
	}
	for pt.cons.Position() <= pt.replayTo {
		line, ok := pt.cons.Next()
		if !ok {
			return fmt.Errorf("shard: partition %d replaying offset %d: %v", pt.idx, pt.cons.Position(), pt.cons.Err())
		}
		pt.feed(cut, DefaultKeyFunc(line), line, pt.cons.Position()-1)
	}
	pt.keyed.Flush()
	pt.muted, pt.sinceCommit, pt.pending = false, 0, nil
	if pt.forceSave {
		return pt.flushCommit()
	}
	return nil
}

// PartitionDir renders partition i's WAL directory under root — the
// cluster layer uses it to stake epoch leases in partition directories
// before opening them.
func PartitionDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("p%d", i))
}

// start launches the partition's worker and its delivery loop.
func (pt *partition) start() {
	go pt.run()
	go pt.dl.run()
}

// idleCommitDelay is how long a partition's log must stay empty before its
// worker treats the backlog as drained and commits: longer than the gap
// between two requests of a busy producer, short enough that a stream that
// really stopped is committed at once by human measure.
const idleCommitDelay = 2 * time.Millisecond

// run is the partition worker: tail the consumer, demultiplex by key,
// feed the keyed pipeline, and commit on the configured cadence, when the
// backlog has drained and stayed empty for idleCommitDelay (pending
// windows are scored as soon as it drains), and at end of stream, which
// also takes a snapshot.
// During a live cutover the worker additionally parks before uncommitted
// moving keys (destination side) and skips a moving key's records on the
// wrong side of the freeze point and foreign-owned records (both sides).
func (pt *partition) run() {
	defer close(pt.done)
	for {
		if pt.caughtUp() {
			// Score what is pending now, but commit only once the log has
			// stayed empty for idleCommitDelay. A worker that keeps pace
			// with its producer catches up between any two requests; paying
			// a commit each time would make the commit count, and with it
			// throughput, a matter of timing.
			pt.feedMu.Lock()
			pt.keyed.Flush()
			pt.feedMu.Unlock()
			if pt.cons.WaitIdle(idleCommitDelay) {
				pt.feedMu.Lock()
				// Caught up, a snapshot frees every sealed WAL segment.
				pt.forceSave = pt.forceSave || pt.consumed > pt.snapAt && pt.bk.SegmentCount() > 1
				pt.flushCommit()
				pt.feedMu.Unlock()
				pt.idle.Store(true)
			}
		}
		line, ok := pt.cons.Next()
		if !ok {
			break
		}
		pt.idle.Store(false)
		key := DefaultKeyFunc(line)
		off := pt.cons.Position() - 1
		if !pt.awaitCommit(key, off) {
			// Shut down while parked mid-cutover: the record was never
			// consumed, so the resumed cutover redelivers it.
			break
		}
		pt.feedMu.Lock()
		pt.feed(pt.rt.cut.Load(), key, line, off)
		if pt.sinceCommit >= commitEvery {
			pt.flushCommit()
		}
		pt.feedMu.Unlock()
	}
	if !pt.killed.Load() {
		// End of stream (intake closed and backlog drained, or consumer
		// failure): every partition commits and snapshots its own state,
		// and its delivery ends once it has caught up.
		pt.feedMu.Lock()
		pt.forceSave = pt.forceSave || pt.consumed > pt.snapAt
		pt.flushCommit()
		pt.feedMu.Unlock()
		pt.dl.log.CloseIntake()
	}
	if err := pt.cons.Err(); err != nil {
		pt.setErr(err)
	}
	pt.idle.Store(true)
}

// feed takes the record at off: skipped if the snapshot reflects it, fed
// to detection if shouldFeed agrees. Called under feedMu.
func (pt *partition) feed(cut *Cutover, key, line string, off uint64) {
	if off <= pt.snapAt {
		return
	}
	pt.consumed = off
	pt.fedBytes += int64(len(line))
	if pt.shouldFeed(cut, key, off) {
		pt.keyed.Feed(key, line)
		pt.sinceCommit++
	}
}

// shouldFeed decides whether a consumed record enters detection, under
// cut, the live cutover (nil outside one). Called under feedMu.
// Mid-cutover a moving key's record is fed by its donor only below the
// donor's freeze point — what sits at or above it is a donor copy an
// earlier build appended — and by its destination only when destCopy
// says the record is the key's traffic. Outside that case the ownership
// ring decides: a record whose key no longer routes here (such a donor
// copy redelivered after the cutover finished) is skipped.
func (pt *partition) shouldFeed(cut *Cutover, key string, off uint64) bool {
	if cut != nil && cut.moving(key) {
		if cut.oldRing.Partition(key) == pt.idx {
			return off < cut.freeze[pt.idx]
		}
		return cut.destCopy(pt.idx, key, off)
	}
	return pt.ring.Partition(key) == pt.idx
}

// awaitCommit gates a destination's consumer during a live cutover: the
// destination's record of a moving key whose move has not been committed
// yet parks the worker until the move commits, the cutover finishes, or
// the runtime shuts down (false = stop without consuming the record). The worker flushes and commits before parking, so a crash
// while parked resumes with nothing to replay. A partition that serves
// other keys too (a shrink's survivors) holds those behind the parked
// record; every key is handed over by the finish at the latest.
func (pt *partition) awaitCommit(key string, off uint64) bool {
	cut := pt.rt.cut.Load()
	if cut == nil || !cut.moving(key) || !cut.destCopy(pt.idx, key, off) {
		return true
	}
	m := cut.moveOf(key)
	cut.mu.Lock()
	committed, closed := cut.committedLocked(m), cut.closed
	cut.mu.Unlock()
	if committed || closed {
		return !closed
	}

	pt.feedMu.Lock()
	pt.flushCommit()
	pt.feedMu.Unlock()
	pt.parkedOn.Store(&m)
	defer pt.parkedOn.Store(nil)

	cut.mu.Lock()
	defer cut.mu.Unlock()
	for !cut.closed && !cut.committedLocked(m) {
		cut.cond.Wait()
	}
	return !cut.closed
}

// parked reports whether the worker is held in front of a moving key's
// record that the cutover has not committed: its position is committed and
// it will not consume until the key's move commits. The commit is read
// rather than inferred from parkedOn alone — a worker whose move just
// committed still carries parkedOn until it is scheduled, and is about
// to feed everything queued behind that record.
func (pt *partition) parked() bool {
	m, cut := pt.parkedOn.Load(), pt.rt.cut.Load()
	return m != nil && cut != nil && !cut.isCommitted(*m)
}

// caughtUp reports whether the worker has consumed everything appended.
func (pt *partition) caughtUp() bool {
	return pt.cons.Position() >= pt.bk.NextOffset()
}

// Fault points of a partition's commit: PointCommit before the commit
// log append, PointSnapshot before a snapshot.
const (
	PointCommit   = "shard.commit"
	PointSnapshot = "shard.snapshot"
)

// flushCommit scores pending windows and, when the partition consumed
// anything since its last commit, commits: one append to the commit log,
// made durable by the log's fsync policy. Then it takes a snapshot if one
// is due: forceSave, or as many intake bytes fed since the last one as it
// held. A failed append keeps the alerts pending and a failed snapshot
// stays due; both are counted and retried on the next cadence — a crash
// before then re-scores what was not committed. Called under feedMu.
func (pt *partition) flushCommit() error {
	pt.keyed.Flush()
	pt.sinceCommit = 0
	if pt.consumed != pt.committed.Load() {
		if err := pt.faults.Check(PointCommit); err != nil {
			return pt.commitFailed(err)
		}
		if err := pt.appendCommit(); err != nil {
			return pt.commitFailed(err)
		}
	}
	if pt.forceSave || pt.consumed > pt.snapAt && pt.fedBytes >= pt.snapBytes {
		if err := pt.snapshot(); err != nil {
			return pt.commitFailed(err)
		}
	}
	return nil
}

// snapshot installs the detection state at the committed offset: the
// commit log is synced first, so it never runs ahead of a durable commit,
// and the detector group's offset moves to it after, so WAL retention
// keeps what the next replay reads. Called under feedMu after a commit.
func (pt *partition) snapshot() error {
	if err := pt.faults.Check(PointSnapshot); err != nil {
		return err
	}
	if err := pt.dl.log.Sync(); err != nil {
		return err
	}
	path := statePath(pt.dir)
	st := partitionState{
		Partitions: pt.layout,
		Consumed:   pt.consumed,
		Tails:      pt.keyed.Tails(),
		Events:     pt.pipe.Parser().Export(),
		Patterns:   pt.pipe.Library().Export(),
	}
	if err := saveState(path, st); err != nil {
		return err
	}
	pt.snapAt, pt.fedBytes, pt.forceSave = pt.consumed, 0, false
	if fi, err := os.Stat(path); err == nil {
		pt.snapBytes = fi.Size()
	}
	pt.cons.Ack(pt.snapAt)
	return pt.cons.Commit()
}

// commitFailed counts and records a failed commit step.
func (pt *partition) commitFailed(err error) error {
	pt.commitErrs.Inc()
	pt.setErr(err)
	return err
}

// setErr records the first worker error.
func (pt *partition) setErr(err error) {
	pt.errMu.Lock()
	if pt.err == nil {
		pt.err = err
	}
	pt.errMu.Unlock()
}

// workerErr returns the recorded worker error, if any.
func (pt *partition) workerErr() error {
	pt.errMu.Lock()
	defer pt.errMu.Unlock()
	return pt.err
}

// finished reports whether the worker goroutine has exited.
func (pt *partition) finished() bool { return isClosed(pt.done) }

// drained reports whether this partition has nothing left to do: its
// worker exited, or it is idle with a commit at its WAL tail.
func (pt *partition) drained() bool {
	return pt.finished() || pt.idle.Load() && pt.committed.Load() == pt.bk.NextOffset()-1
}

// Shards returns the partition count.
func (rt *Runtime) Shards() int {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	return rt.cfg.Shards
}

// Partitioner exposes the key → partition mapping (diagnostics, tests).
func (rt *Runtime) Partitioner() *Partitioner {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	return rt.part
}

// Cache exposes the shared interpretation cache.
func (rt *Runtime) Cache() *InterpCache { return rt.cache }

// PartitionFor returns the partition index owning key.
func (rt *Runtime) PartitionFor(key string) int {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	return rt.part.Partition(key)
}

// partitions snapshots the partition slice under the route lock.
func (rt *Runtime) partitions() []*partition {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	return rt.parts
}

// partitionAt returns the open partition with index i, or nil when the
// runtime does not serve it (a Subset runtime).
func (rt *Runtime) partitionAt(i int) *partition {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	if i < 0 || i >= len(rt.byIdx) {
		return nil
	}
	return rt.byIdx[i]
}

// Owned returns the partition indices this runtime serves, ascending.
// Without Config.Subset that is every partition; AdoptPartition extends
// the set at runtime.
func (rt *Runtime) Owned() []int {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	own := make([]int, 0, len(rt.parts))
	for i, pt := range rt.byIdx {
		if pt != nil {
			own = append(own, i)
		}
	}
	return own
}

// ShardStats returns partition i's pipeline stats (zero when the
// runtime does not serve partition i).
func (rt *Runtime) ShardStats(i int) pipeline.Stats {
	pt := rt.partitionAt(i)
	if pt == nil {
		return pipeline.Stats{}
	}
	return pt.pipe.Stats()
}

// PartitionHealth is one partition's liveness row in a /healthz body:
// how far its commits trail its WAL (Committed is the offset its newest
// commit consumed through), whether its worker is idle, and how far its
// sink trails its alerts.
type PartitionHealth struct {
	Partition  int    `json:"partition"`
	Lag        uint64 `json:"lag"`
	NextOffset uint64 `json:"next_offset"`
	Committed  uint64 `json:"committed"`
	// Consumed is the highest offset handed to the partition's worker —
	// a live cutover's coordinator compares it against the donor's
	// freeze offset to know when the key tails are final.
	Consumed uint64 `json:"consumed"`
	Idle     bool   `json:"idle"`
	// UndeliveredAlerts counts the committed alerts the sink has not
	// taken: a down sink shows here.
	UndeliveredAlerts uint64 `json:"undelivered_alerts"`
}

// Health reports per-partition lag/backlog for every partition this
// runtime serves, ascending by partition index — the payload a cluster
// node's /healthz endpoint exposes to the front router's prober.
func (rt *Runtime) Health() []PartitionHealth {
	rt.routeMu.RLock()
	defer rt.routeMu.RUnlock()
	out := make([]PartitionHealth, 0, len(rt.parts))
	for i, pt := range rt.byIdx {
		if pt == nil {
			continue
		}
		pt.feedMu.Lock()
		consumed := pt.consumed
		pt.feedMu.Unlock()
		committed, next := pt.committed.Load(), pt.bk.NextOffset()
		out = append(out, PartitionHealth{
			Partition:         i,
			Lag:               next - 1 - committed,
			NextOffset:        next,
			Committed:         committed,
			Consumed:          consumed,
			Idle:              pt.idle.Load(),
			UndeliveredAlerts: pt.dl.undelivered(),
		})
	}
	return out
}

// AdoptPartition opens partition idx through the crash-recovery path —
// detection state restored from the snapshot, the WAL replayed from it to
// the newest commit — and starts its worker. Cluster
// failover uses it: a standby node adopts a dead node's partitions off
// shared storage and resumes exactly where the dead node's last commit
// left off. The partition must belong to the runtime's layout and not
// already be open here; fencing against the previous owner is the
// caller's job (the cluster layer's epoch lease).
func (rt *Runtime) AdoptPartition(idx int) error {
	rt.routeMu.Lock()
	defer rt.routeMu.Unlock()
	if idx < 0 || idx >= len(rt.byIdx) {
		return fmt.Errorf("shard: partition %d out of range for %d shards", idx, len(rt.byIdx))
	}
	if rt.byIdx[idx] != nil {
		return fmt.Errorf("shard: partition %d is already open in this runtime", idx)
	}
	pt, err := rt.openPartitionAt(idx, openOpts{})
	if err != nil {
		return fmt.Errorf("shard: adopting partition %d: %w", idx, err)
	}
	rt.parts = append(rt.parts, pt)
	rt.byIdx[idx] = pt
	rt.reg.Gauge("shard.partitions_owned").Add(1)
	pt.start()
	return nil
}

// DropPartition closes partition idx crash-style — no final flush, no
// commit, no snapshot, no further alert delivery — and removes it from
// the runtime.
// This is the fencing half of cluster failover: a node a newer manifest
// epoch deposes must stop touching the partition's files on shared
// storage immediately, because the new owner's crash recovery is about
// to replay them. The adopter resumes from the last commit that reached
// the commit log, so dropping loses nothing that was ever acknowledged;
// a graceful final commit here would instead race the adopter's writes. Lines keyed to a dropped partition answer
// ErrNotAssigned from the moment it returns.
func (rt *Runtime) DropPartition(idx int) error {
	rt.routeMu.Lock()
	if idx < 0 || idx >= len(rt.byIdx) || rt.byIdx[idx] == nil {
		rt.routeMu.Unlock()
		return fmt.Errorf("shard: partition %d is not open in this runtime", idx)
	}
	pt := rt.byIdx[idx]
	rt.byIdx[idx] = nil
	// Copy-on-write: partitions() hands the parts slice out without the
	// lock, so never mutate the published backing array.
	parts := make([]*partition, 0, len(rt.parts)-1)
	for _, p := range rt.parts {
		if p != pt {
			parts = append(parts, p)
		}
	}
	rt.parts = parts
	rt.routeMu.Unlock()
	pt.kill()
	rt.reg.Gauge("shard.partitions_owned").Add(-1)
	return nil
}

// Stats sums pipeline stats across every partition.
func (rt *Runtime) Stats() pipeline.Stats {
	var total pipeline.Stats
	for _, pt := range rt.partitions() {
		s := pt.pipe.Stats()
		total.LinesCollected += s.LinesCollected
		total.SequencesFormed += s.SequencesFormed
		total.PatternHits += s.PatternHits
		total.PatternMisses += s.PatternMisses
		total.PatternEvictions += s.PatternEvictions
		total.Anomalies += s.Anomalies
		total.NewEvents += s.NewEvents
		total.Retries += s.Retries
		total.Degraded += s.Degraded
		total.BreakerOpens += s.BreakerOpens
		total.ParseFailures += s.ParseFailures
		total.DetectFailures += s.DetectFailures
	}
	return total
}

// Committed returns the offset partition i's newest commit consumed
// through (0 when the runtime does not serve partition i).
func (rt *Runtime) Committed(i int) uint64 {
	pt := rt.partitionAt(i)
	if pt == nil {
		return 0
	}
	return pt.committed.Load()
}

// Snapshot merges the runtime registry with every partition's registry.
// Each partition's counters and gauges additionally appear under a
// shard<i>. prefix, so a scrape shows both fleet totals and per-shard
// breakdowns; shard.alerts_undelivered is read off the deliveries, retired
// partitions' included. The commit logs' broker metrics (retired
// partitions' too) appear under a commits. prefix only, so the unprefixed
// broker.* names stay the intake WAL's.
func (rt *Runtime) Snapshot() obs.Snapshot {
	merged := rt.reg.Snapshot()
	for _, pt := range rt.partitions() {
		s := pt.reg.Snapshot()
		s.Gauges["shard.alerts_undelivered"] = int64(pt.dl.undelivered())
		merged = merged.Merge(s).Merge(pt.dl.reg.Snapshot().Prefixed("commits."))
		prefix := fmt.Sprintf("shard%d.", pt.idx)
		for k, v := range s.Counters {
			merged.Counters[prefix+k] = v
		}
		for k, v := range s.Gauges {
			merged.Gauges[prefix+k] = v
		}
	}
	for _, d := range rt.retirees() {
		merged.Gauges["shard.alerts_undelivered"] += int64(d.undelivered())
		merged = merged.Merge(d.reg.Snapshot().Prefixed("commits."))
	}
	return merged
}

// Drain blocks until every partition is drained — its worker exited, or
// it is idle with an empty backlog and a commit at its WAL tail — and
// every delivery, retired partitions' included, has delivered every
// committed alert, or ctx ends. Appends arriving during Drain extend the wait; a partition
// parked on an uncommitted moving key mid-cutover counts as drained (its
// position is committed) for as long as the key stays uncommitted.
func (rt *Runtime) Drain(ctx context.Context) error {
	for {
		all := true
		for _, pt := range rt.partitions() {
			if (!pt.drained() && !pt.parked()) || !pt.dl.delivered() {
				all = false
				break
			}
		}
		for _, d := range rt.retirees() {
			all = all && d.delivered()
		}
		if all {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// CloseIntake stops accepting appends on every partition. Workers drain
// their backlogs, flush, commit, and exit — the first half of a graceful
// shutdown.
func (rt *Runtime) CloseIntake() {
	for _, pt := range rt.partitions() {
		pt.bk.CloseIntake()
	}
}

// Close shuts the runtime down gracefully: intake closes, every worker
// drains, commits and takes a snapshot, and every delivery — retired
// partitions' included — runs to the end of its commit log. The
// deliveries give up together after one failed retry round, leaving what
// a down sink refused in the commit logs for the next open
// (UndeliveredAlerts counts it); a sink that hangs instead holds Close until it returns. Every
// error is returned, joined. Closing mid live-cutover is safe: parked
// workers wake and exit without consuming, the journal stays in place,
// and the next Open resumes the cutover.
func (rt *Runtime) Close() error {
	rt.CloseIntake() // every worker drains at once
	if cut := rt.cut.Load(); cut != nil {
		cut.interrupt()
	}
	rt.closeOnce.Do(func() { close(rt.closing) })
	var errs []error
	for _, pt := range rt.partitions() {
		errs = append(errs, pt.close(), pt.workerErr())
	}
	for _, d := range rt.retirees() {
		errs = append(errs, d.close())
	}
	return errors.Join(errs...)
}

// Kill simulates a crash: every worker stops without flushing or
// committing, delivery stops where it is, and every broker drops its
// handles with no final fsync or offset persist. The next Open resumes
// from the last commit appended to each commit log.
func (rt *Runtime) Kill() {
	if cut := rt.cut.Load(); cut != nil {
		cut.interrupt()
	}
	for _, pt := range rt.partitions() {
		pt.kill()
	}
	for _, d := range rt.retirees() {
		d.kill()
	}
}

// closePartitions releases every partition's consumer and logs — Open's
// failure path, before any worker started.
func (rt *Runtime) closePartitions() {
	for _, pt := range rt.partitions() {
		pt.closeLogs()
	}
}

// close shuts a started partition down gracefully once Close has begun:
// the worker drains, commits and takes a snapshot, delivery runs to the
// end of the commit log, then the logs close.
func (pt *partition) close() error {
	return errors.Join(pt.retire(), pt.dl.close())
}

// kill stops a started partition crash-style: no flush, no commit, no
// further delivery, and both logs drop their handles unsynced.
func (pt *partition) kill() {
	pt.killed.Store(true)
	pt.bk.Kill()
	<-pt.done
	pt.cons.Close()
	pt.dl.kill()
}

// closeLogs releases the consumer and both logs.
func (pt *partition) closeLogs() error {
	pt.cons.Close()
	return errors.Join(pt.bk.Close(), pt.dl.log.Close())
}
