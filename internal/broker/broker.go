// Package broker is a durable, replayable log ingestion layer — the
// repo-local analogue of the paper's §VI collection bus
// (Filebeat→Kafka→Logstash). Raw log lines land in a segmented
// append-only write-ahead log (internal/framelog: CRC32C-framed,
// length-prefixed records) before the detection pipeline ever sees them,
// so a crash, restart, or slow consumer no longer loses traffic the way
// the in-memory SliceSource path does.
//
// The subsystem is pure Go, stdlib-only, and deliberately small:
//
//   - WAL: records append to the active segment; segments roll at a
//     configurable size and are immutable once sealed. Durability is an
//     fsync policy — always (sync every append), interval (a background
//     syncer on a cadence), never (page cache only).
//   - Recovery: Open rescans every segment, verifies each frame's CRC,
//     and truncates a torn tail on the active segment (the signature of
//     a crash mid-append). Corruption in a sealed segment is refused
//     loudly rather than silently skipped.
//   - Consumer groups: named groups own committed offsets persisted to
//     an offsets file; a restarted consumer resumes at committed+1, so
//     acknowledged records are never redelivered and unacknowledged
//     ones always are (at-least-once).
//   - Retention: sealed segments every group has fully consumed are
//     deleted, bounding disk.
//   - Admission control: total retained bytes are bounded; a full
//     backlog either blocks the producer (lossless backpressure) or
//     rejects the append (load shedding; the shard runtime's /ingest
//     turns this into 429).
//
// Everything is instrumented through obs (appended/acked/replayed/
// truncated counters, segment and per-group lag gauges, append and
// fsync latency histograms) and faultable at the named injection points
// PointAppend, PointFsync, PointRead.
package broker

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"logsynergy/internal/fault"
	"logsynergy/internal/framelog"
	"logsynergy/internal/obs"
)

// Named fault-injection points the broker consults (Config.Faults).
const (
	// PointAppend guards one append call (single record or batch).
	PointAppend = "broker.append"
	// PointFsync guards one fsync of the active segment.
	PointFsync = "broker.fsync"
	// PointRead guards one consumer record read.
	PointRead = "broker.read"
)

// Errors returned by the append path. Intake handlers map them onto
// HTTP statuses (429, 503).
var (
	// ErrBacklogFull reports an append rejected by admission control
	// under FullReject.
	ErrBacklogFull = errors.New("broker: backlog full")
	// ErrClosed reports an append or consumer operation after the
	// intake was closed.
	ErrClosed = errors.New("broker: closed")
)

// FsyncPolicy selects when appended records are flushed to stable
// storage.
type FsyncPolicy int

const (
	// FsyncInterval syncs on a background cadence (Config.FsyncEvery).
	// A crash loses at most one interval of appends; this is the
	// production default.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs inside every append call before it returns
	// (strongest durability, slowest).
	FsyncAlways
	// FsyncNever leaves flushing to the OS page cache (fastest; a
	// machine crash may lose recent records, a process crash does not).
	FsyncNever
)

// String names the policy for flags and logs.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return "interval"
}

// ParseFsyncPolicy maps the CLI spelling onto a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("broker: unknown fsync policy %q (want always, interval or never)", s)
}

// FullPolicy selects what an append does when the retained backlog hits
// Config.MaxBacklogBytes.
type FullPolicy int

const (
	// FullBlock parks the producer until retention frees space
	// (lossless backpressure; requires a live consumer committing
	// offsets, or the producer waits forever).
	FullBlock FullPolicy = iota
	// FullReject fails the append with ErrBacklogFull (load shedding;
	// the HTTP intake answers 429).
	FullReject
)

// String names the policy for flags and logs.
func (p FullPolicy) String() string {
	if p == FullReject {
		return "reject"
	}
	return "block"
}

// ParseFullPolicy maps the CLI spelling onto a policy.
func ParseFullPolicy(s string) (FullPolicy, error) {
	switch s {
	case "block", "":
		return FullBlock, nil
	case "reject":
		return FullReject, nil
	}
	return 0, fmt.Errorf("broker: unknown backlog policy %q (want block or reject)", s)
}

// MaxRecordBytes bounds one record's payload: larger appends fail, and
// recovery treats larger claimed frame lengths as corruption.
const MaxRecordBytes = 1 << 20

// Config assembles a broker. Only Dir is required; zero fields take the
// defaults documented on each.
type Config struct {
	// Dir is the WAL directory (created if missing). One broker owns a
	// directory at a time.
	Dir string
	// SegmentBytes rolls the active segment once it would exceed this
	// size (default 8 MiB). A single batch larger than the limit still
	// lands in one segment.
	SegmentBytes int64
	// Fsync is the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the background sync cadence under FsyncInterval
	// (default 50ms).
	FsyncEvery time.Duration
	// MaxBacklogBytes bounds the total retained WAL bytes (default
	// 256 MiB; <0 = unbounded). Appends past the bound follow
	// FullPolicy.
	MaxBacklogBytes int64
	// FullPolicy selects block-vs-reject on a full backlog (default
	// FullBlock).
	FullPolicy FullPolicy
	// DisableRetention keeps fully-consumed sealed segments instead of
	// deleting them (audit/replay-from-zero workloads).
	DisableRetention bool
	// Metrics receives the broker's counters, gauges and histograms
	// (nil = obs.Default()).
	Metrics *obs.Registry
	// Faults is the injection registry consulted at PointAppend,
	// PointFsync and PointRead (nil = nothing injected).
	Faults *fault.Registry
}

// withDefaults fills zero fields with production defaults.
func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.FsyncEvery <= 0 {
		c.FsyncEvery = 50 * time.Millisecond
	}
	if c.MaxBacklogBytes == 0 {
		c.MaxBacklogBytes = 256 << 20
	}
	return c
}

// brokerObs caches the broker's metric handles.
type brokerObs struct {
	appended      *obs.Counter
	appendedBytes *obs.Counter
	acked         *obs.Counter
	consumed      *obs.Counter
	replayed      *obs.Counter
	truncated     *obs.Counter
	truncatedB    *obs.Counter
	retained      *obs.Counter
	blocked       *obs.Counter
	rejected      *obs.Counter
	appendErrors  *obs.Counter
	fsyncErrors   *obs.Counter
	readErrors    *obs.Counter
	commitErrors  *obs.Counter
	segments      *obs.Gauge
	backlogBytes  *obs.Gauge
	nextOffset    *obs.Gauge
	appendSec     *obs.Histogram
	fsyncSec      *obs.Histogram
}

func newBrokerObs(reg *obs.Registry) brokerObs {
	return brokerObs{
		appended:      reg.Counter("broker.appended_total"),
		appendedBytes: reg.Counter("broker.appended_bytes"),
		acked:         reg.Counter("broker.acked_total"),
		consumed:      reg.Counter("broker.consumed_total"),
		replayed:      reg.Counter("broker.replayed_total"),
		truncated:     reg.Counter("broker.truncated_total"),
		truncatedB:    reg.Counter("broker.truncated_bytes"),
		retained:      reg.Counter("broker.retention_deleted_total"),
		blocked:       reg.Counter("broker.blocked_appends_total"),
		rejected:      reg.Counter("broker.rejected_appends_total"),
		appendErrors:  reg.Counter("broker.append_errors_total"),
		fsyncErrors:   reg.Counter("broker.fsync_errors_total"),
		readErrors:    reg.Counter("broker.read_errors_total"),
		commitErrors:  reg.Counter("broker.commit_errors_total"),
		segments:      reg.Gauge("broker.segments"),
		backlogBytes:  reg.Gauge("broker.backlog_bytes"),
		nextOffset:    reg.Gauge("broker.next_offset"),
		appendSec:     reg.Histogram("broker.append_seconds"),
		fsyncSec:      reg.Histogram("broker.fsync_seconds"),
	}
}

// Broker is the durable log broker: one WAL directory, any number of
// producers (Append/AppendBatch, the HTTP intake) and consumer groups.
// All methods are safe for concurrent use.
type Broker struct {
	cfg Config
	reg *obs.Registry
	om  brokerObs

	mu    sync.Mutex
	cond  *sync.Cond // signaled on append / intake close (tailing consumers)
	space *sync.Cond // signaled on retention / close (blocked producers)

	segments   []*segment // ascending base; last is active
	active     *os.File
	nextOff    uint64 // offset the next appended record gets (1-based)
	firstOff   uint64 // oldest retained offset (base of segments[0])
	liveBytes  int64  // total retained WAL bytes
	lastSynced uint64 // highest offset covered by an fsync (or assumed durable)
	last       []byte // the newest record's payload (nil for an empty log)
	failed     error  // sticky write-path failure; appends refuse until reopen

	groups    map[string]uint64 // committed offset per consumer group
	lagGauges map[string]*obs.Gauge

	intakeClosed bool
	closed       bool
	syncStop     chan struct{}
	syncDone     chan struct{}
}

// Open opens (or creates) the broker at cfg.Dir, replaying every
// segment: frames are CRC-verified, a torn tail on the active segment is
// truncated (counted in broker.truncated_total / truncated_bytes), and
// committed consumer offsets are loaded from the offsets file.
func Open(cfg Config) (*Broker, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("broker: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("broker: creating %s: %w", cfg.Dir, err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	b := &Broker{
		cfg:       cfg,
		reg:       reg,
		om:        newBrokerObs(reg),
		groups:    make(map[string]uint64),
		lagGauges: make(map[string]*obs.Gauge),
	}
	b.cond = sync.NewCond(&b.mu)
	b.space = sync.NewCond(&b.mu)

	segs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		segs = []*segment{{base: 1, path: segmentPath(cfg.Dir, 1)}}
		f, err := os.OpenFile(segs[0].path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, fmt.Errorf("broker: creating first segment: %w", err)
		}
		f.Close()
	}
	for i, seg := range segs {
		recs, valid, scanErr, err := framelog.Scan(seg.path, MaxRecordBytes, func(p []byte) { b.last = p })
		if err != nil {
			return nil, fmt.Errorf("broker: opening segment %s: %w", seg.path, err)
		}
		fi, err := os.Stat(seg.path)
		if err != nil {
			return nil, fmt.Errorf("broker: stating segment: %w", err)
		}
		if valid < fi.Size() {
			if i != len(segs)-1 {
				// Only the active tail can legitimately be torn; damage
				// inside a sealed segment means lost acknowledged data and
				// must not be silently truncated away.
				return nil, fmt.Errorf("broker: sealed segment %s corrupt at byte %d: %v", seg.path, valid, scanErr)
			}
			if err := os.Truncate(seg.path, valid); err != nil {
				return nil, fmt.Errorf("broker: truncating torn tail of %s: %w", seg.path, err)
			}
			b.om.truncated.Inc()
			b.om.truncatedB.Add(fi.Size() - valid)
		}
		seg.recs, seg.size = recs, valid
		b.om.replayed.Add(int64(recs))
		b.liveBytes += valid
		if i > 0 && segs[i-1].base+segs[i-1].recs != seg.base {
			return nil, fmt.Errorf("broker: offset gap between segments %s and %s", segs[i-1].path, seg.path)
		}
	}
	b.segments = segs
	b.firstOff = segs[0].base
	last := segs[len(segs)-1]
	b.nextOff = last.base + last.recs
	// Whatever survived replay is as durable as it will get; the acked
	// counter tracks only this process's appends.
	b.lastSynced = b.nextOff - 1

	b.active, err = os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("broker: opening active segment: %w", err)
	}
	groups, err := loadOffsets(offsetsPath(cfg.Dir))
	if err != nil {
		b.active.Close()
		return nil, err
	}
	ahead := false
	for g, off := range groups {
		// Clamp committed offsets into the retained range: behind the
		// oldest record (retention already freed it) or ahead of the log
		// (offsets file survived a WAL wipe, or the log lost an unsynced
		// tail) are both repaired, not fatal.
		if off > b.nextOff-1 {
			off, ahead = b.nextOff-1, true
		}
		if off < b.firstOff-1 {
			off = b.firstOff - 1
		}
		b.groups[g] = off
	}
	// A repair ahead of the log is persisted at once: the next appends
	// reuse those offsets, and a crash before the group's next commit
	// would otherwise count them consumed.
	if ahead {
		if err := b.saveOffsetsLocked(); err != nil {
			b.active.Close()
			return nil, err
		}
	}
	b.updateGaugesLocked()

	if cfg.Fsync == FsyncInterval {
		b.syncStop = make(chan struct{})
		b.syncDone = make(chan struct{})
		go b.syncLoop(b.syncStop)
	}
	return b, nil
}

// syncLoop is the background fsync ticker under FsyncInterval. The stop
// channel is passed in (not read off the struct) because stopSyncLoop
// nils the field before closing it.
func (b *Broker) syncLoop(stop <-chan struct{}) {
	defer close(b.syncDone)
	t := time.NewTicker(b.cfg.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_ = b.Sync()
		}
	}
}

// Append stores one log line, returning its offset. Durability on
// return follows the fsync policy; admission control may block or
// reject per FullPolicy.
func (b *Broker) Append(line string) (uint64, error) {
	first, _, err := b.appendPayloads([][]byte{[]byte(line)})
	return first, err
}

// AppendBatch stores lines as consecutive records with a single write
// (and, under FsyncAlways, a single fsync), returning the offsets of the
// first and last. An empty batch is a no-op.
func (b *Broker) AppendBatch(lines []string) (first, last uint64, err error) {
	if len(lines) == 0 {
		return 0, 0, nil
	}
	payloads := make([][]byte, len(lines))
	for i, l := range lines {
		payloads[i] = []byte(l)
	}
	return b.appendPayloads(payloads)
}

func (b *Broker) appendPayloads(payloads [][]byte) (first, last uint64, err error) {
	start := time.Now()
	if err := b.cfg.Faults.Check(PointAppend); err != nil {
		b.om.appendErrors.Inc()
		return 0, 0, err
	}
	var total int64
	for _, p := range payloads {
		if len(p) > MaxRecordBytes {
			b.om.appendErrors.Inc()
			return 0, 0, fmt.Errorf("broker: record of %d bytes exceeds limit %d", len(p), MaxRecordBytes)
		}
		total += framelog.HeaderSize + int64(len(p))
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.closed || b.intakeClosed {
			return 0, 0, ErrClosed
		}
		if b.failed != nil {
			return 0, 0, b.failed
		}
		if b.cfg.MaxBacklogBytes < 0 || b.liveBytes+total <= b.cfg.MaxBacklogBytes {
			break
		}
		if b.cfg.FullPolicy == FullReject {
			b.om.rejected.Inc()
			return 0, 0, fmt.Errorf("%w: %d bytes retained, limit %d", ErrBacklogFull, b.liveBytes, b.cfg.MaxBacklogBytes)
		}
		b.om.blocked.Inc()
		b.space.Wait()
	}
	if err := b.rollIfNeededLocked(total); err != nil {
		return 0, 0, err
	}

	buf := make([]byte, 0, total)
	for _, p := range payloads {
		buf = framelog.Append(buf, p)
	}
	if _, err := b.active.Write(buf); err != nil {
		// A short write may have left a torn tail; poison the broker so
		// later appends cannot interleave with the damage. Recovery on
		// the next Open truncates the tail.
		b.failed = fmt.Errorf("broker: append write failed: %w", err)
		b.om.appendErrors.Inc()
		return 0, 0, b.failed
	}
	seg := b.segments[len(b.segments)-1]
	b.last = payloads[len(payloads)-1]
	first = b.nextOff
	last = b.nextOff + uint64(len(payloads)) - 1
	b.nextOff = last + 1
	seg.recs += uint64(len(payloads))
	seg.size += total
	b.liveBytes += total
	b.om.appended.Add(int64(len(payloads)))
	b.om.appendedBytes.Add(total)

	switch b.cfg.Fsync {
	case FsyncAlways:
		if err := b.syncLocked(); err != nil {
			// The records are written but not provably durable; the caller
			// may retry (at-least-once) or surface the failure.
			b.cond.Broadcast()
			b.updateGaugesLocked()
			return first, last, err
		}
	case FsyncNever:
		b.om.acked.Add(int64(last - b.lastSynced))
		b.lastSynced = last
	}
	b.updateGaugesLocked()
	b.cond.Broadcast()
	b.om.appendSec.ObserveSince(start)
	return first, last, nil
}

// rollIfNeededLocked seals the active segment and starts a new one when
// the incoming bytes would push it past SegmentBytes.
func (b *Broker) rollIfNeededLocked(incoming int64) error {
	seg := b.segments[len(b.segments)-1]
	if seg.size == 0 || seg.size+incoming <= b.cfg.SegmentBytes {
		return nil
	}
	if b.cfg.Fsync != FsyncNever {
		// Sealed segments are durable by construction; sync before the
		// handle goes away.
		if err := b.syncLocked(); err != nil {
			return err
		}
	}
	if err := b.active.Close(); err != nil {
		return fmt.Errorf("broker: sealing segment: %w", err)
	}
	next := &segment{base: b.nextOff, path: segmentPath(b.cfg.Dir, b.nextOff)}
	f, err := os.OpenFile(next.path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		b.failed = fmt.Errorf("broker: creating segment: %w", err)
		return b.failed
	}
	b.active = f
	b.segments = append(b.segments, next)
	b.om.segments.Set(int64(len(b.segments)))
	return nil
}

// Sync flushes the active segment to stable storage, advancing the
// acked watermark. Under FsyncInterval a background goroutine calls it
// on a cadence; it is also safe to call directly.
func (b *Broker) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	return b.syncLocked()
}

func (b *Broker) syncLocked() error {
	if b.lastSynced >= b.nextOff-1 {
		return nil
	}
	if err := b.cfg.Faults.Check(PointFsync); err != nil {
		b.om.fsyncErrors.Inc()
		return err
	}
	start := time.Now()
	if err := b.active.Sync(); err != nil {
		b.om.fsyncErrors.Inc()
		return fmt.Errorf("broker: fsync: %w", err)
	}
	b.om.fsyncSec.ObserveSince(start)
	b.om.acked.Add(int64(b.nextOff - 1 - b.lastSynced))
	b.lastSynced = b.nextOff - 1
	return nil
}

// segmentFor returns the segment containing off, or nil if off is not
// retained. Callers hold b.mu.
func (b *Broker) segmentFor(off uint64) *segment {
	segs := b.segments
	lo, hi := 0, len(segs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if segs[mid].base <= off {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if len(segs) == 0 || segs[lo].base > off || off >= segs[lo].base+segs[lo].recs {
		return nil
	}
	return segs[lo]
}

// retainLocked deletes sealed segments every registered group has fully
// consumed, bounding disk and waking producers blocked on admission.
func (b *Broker) retainLocked() {
	if b.cfg.DisableRetention || len(b.groups) == 0 {
		return
	}
	min := b.nextOff - 1
	for _, off := range b.groups {
		if off < min {
			min = off
		}
	}
	freed := false
	for len(b.segments) > 1 && b.segments[0].recs > 0 && b.segments[0].last() <= min {
		seg := b.segments[0]
		if err := os.Remove(seg.path); err != nil {
			break // disk trouble; retry on the next commit
		}
		b.liveBytes -= seg.size
		b.om.retained.Add(int64(seg.recs))
		b.segments = b.segments[1:]
		b.firstOff = b.segments[0].base
		freed = true
	}
	if freed {
		b.updateGaugesLocked()
		b.space.Broadcast()
	}
}

// updateGaugesLocked refreshes the instantaneous gauges.
func (b *Broker) updateGaugesLocked() {
	b.om.segments.Set(int64(len(b.segments)))
	b.om.backlogBytes.Set(b.liveBytes)
	b.om.nextOffset.Set(int64(b.nextOff))
	for g, off := range b.groups {
		b.lagGaugeLocked(g).Set(int64(b.nextOff - 1 - off))
	}
}

// lagGaugeLocked returns the per-group lag gauge, creating it on first
// use.
func (b *Broker) lagGaugeLocked(group string) *obs.Gauge {
	g, ok := b.lagGauges[group]
	if !ok {
		g = b.reg.Gauge("broker.lag." + group)
		b.lagGauges[group] = g
	}
	return g
}

// NextOffset returns the offset the next appended record will get.
func (b *Broker) NextOffset() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextOff
}

// Last returns the newest record's payload, nil for an empty log. After
// Open it is the last whole frame recovery kept.
func (b *Broker) Last() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last
}

// Committed returns the committed offset for a consumer group (0 if the
// group never committed).
func (b *Broker) Committed(group string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.groups[group]
}

// SegmentCount returns the number of retained segments (diagnostics).
func (b *Broker) SegmentCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.segments)
}

// CloseIntake stops accepting appends. Tailing consumers drain the
// remaining records and then see end-of-stream — the first half of a
// graceful shutdown.
func (b *Broker) CloseIntake() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.intakeClosed {
		return
	}
	b.intakeClosed = true
	b.cond.Broadcast()
	b.space.Broadcast()
}

// Close shuts the broker down cleanly: intake closes, the interval
// syncer stops, the active segment gets a final fsync (policy
// permitting), and consumer offsets are persisted.
func (b *Broker) Close() error {
	b.CloseIntake()
	b.stopSyncLoop()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	var firstErr error
	if b.cfg.Fsync != FsyncNever {
		if err := b.syncLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := b.saveOffsetsLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := b.active.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	b.cond.Broadcast()
	b.space.Broadcast()
	return firstErr
}

// Kill simulates a crash (the SIGKILL analogue for chaos tests): file
// handles drop with no flush, no fsync, no sealing, and no offset
// persistence. Data already written reaches the page cache — exactly
// like a killed process — and the next Open runs recovery.
func (b *Broker) Kill() {
	b.stopSyncLoop()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.intakeClosed = true
	b.active.Close()
	b.cond.Broadcast()
	b.space.Broadcast()
}

// stopSyncLoop halts the interval fsync goroutine, if running.
func (b *Broker) stopSyncLoop() {
	b.mu.Lock()
	stop := b.syncStop
	b.syncStop = nil
	b.mu.Unlock()
	if stop != nil {
		close(stop)
		<-b.syncDone
	}
}
