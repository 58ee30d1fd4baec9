package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/fault"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
)

// A commit (flushCommit) is one append to the partition's commit log,
// Dir/p<i>/commits, of the intake offset consumed through and the reports
// raised since the commit before; they wait in pending until then. The
// delivery loop reads the log as consumer group sink, so an alert reaches
// the sink only once its commit was appended, and twice only across a
// crash between a Notify and the next group commit.
const (
	commitLogName = "commits"
	sinkGroup     = "sink"
)

// FallibleSink is a pipeline.Sink whose delivery can fail. The delivery
// loop prefers TryNotify when Config.Sink implements it and retries its
// errors; a plain Sink is assumed to take every report.
type FallibleSink interface {
	TryNotify(r *core.Report) error
}

// commitRecord is one commit-log record: the intake offset consumed
// through, and the reports raised (commitRecords encodes it).
type commitRecord struct {
	Consumed uint64         `json:"consumed"`
	Alerts   []*core.Report `json:"alerts"`
}

// commitOverhead bounds a record's bytes besides its alerts.
const commitOverhead = len(`{"consumed":18446744073709551615,"alerts":[]}`)

// openCommitLog opens the commit log in partition directory dir. It keeps
// the partition's fsync policy, segment size and retention, but is never
// full (a down sink lags; it does not push back on intake) and keeps its
// metrics (in reg, which Runtime.Snapshot shows under "commits.") and
// faults apart from the intake WAL's. A directory still in the
// layout before the commit log — an alerts log beside a state file saved
// on every commit — is refused: nothing reads that log any more.
func openCommitLog(bcfg broker.Config, dir string, reg *obs.Registry) (*broker.Broker, error) {
	old := filepath.Join(dir, "alerts")
	if _, err := os.Stat(old); err == nil {
		return nil, fmt.Errorf("shard: %s is an alert log from an earlier version; with the process stopped, "+
			"let that version deliver it (or accept losing what it holds) and remove it", old)
	}
	bcfg.Dir, bcfg.MaxBacklogBytes = filepath.Join(dir, commitLogName), -1
	bcfg.Metrics, bcfg.Faults = reg, nil
	return broker.Open(bcfg)
}

// decodeCommit parses one commit-log record.
func decodeCommit(payload string) (commitRecord, error) {
	var rec commitRecord
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		return rec, fmt.Errorf("shard: decoding a commit record: %w", err)
	}
	return rec, nil
}

// Notify makes the partition its pipeline's only sink (on the worker,
// under feedMu).
func (pt *partition) Notify(r *core.Report) { pt.pending = append(pt.pending, r) }

// appendCommit appends the commit — the pending reports and the consumed
// offset — to the commit log in one append. Called under feedMu.
func (pt *partition) appendCommit() error {
	recs, err := commitRecords(pt.committed.Load(), pt.consumed, pt.pending)
	if err != nil {
		return err
	}
	n := int64(len(pt.pending))
	pt.dl.queued.Add(n)
	if _, _, err := pt.dl.log.AppendBatch(recs); err != nil {
		pt.dl.queued.Add(-n)
		return fmt.Errorf("shard: appending a commit: %w", err)
	}
	pt.pending = pt.pending[:0]
	pt.committed.Store(pt.consumed)
	return nil
}

// commitRecords renders one commit: its alerts, as many to a record as
// fit under the broker's record bound, and only on the last record the
// consumed offset — any before it carry prev, the log's newest, so a
// commit cut short reads back as the one before and is scored again.
// Templates are full of "<*>", which HTML escaping would quadruple.
func commitRecords(prev, consumed uint64, alerts []*core.Report) ([]string, error) {
	var recs []string
	var body, one bytes.Buffer
	enc := json.NewEncoder(&one)
	enc.SetEscapeHTML(false)
	emit := func(c uint64) {
		recs = append(recs, fmt.Sprintf(`{"consumed":%d,"alerts":[%s]}`, c, body.Bytes()))
		body.Reset()
	}
	encode := func(r *core.Report) ([]byte, error) {
		one.Reset()
		if err := enc.Encode(r); err != nil {
			return nil, fmt.Errorf("shard: encoding an alert: %w", err)
		}
		return one.Bytes(), nil // its trailing newline is JSON whitespace
	}
	for _, r := range alerts {
		a, err := encode(r)
		if err == nil && len(a)+commitOverhead > broker.MaxRecordBytes {
			a, err = fitAlert(r, encode)
		}
		if err != nil {
			return nil, err
		}
		if body.Len() > 0 && body.Len()+1+len(a)+commitOverhead > broker.MaxRecordBytes {
			emit(prev)
		}
		if body.Len() > 0 {
			body.WriteByte(',')
		}
		body.Write(a)
	}
	emit(consumed)
	return recs, nil
}

// fitAlert encodes an alert too large for a commit record of its own with
// its templates and interpretations cut to fit: each to an equal share of
// the bound, shrunk until the encoding fits, and one cut short ends in
// "…". System, Timestamp, Score and EventIDs stay whole.
func fitAlert(r *core.Report, encode func(*core.Report) ([]byte, error)) ([]byte, error) {
	short := *r
	for limit := broker.MaxRecordBytes / (len(r.Templates) + len(r.Interpretations)); ; limit = limit * 3 / 4 {
		short.Templates, short.Interpretations = clip(r.Templates, limit), clip(r.Interpretations, limit)
		a, err := encode(&short)
		if err != nil || limit == 0 || len(a)+commitOverhead <= broker.MaxRecordBytes {
			return a, err
		}
	}
}

// clip returns texts with each one longer than n bytes cut to at most n,
// at a rune boundary, and marked with a trailing "…".
func clip(texts []string, n int) []string {
	out := make([]string, len(texts))
	for i, s := range texts {
		if len(s) > n {
			cut := n
			for cut > 0 && !utf8.RuneStart(s[cut]) {
				cut--
			}
			s = s[:cut] + "…"
		}
		out[i] = s
	}
	return out
}

// Alert is one alert as a commit log holds it.
type Alert struct {
	// ID names the alert by partition, commit-log offset and index within
	// the record: p3-118-0.
	ID     string
	Report *core.Report
}

// ReadAlerts calls fn with every alert in the commit logs under root —
// retired partition directories included — by partition, oldest first,
// reading each log with broker.ReadLog: it may run beside the runtime
// appending to them, and sees what retention has kept. A root with no
// partition directory is refused.
func ReadAlerts(root string, fn func(Alert) error) error {
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("shard: reading alerts: %w", err)
	}
	var parts []int
	for _, e := range entries {
		i, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "p"))
		if e.IsDir() && err == nil && i >= 0 && e.Name() == fmt.Sprintf("p%d", i) {
			parts = append(parts, i)
		}
	}
	if len(parts) == 0 {
		return fmt.Errorf("shard: %s holds no partition directory (p0, p1, …)", root)
	}
	sort.Ints(parts)
	for _, i := range parts {
		dir := filepath.Join(PartitionDir(root, i), commitLogName)
		if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
			continue // the partition never committed
		}
		err := broker.ReadLog(dir, func(off uint64, payload []byte) error {
			rec, err := decodeCommit(string(payload))
			if err != nil {
				return fmt.Errorf("%s, record %d: %w", dir, off, err)
			}
			for j, r := range rec.Alerts {
				if err := fn(Alert{ID: fmt.Sprintf("p%d-%d-%d", i, off, j), Report: r}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// delivery is one commit log's delivery loop. A partition runs one beside
// its worker; a retired partition's outlives it (retire, openRetired).
type delivery struct {
	rt     *Runtime
	idx    int
	faults *fault.Registry
	log    *broker.Broker
	reg    *obs.Registry // the commit log's metrics
	// queued counts the alerts in the log no sink group commit covers.
	queued atomic.Int64
	// stop ends the loop at once; killed makes that a crash, which
	// commits nothing. done is closed when the loop has ended.
	stop     chan struct{}
	stopOnce sync.Once
	killed   atomic.Bool
	done     chan struct{}

	errMu sync.Mutex
	err   error
}

// newDelivery builds partition idx's delivery of log (whose metrics are
// reg), counting the alerts the sink group has not committed.
func (rt *Runtime) newDelivery(idx int, faults *fault.Registry, log *broker.Broker, reg *obs.Registry) (*delivery, error) {
	d := &delivery{rt: rt, idx: idx, faults: faults, log: log, reg: reg, stop: make(chan struct{}), done: make(chan struct{})}
	cons, err := log.Consumer(sinkGroup)
	if err != nil {
		return nil, err
	}
	defer cons.Close()
	for cons.Position() < log.NextOffset() {
		payload, ok := cons.Next()
		if !ok {
			return nil, fmt.Errorf("shard: reading commit %d: %w", cons.Position(), cons.Err())
		}
		rec, err := decodeCommit(payload)
		if err != nil {
			return nil, err
		}
		d.queued.Add(int64(len(rec.Alerts)))
	}
	return d, nil
}

// undelivered counts the alerts committed to the log that no sink group
// commit covers.
func (d *delivery) undelivered() uint64 { return uint64(d.queued.Load()) }

// delivered reports whether the loop is done with what it can deliver:
// caught up and committed, or ended.
func (d *delivery) delivered() bool {
	return d.undelivered() == 0 || isClosed(d.done)
}

// run is the delivery loop: every alert of every commit-log record goes to
// Config.Sink, a failure is retried until the sink takes it, and the group
// offset commits each time the loop catches up; it ends caught up with a
// log whose intake closed (its worker exited). Close gives every loop one
// round of MaxAttempts failures, leaving the rest — a record cut short
// whole — for the next open; stop ends it at once, committing what was
// delivered unless it was killed.
func (d *delivery) run() {
	defer close(d.done)
	cons, err := d.log.Consumer(sinkGroup)
	if err != nil {
		d.setErr(err)
		return
	}
	defer cons.Close()
	retry := d.rt.cfg.Pipeline.Resilience.Retryer()
	var handed int64 // alerts of the records delivered since the last commit
	commit := func() {
		if err := cons.Commit(); err != nil {
			d.setErr(err)
			return
		}
		d.queued.Add(-handed)
		handed = 0
	}
records:
	for !isClosed(d.stop) {
		if cons.Position() >= d.log.NextOffset() {
			commit()
		}
		payload, ok := cons.Next()
		if !ok {
			if err := cons.Err(); err != nil {
				d.setErr(err)
			}
			break
		}
		off := cons.Position() - 1
		rec, err := decodeCommit(payload)
		if err != nil {
			d.setErr(fmt.Errorf("commit %d: %w", off, err))
			return
		}
		for _, rep := range rec.Alerts {
			if !d.handOff(retry, rep, off) {
				break records
			}
		}
		cons.Ack(off)
		handed += int64(len(rec.Alerts))
	}
	if !d.killed.Load() {
		commit()
	}
}

// handOff delivers the alert at off, retrying on the pipeline's backoff in
// real time; false means delivery ends (stopped, or the runtime is closing
// and retry.Attempts attempts since Close began failed).
func (d *delivery) handOff(retry *fault.Retryer, rep *core.Report, off uint64) bool {
	closing, left := d.rt.closing, retry.Attempts
	for attempt := 1; !isClosed(d.stop); attempt++ {
		if err := d.rt.notify(d.faults, rep); err == nil {
			return true
		}
		d.rt.sinkErrs.Inc()
		if isClosed(d.rt.closing) {
			if left--; left == 0 {
				return false
			}
			closing = nil // Close's own round waits its backoff out
		}
		t := time.NewTimer(retry.Backoff.Delay(attempt, off))
		select {
		case <-t.C:
		case <-closing:
		case <-d.stop:
		}
		t.Stop()
	}
	return false
}

// notify hands one report to Config.Sink under the fan-in mutex, after the
// pipeline.sink fault point; a panicking sink is contained. A sink that
// hangs holds the mutex: delivery, and so Close, waits for it.
func (rt *Runtime) notify(faults *fault.Registry, r *core.Report) error {
	return fault.Safe(func() error {
		if err := faults.Check(pipeline.PointSink); err != nil {
			return err
		}
		rt.faninMu.Lock()
		defer rt.faninMu.Unlock()
		if fs, ok := rt.cfg.Sink.(FallibleSink); ok {
			if err := fs.TryNotify(r); err != nil {
				return err
			}
		} else {
			rt.cfg.Sink.Notify(r)
		}
		rt.faninTotal.Inc()
		return nil
	})
}

// close waits for the loop to end by itself (caught up with a closed log,
// or Close's give-up round) and closes the log.
func (d *delivery) close() error {
	<-d.done
	return errors.Join(d.log.Close(), d.error())
}

// release stops the loop at once, keeping what it delivered committed, and
// closes the log.
func (d *delivery) release() error {
	d.halt()
	return d.close()
}

// kill stops the loop crash-style and drops the log's handles unsynced.
func (d *delivery) kill() {
	d.killed.Store(true)
	d.halt()
	d.log.Kill()
}

// halt stops the loop and waits for it to end.
func (d *delivery) halt() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.log.CloseIntake() // wakes a loop waiting at the log's tail
	<-d.done
}

// setErr records the loop's first error.
func (d *delivery) setErr(err error) {
	d.errMu.Lock()
	if d.err == nil {
		d.err = fmt.Errorf("shard: partition %d alert delivery: %w", d.idx, err)
	}
	d.errMu.Unlock()
}

// error returns the loop's recorded error, if any.
func (d *delivery) error() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// retire ends a partition the new layout dropped, persisted at its WAL
// tail: the worker drains and the WAL closes. Its delivery, already among
// the runtime's retired ones, goes on — a down sink is retried until
// Close gives up or Kill stops it — and ends once every committed alert
// reached the sink; its log stays open until Close, Kill, or a growth that
// reopens the directory.
func (pt *partition) retire() error {
	pt.bk.CloseIntake()
	<-pt.done
	pt.cons.Close()
	return pt.bk.Close()
}

// openRetired resumes delivery from the partition directories past the
// layout (index slots and up): a shrink retired them, maybe while the sink
// was down. Only a full runtime looks; a fleet node serves a subset, and a
// fleet never shrinks.
func (rt *Runtime) openRetired(slots int) error {
	for i := slots; ; i++ {
		dir := PartitionDir(rt.cfg.Dir, i)
		if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
			return nil
		} else if err != nil {
			return err
		}
		reg := obs.NewRegistry()
		log, err := openCommitLog(rt.cfg.Broker, dir, reg)
		if err != nil {
			return fmt.Errorf("shard: opening retired partition %d's commit log: %w", i, err)
		}
		d, err := rt.newDelivery(i, rt.faultsFor(i), log, reg)
		if err != nil {
			log.Close()
			return err
		}
		log.CloseIntake() // no worker: the loop ends once it has caught up
		rt.retiredMu.Lock()
		rt.retired = append(rt.retired, d)
		rt.retiredMu.Unlock()
		go d.run()
	}
}

// reclaim takes partition i's directory back from its retired delivery
// before a growth reopens it: the loop stops where it is, keeping what it
// delivered committed, the log closes, and the reopened partition delivers
// the rest.
func (rt *Runtime) reclaim(i int) error {
	rt.retiredMu.Lock()
	var d *delivery
	for j, r := range rt.retired {
		if r.idx == i {
			d = r
			rt.retired = append(rt.retired[:j:j], rt.retired[j+1:]...)
			break
		}
	}
	rt.retiredMu.Unlock()
	if d == nil {
		return nil
	}
	return d.release()
}

// retirees returns the retired partitions' deliveries.
func (rt *Runtime) retirees() []*delivery {
	rt.retiredMu.Lock()
	defer rt.retiredMu.Unlock()
	return append([]*delivery(nil), rt.retired...)
}

// UndeliveredAlerts maps the commit-log directory of every partition —
// retired ones included — that holds committed alerts no sink has taken
// yet to their count. A down sink shows here; the next open delivers them.
func (rt *Runtime) UndeliveredAlerts() map[string]uint64 {
	out := map[string]uint64{}
	ds := rt.retirees()
	for _, pt := range rt.partitions() {
		ds = append(ds, pt.dl)
	}
	for _, d := range ds {
		if n := d.undelivered(); n > 0 {
			out[filepath.Join(PartitionDir(rt.cfg.Dir, d.idx), commitLogName)] = n
		}
	}
	return out
}

// isClosed reports whether ch is closed.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
