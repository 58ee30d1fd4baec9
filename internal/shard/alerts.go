package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/fault"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
)

// Alerts ride the commit (flushCommit): a partition's reports wait in
// pending until the commit appends them to its alert log, Dir/p<i>/alerts
// (a broker log of JSON-encoded core.Reports), and saves the log's tail as
// the delivery mark. The delivery loop reads the log as consumer group
// sink, never past the mark, so a crash never re-scores an alert that was
// already delivered; it is at-least-once only across a crash between a
// Notify and the next group commit.
const (
	alertLogName = "alerts"
	sinkGroup    = "sink"
)

// FallibleSink is a pipeline.Sink whose delivery can fail. The delivery
// loop prefers TryNotify when Config.Sink implements it and retries its
// errors; a plain Sink is assumed to take every report.
type FallibleSink interface {
	TryNotify(r *core.Report) error
}

// openAlertLog opens the alert log in partition directory dir and squares
// it with the partition's durable state st. Records past st.Alerts came
// from a commit whose state save never landed: they are cut, and
// re-scoring appends them again. A log that ends before st.Alerts lost
// records the state covers (an unsynced tail after a power loss, or a
// deleted log): st is saved again at the log's tail, so the mark never
// runs ahead of the log and whatever is appended next waits for its own
// commit. The log keeps the partition's fsync policy, segment size and
// retention, but is never full (a down sink lags; it does not push back
// on intake) and keeps its metrics and faults apart from the intake WAL's.
func openAlertLog(bcfg broker.Config, dir string, st *partitionState) (*broker.Broker, error) {
	bcfg.Dir, bcfg.MaxBacklogBytes = filepath.Join(dir, alertLogName), -1
	bcfg.Metrics, bcfg.Faults = obs.NewRegistry(), nil
	log, err := broker.Open(bcfg)
	if err != nil {
		return nil, err
	}
	if tail := log.NextOffset() - 1; tail < st.Alerts {
		st.Alerts = tail
		err = saveState(statePath(dir), *st)
	} else {
		err = log.TruncateAfter(st.Alerts)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	return log, nil
}

// Notify makes the partition its pipeline's only sink (on the worker,
// under feedMu).
func (pt *partition) Notify(r *core.Report) { pt.pending = append(pt.pending, r) }

// appendAlerts appends the pending reports to the alert log as one batch.
// Templates are full of "<*>", which HTML escaping would quadruple, so the
// encoder leaves it off. Called under feedMu.
func (pt *partition) appendAlerts() error {
	batch := make([]string, len(pt.pending))
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	for i, r := range pt.pending {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("shard: encoding an alert: %w", err)
		}
		batch[i] = b.String()
		b.Reset()
	}
	if _, _, err := pt.dl.log.AppendBatch(batch); err != nil {
		return fmt.Errorf("shard: appending alerts: %w", err)
	}
	pt.pending = pt.pending[:0]
	return nil
}

// delivery is one alert log's delivery loop. A partition runs one beside
// its worker; a retired partition's outlives it (retire, openRetired).
type delivery struct {
	rt     *Runtime
	idx    int
	faults *fault.Registry
	log    *broker.Broker
	// mark is the log offset the durable state covers; marked wakes the
	// loop when it moves, and final is closed once it no longer can (the
	// worker exited).
	mark   atomic.Uint64
	marked chan struct{}
	final  <-chan struct{}
	// stop ends the loop at once; killed makes that a crash, which
	// commits nothing. done is closed when the loop has ended.
	stop     chan struct{}
	stopOnce sync.Once
	killed   atomic.Bool
	done     chan struct{}

	errMu sync.Mutex
	err   error
}

// newDelivery builds partition idx's delivery of log from mark on.
func (rt *Runtime) newDelivery(idx int, faults *fault.Registry, log *broker.Broker, mark uint64, final <-chan struct{}) *delivery {
	d := &delivery{rt: rt, idx: idx, faults: faults, log: log, final: final,
		marked: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	d.mark.Store(mark)
	return d
}

// publish moves the mark to a newly saved state's alert-log tail.
func (d *delivery) publish(mark uint64) {
	if d.mark.Swap(mark) != mark {
		select {
		case d.marked <- struct{}{}:
		default:
		}
	}
}

// undelivered is the mark minus the delivered offset.
func (d *delivery) undelivered() uint64 {
	done := d.log.Committed(sinkGroup) // first: the mark only grows
	return d.mark.Load() - done
}

// delivered reports whether the loop is done with what it can deliver:
// caught up with the mark, or ended.
func (d *delivery) delivered() bool {
	return d.undelivered() == 0 || isClosed(d.done)
}

// run is the delivery loop: every alert up to the mark goes to
// Config.Sink, a failure is retried until the sink takes it, and the group
// offset commits each time the loop catches up. Once the mark is final
// the loop ends when it catches up. Close gives every loop one round of
// MaxAttempts failures, leaving the rest for the next open; stop ends it
// at once, committing what was delivered unless it was killed.
func (d *delivery) run() {
	defer close(d.done)
	cons, err := d.log.Consumer(sinkGroup)
	if err != nil {
		d.setErr(err)
		return
	}
	defer cons.Close()
	retry := d.rt.cfg.Pipeline.Resilience.Retryer()
	base := cons.Position() - 1
	for !isClosed(d.stop) {
		off := cons.Position()
		if off > d.mark.Load() {
			if err := cons.Commit(); err != nil {
				d.setErr(err)
			}
			select {
			case <-d.marked:
			case <-d.stop:
			case <-d.final:
				if cons.Position() > d.mark.Load() {
					return
				}
			}
			continue
		}
		var rep core.Report
		payload, ok := cons.Next()
		if !ok {
			err = fmt.Errorf("shard: reading alert %d: %w", off, cons.Err())
		} else if err = json.Unmarshal([]byte(payload), &rep); err != nil {
			err = fmt.Errorf("shard: decoding alert %d: %w", off, err)
		}
		if err != nil {
			d.setErr(err)
			return
		}
		if !d.handOff(retry, &rep, off) {
			break
		}
		cons.Ack(off - base)
	}
	if !d.killed.Load() {
		if err := cons.Commit(); err != nil {
			d.setErr(err)
		}
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

// close waits for the loop to end by itself (final mark, or Close's give-up
// round) and closes the log.
func (d *delivery) close() error {
	<-d.done
	return errors.Join(d.log.Close(), d.error())
}

// release stops the loop at once, keeping what it delivered committed, and
// closes the log.
func (d *delivery) release() error {
	d.halt()
	return errors.Join(d.log.Close(), d.error())
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
// Close gives up or Kill stops it — and ends once everything up to the
// final mark reached the sink; its log stays open until Close, Kill, or a
// growth that reopens the directory.
func (pt *partition) retire() error {
	pt.bk.CloseIntake()
	<-pt.done
	pt.cons.Close()
	return pt.bk.Close()
}

// openRetired resumes delivery from the partition directories past the
// layout (index slots and up) whose alert logs hold alerts no sink has
// taken: a shrink retired them while the sink was down. Only a full
// runtime looks; a fleet node serves a subset, and a fleet never shrinks.
func (rt *Runtime) openRetired(slots int) error {
	for i := slots; ; i++ {
		dir := PartitionDir(rt.cfg.Dir, i)
		if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
			return nil
		} else if err != nil {
			return err
		}
		if _, err := os.Stat(filepath.Join(dir, alertLogName)); errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return err
		}
		st, err := loadState(statePath(dir))
		if err != nil {
			return err
		}
		log, err := openAlertLog(rt.cfg.Broker, dir, &st)
		if err != nil {
			return fmt.Errorf("shard: opening retired partition %d's alert log: %w", i, err)
		}
		if log.Committed(sinkGroup) >= st.Alerts {
			if err := log.Close(); err != nil {
				return err
			}
			continue
		}
		var faults *fault.Registry
		if rt.cfg.ShardFaults != nil {
			faults = rt.cfg.ShardFaults(i)
		}
		final := make(chan struct{})
		close(final) // no worker: the mark is final
		d := rt.newDelivery(i, faults, log, st.Alerts, final)
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

// UndeliveredAlerts maps the alert-log directory of every partition —
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
			out[filepath.Join(PartitionDir(rt.cfg.Dir, d.idx), alertLogName)] = n
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
