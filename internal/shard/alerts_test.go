package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/fault"
	"logsynergy/internal/framelog"
	"logsynergy/internal/pipeline"
)

// The alert-delivery proofs: alerts reach the sink only once the commit
// that covers them is appended, a failing sink lags without losing or
// duplicating anything, and what a graceful close could not deliver waits
// in the commit log for the next open.

// flakySink refuses every delivery while down is set.
type flakySink struct {
	pipeline.MemorySink
	down atomic.Bool
}

func (f *flakySink) TryNotify(r *core.Report) error {
	if f.down.Load() {
		return errors.New("alert gateway unreachable")
	}
	f.Notify(r)
	return nil
}

// deadSink refuses every delivery, counting the attempts.
type deadSink struct{ attempts atomic.Int64 }

func (d *deadSink) Notify(r *core.Report) { _ = d.TryNotify(r) }

func (d *deadSink) TryNotify(*core.Report) error {
	d.attempts.Add(1)
	return errors.New("alert gateway unreachable")
}

// fastRetries keeps a failing sink's backoff in milliseconds.
var fastRetries = pipeline.ResilienceConfig{RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond}

// windows counts the windows a run scored.
func (r eqResult) windows() (n int) {
	for _, s := range r.scores {
		n += len(s)
	}
	return n
}

// waitFor polls cond until it holds, failing the test after 30 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// undelivered sums every partition's undelivered alerts.
func undelivered(rt *Runtime) (n uint64) {
	for _, h := range rt.Health() {
		n += h.UndeliveredAlerts
	}
	return n
}

// within runs fn, failing the test if it has not returned after 30 seconds.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// sigSequence renders reports as their signatures, in order.
func sigSequence(reports []*core.Report) []string {
	out := make([]string, len(reports))
	for i, r := range reports {
		out[i] = alertSig(r)
	}
	return out
}

// A commit that fails after its windows alerted must not cost a
// duplicate. The alerts wait in pending, where no delivery reads them; the
// restart that re-scores those windows raises and delivers each once. When
// alerts went to the sink at scoring time, the restart delivered every one
// of them a second time.
func TestAlertDeliveryCommitFailureNoDuplicates(t *testing.T) {
	const failing = 1
	var keys []string
	for _, k := range eqKeys(16) {
		if NewPartitioner(2).Partition(k) == failing {
			keys = append(keys, k)
		}
	}
	lines := genEqLines(17, 1200, keys)
	ref := runReference(t, lines)
	if len(ref.alerts) == 0 {
		t.Fatal("reference produced no alerts; nothing could be duplicated")
	}

	freg := fault.New(1)
	freg.Enable(fault.Rule{Point: PointCommit, Err: errors.New("state volume gone")})
	dir := t.TempDir()
	h := openHarness(t, dir, 2, func(cfg *Config) {
		cfg.ShardFaults = func(i int) *fault.Registry {
			if i == failing {
				return freg
			}
			return nil
		}
	})
	h.feed(t, lines)
	// Drain would wait for a commit that cannot happen.
	waitFor(t, "every window to be scored", func() bool { return h.rt.Stats().SequencesFormed >= ref.windows() })
	if freg.Injected(PointCommit) == 0 {
		t.Fatal("the commit fault never fired")
	}
	h.rt.Kill()
	freg.Disable(PointCommit)

	h2 := reopenHarness(t, dir, 2, h)
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close after restart: %v", err)
	}
	if got := alertSigs(h2.sink.Reports()); !reflect.DeepEqual(got, ref.alerts) {
		t.Fatalf("the sink holds %d alerts (%d distinct), the reference raised %d (%d distinct)",
			len(h2.sink.Reports()), len(got), len(ref.reports), len(ref.alerts))
	}
}

// A down sink lags and loses nothing: alerts commit and wait, counted in
// shard.alerts_undelivered, and once the sink is back it holds every alert
// exactly once — on one partition in exactly the order they were raised,
// which is each key's order on any number.
func TestAlertDeliveryOutageLagsLosesNothing(t *testing.T) {
	lines := genEqLines(23, 1500, eqKeys(8))
	ref := runReference(t, lines)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			sink := &flakySink{}
			h := openHarness(t, t.TempDir(), shards, func(cfg *Config) {
				cfg.Sink = sink
				cfg.Pipeline.Resilience = fastRetries
			})
			h.feed(t, lines[:500])
			h.drain(t)
			before := len(sink.Reports())

			sink.down.Store(true)
			h.feed(t, lines[500:1000])
			waitFor(t, "committed alerts to wait on the down sink", func() bool {
				snap := h.rt.Snapshot()
				return undelivered(h.rt) > 0 && snap.Gauges["shard.alerts_undelivered"] > 0 && snap.Counters["shard.sink_errors_total"] > 0
			})
			if got := len(sink.Reports()); got != before {
				t.Fatalf("the down sink took %d alerts", got-before)
			}

			sink.down.Store(false)
			h.feed(t, lines[1000:])
			h.drain(t)
			snap := h.rt.Snapshot()
			if n := undelivered(h.rt); n != 0 || snap.Gauges["shard.alerts_undelivered"] != 0 {
				t.Fatalf("drained with %d alerts undelivered (gauge %d)", n, snap.Gauges["shard.alerts_undelivered"])
			}
			if err := h.rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			got := sink.Reports()
			if shards == 1 {
				if !reflect.DeepEqual(sigSequence(got), sigSequence(ref.reports)) {
					t.Fatalf("the sink holds %d alerts, not the reference's %d in its order", len(got), len(ref.reports))
				}
			} else if !reflect.DeepEqual(alertSigs(got), ref.alerts) {
				t.Fatalf("the sink holds %d alerts, not the reference's %d", len(got), len(ref.reports))
			}
		})
	}
}

// A sink that fails every delivery drives the retries: every failed
// attempt reaches the sink and counts in shard.sink_errors_total, and
// Close gives up after one round, leaving every alert undelivered and
// counted.
func TestAlertDeliveryClosedStoreRetries(t *testing.T) {
	sink := &deadSink{}
	lines := genEqLines(29, 900, eqKeys(6))
	raised := uint64(len(runReference(t, lines).reports))
	if raised == 0 {
		t.Fatal("reference produced no alerts")
	}

	h := openHarness(t, t.TempDir(), 2, func(cfg *Config) {
		cfg.Sink = sink
		cfg.Pipeline.Resilience = fastRetries
	})
	h.feed(t, lines)
	waitFor(t, "retries against the dead sink", func() bool {
		return undelivered(h.rt) == raised && h.rt.Snapshot().Counters["shard.sink_errors_total"] >= 10
	})
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := h.rt.Snapshot()
	if errs := snap.Counters["shard.sink_errors_total"]; errs != sink.attempts.Load() {
		t.Fatalf("shard.sink_errors_total %d, the sink refused %d deliveries", errs, sink.attempts.Load())
	}
	if n := snap.Gauges["shard.alerts_undelivered"]; n != int64(raised) || undelivered(h.rt) != raised {
		t.Fatalf("Close left %d undelivered (gauge %d), want all %d", undelivered(h.rt), n, raised)
	}
	if snap.Counters["shard.fanin_reports_total"] != 0 {
		t.Fatal("the dead sink took an alert")
	}
}

// Close with the sink down keeps what it could not deliver in the alert
// log, counted; a reopen with the sink back delivers exactly those and
// re-detects nothing.
func TestAlertDeliveryCloseKeepsUndelivered(t *testing.T) {
	lines := genEqLines(21, 1500, eqKeys(8))
	ref := runReference(t, lines)
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			dir, sink := t.TempDir(), &flakySink{}
			withSink := func(cfg *Config) {
				cfg.Sink = sink
				cfg.Pipeline.Resilience = fastRetries
			}
			h := openHarness(t, dir, shards, withSink)
			h.feed(t, lines[:700])
			h.drain(t)
			delivered := len(sink.Reports())

			sink.down.Store(true)
			h.feed(t, lines[700:])
			if err := h.rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			left := undelivered(h.rt)
			if left == 0 || h.rt.Snapshot().Gauges["shard.alerts_undelivered"] != int64(left) {
				t.Fatalf("Close left %d undelivered, gauge %d", left, h.rt.Snapshot().Gauges["shard.alerts_undelivered"])
			}
			if len(sink.Reports()) != delivered {
				t.Fatalf("the down sink took %d alerts", len(sink.Reports())-delivered)
			}

			sink.down.Store(false)
			h2 := openHarness(t, dir, shards, withSink)
			h2.drain(t)
			if err := h2.rt.Close(); err != nil {
				t.Fatalf("reopen Close: %v", err)
			}
			if got := len(sink.Reports()) - delivered; got != int(left) {
				t.Fatalf("the reopen delivered %d alerts, %d were left", got, left)
			}
			if !reflect.DeepEqual(alertSigs(sink.Reports()), ref.alerts) {
				t.Fatalf("the sink holds %d alerts, not the reference's %d", len(sink.Reports()), len(ref.reports))
			}
			if n := h2.rt.Stats().LinesCollected; n != 0 {
				t.Fatalf("the reopen re-detected %d lines", n)
			}
		})
	}
}

// A commit log that lost its records past the snapshot — the unsynced
// tail a power cut takes under the interval fsync — costs no alert: the
// restart replays only to the newest commit it still holds and scores the
// rest of the WAL again, so the lost records' alerts are raised again and
// each reaches the sink once. A deleted commit log costs only the alerts
// the sink had not taken from commits the snapshot covers; those past it
// are raised again too. The fixture fails every snapshot after the first
// one the second run takes, so its kill leaves alerts committed on both
// sides of the snapshot whatever the snapshots' sizes.
func TestAlertDeliveryLogBehindState(t *testing.T) {
	lines := genEqLines(31, 1500, eqKeys(8))
	const split = 500
	ref := runReference(t, lines)
	for _, damage := range []string{"tail lost", "log deleted"} {
		t.Run(damage, func(t *testing.T) {
			dir, sink := t.TempDir(), &flakySink{}
			open := func(faults *fault.Registry) *shardHarness {
				return openHarness(t, dir, 1, func(cfg *Config) {
					cfg.Sink = sink
					cfg.Pipeline.Resilience = fastRetries
					cfg.ShardFaults = func(int) *fault.Registry { return faults }
				})
			}
			h := open(nil)
			h.feed(t, lines[:split])
			h.drain(t)
			if err := h.rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			delivered := len(sink.Reports())

			// The sink is down: every new alert commits and waits. The
			// snapshot stays where the first one of this run put it.
			sink.down.Store(true)
			stuck := fault.New(1)
			stuck.Enable(fault.Rule{Point: PointSnapshot, After: 1, Err: errors.New("snapshot refused")})
			h = open(stuck)
			h.feed(t, lines[split:])
			want := uint64(len(ref.reports) - delivered)
			waitFor(t, "every new alert to commit", func() bool { return undelivered(h.rt) == want })
			within(t, "Kill", h.rt.Kill)

			p0 := PartitionDir(dir, 0)
			st, err := loadState(statePath(p0))
			if err != nil {
				t.Fatal(err)
			}
			past, covered := commitsAround(t, p0, st.Consumed)
			if len(past) == 0 {
				t.Fatalf("fixture: no alert was committed past the snapshot at %d", st.Consumed)
			}
			wantAlerts := alertSigs(ref.reports)
			if damage == "tail lost" {
				cutCommitsAfter(t, p0, st.Consumed)
			} else {
				if err := os.RemoveAll(filepath.Join(p0, commitLogName)); err != nil {
					t.Fatal(err)
				}
				for sig, n := range alertSigs(covered) {
					wantAlerts[sig] -= n
					if wantAlerts[sig] == 0 {
						delete(wantAlerts, sig)
					}
				}
			}

			sink.down.Store(false)
			h = open(nil)
			within(t, "Drain", func() { h.drain(t) })
			within(t, "Close", func() {
				if err := h.rt.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			})
			if got := alertSigs(sink.Reports()); !reflect.DeepEqual(got, wantAlerts) {
				t.Fatalf("the sink holds %d alerts, want %d", len(sink.Reports()), len(ref.reports)-len(covered))
			}
		})
	}
}

// commitsAround reads partition directory dir's commit log and returns the
// alerts the sink group has not taken from commits past offset consumed,
// and from commits at or before it.
func commitsAround(t *testing.T, dir string, consumed uint64) (past, covered []*core.Report) {
	t.Helper()
	log := filepath.Join(dir, commitLogName)
	var offsets struct{ Groups map[string]uint64 }
	if data, err := os.ReadFile(filepath.Join(log, "offsets.json")); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &offsets); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(log, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one commit-log segment, found %v (%v)", segs, err)
	}
	off := uint64(0)
	if _, _, _, err := framelog.Scan(segs[0], broker.MaxRecordBytes, func(p []byte) {
		off++
		rec, err := decodeCommit(string(p))
		if err != nil || off <= offsets.Groups[sinkGroup] {
			return
		}
		for _, r := range rec.Alerts {
			if rec.Consumed > consumed {
				past = append(past, r)
			} else {
				covered = append(covered, r)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return past, covered
}

// cutCommitsAfter cuts partition directory dir's commit log back to its
// last record at or below offset consumed.
func cutCommitsAfter(t *testing.T, dir string, consumed uint64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, commitLogName, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one commit-log segment, found %v (%v)", segs, err)
	}
	var keep int64
	cut := false
	if _, _, _, err := framelog.Scan(segs[0], broker.MaxRecordBytes, func(p []byte) {
		rec, err := decodeCommit(string(p))
		if cut = cut || err != nil || rec.Consumed > consumed; !cut {
			keep += framelog.HeaderSize + int64(len(p))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], keep); err != nil {
		t.Fatal(err)
	}
}

// An alert whose encoding alone exceeds the record bound — one over ten
// 110 KiB lines — must not wedge its partition: the commit log refused the
// record it filled, the alert stayed pending, and every later commit failed
// the same way. Every record commitRecords returns fits the bound and
// decodes back to each alert's System, Timestamp, Score and EventIDs; a
// text cut to fit is a prefix of the original ending in "…".
func TestCommitRecordsFitTheBound(t *testing.T) {
	at := time.Date(2023, 9, 1, 12, 0, 0, 0, time.UTC)
	big := &core.Report{System: "SystemX", Timestamp: at, Score: 0.97}
	for i := 0; i < 10; i++ {
		line := fmt.Sprintf("line %d ", i) + strings.Repeat("quote \" slash \\ tab \t é <*> ", 110<<10/26)
		big.EventIDs = append(big.EventIDs, 40+i)
		big.Templates = append(big.Templates, line)
		big.Interpretations = append(big.Interpretations, "it says "+line)
	}
	small := &core.Report{System: "SystemX", Timestamp: at, Score: 0.61, EventIDs: []int{3},
		Templates: []string{"gc freed <*>"}, Interpretations: []string{"memory was reclaimed"}}
	alerts := []*core.Report{small, big, small}

	recs, err := commitRecords(3, 9, alerts)
	if err != nil {
		t.Fatal(err)
	}
	var got []*core.Report
	for i, rec := range recs {
		if len(rec) > broker.MaxRecordBytes {
			t.Fatalf("record %d is %d bytes, over the bound %d", i, len(rec), broker.MaxRecordBytes)
		}
		c, err := decodeCommit(rec)
		if err != nil {
			t.Fatal(err)
		}
		if last := i == len(recs)-1; (c.Consumed == 9) != last {
			t.Fatalf("record %d of %d consumed %d", i, len(recs), c.Consumed)
		}
		got = append(got, c.Alerts...)
	}
	if len(got) != len(alerts) {
		t.Fatalf("decoded %d alerts, committed %d", len(got), len(alerts))
	}
	for i, g := range got {
		w := alerts[i]
		if g.System != w.System || !g.Timestamp.Equal(w.Timestamp) || g.Score != w.Score || !reflect.DeepEqual(g.EventIDs, w.EventIDs) {
			t.Fatalf("alert %d decoded as %s %v %v %v", i, g.System, g.Timestamp, g.Score, g.EventIDs)
		}
		if w == small {
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("alert %d changed: %+v", i, g)
			}
			continue
		}
		for j, texts := range [][2][]string{{g.Templates, w.Templates}, {g.Interpretations, w.Interpretations}} {
			if len(texts[0]) != len(texts[1]) {
				t.Fatalf("alert %d text list %d: %d entries, want %d", i, j, len(texts[0]), len(texts[1]))
			}
			for k, cut := range texts[0] {
				if !strings.HasSuffix(cut, "…") || !strings.HasPrefix(texts[1][k], strings.TrimSuffix(cut, "…")) {
					t.Fatalf("alert %d text %d/%d is no marked prefix: %.40q…", i, j, k, cut)
				}
			}
		}
	}
}

var updateCommitGolden = flag.Bool("update", false, "rewrite testdata/commits-golden from commitRecords")

// goldenCommits are the two commits testdata/commits-golden holds.
func goldenCommits() (consumed []uint64, alerts [][]*core.Report) {
	at := time.Date(2023, 9, 1, 8, 30, 0, 0, time.UTC)
	return []uint64{40, 95}, [][]*core.Report{
		{
			{System: "SystemX", Timestamp: at, Score: 0.93, EventIDs: []int{0, 1, 1, 2},
				Templates:       []string{"gc freed <*>", "cache hit key <*>", "cache hit key <*>", "job <*> queued on partition <*>"},
				Interpretations: []string{"memory was reclaimed", "a cached key was read", "a cached key was read", "a job was queued"}},
			{System: "SystemX", Timestamp: at.Add(time.Second), Score: 0.88, EventIDs: []int{3},
				Templates: []string{`query "ok" rows <*>`}, Interpretations: []string{"a query & its rows"}},
		},
		{
			{System: "SystemY", Timestamp: at.Add(time.Minute), Score: 0.51, EventIDs: []int{7, 8},
				Templates:       []string{"disk flush wrote <*> bytes", "rpc deadline exceeded"},
				Interpretations: []string{"a disk flush completed", "an RPC ran out of time"}},
		},
	}
}

// A second program (cmd/alerts) reads the commit log, so a checked-in one
// pins the commit-record format: ReadAlerts decodes its two records into
// these ids and fields, and commitRecords still writes it byte for byte.
// A deliberate format change regenerates it with -update.
func TestCommitLogGolden(t *testing.T) {
	root := filepath.Join("testdata", "commits-golden")
	seg := filepath.Join(PartitionDir(root, 0), commitLogName, "00000000000000000001.wal")
	consumed, alerts := goldenCommits()
	var file []byte
	prev := uint64(0)
	for i, c := range consumed {
		recs, err := commitRecords(prev, c, alerts[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			file = framelog.Append(file, []byte(r))
		}
		prev = c
	}
	if *updateCommitGolden {
		if err := os.MkdirAll(filepath.Dir(seg), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, file, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if golden, err := os.ReadFile(seg); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(golden, file) {
		t.Fatalf("commitRecords no longer writes %s byte for byte:\n got %q\nwant %q", seg, file, golden)
	}

	want := map[string]*core.Report{
		"p0-1-0": alerts[0][0], "p0-1-1": alerts[0][1], "p0-2-0": alerts[1][0],
	}
	var ids []string
	if err := ReadAlerts(root, func(a Alert) error {
		ids = append(ids, a.ID)
		if w := want[a.ID]; w == nil || !reflect.DeepEqual(a.Report, w) {
			t.Errorf("%s decoded as %+v, want %+v", a.ID, a.Report, w)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"p0-1-0", "p0-1-1", "p0-2-0"}) {
		t.Fatalf("ReadAlerts listed %v", ids)
	}
}

// The commit logs' metrics reach the runtime's snapshot under "commits."
// only: the append histogram there counts every commit append, while the
// unprefixed broker names stay the intake WAL's and count intake lines.
func TestCommitLogMetrics(t *testing.T) {
	lines := genEqLines(5, 900, eqKeys(8))
	h := openHarness(t, t.TempDir(), 2, nil)
	defer h.rt.Close()
	h.feed(t, lines)
	h.drain(t)

	var commits int64
	for _, pt := range h.rt.partitions() {
		commits += int64(pt.dl.log.NextOffset() - 1)
	}
	if commits == 0 {
		t.Fatal("the runtime committed nothing")
	}
	snap := h.rt.Snapshot()
	if got := snap.Histograms["commits.broker.append_seconds"].Count; got != commits {
		t.Errorf("commits.broker.append_seconds counts %d appends, the commit logs hold %d records", got, commits)
	}
	if got := snap.Counters["commits.broker.appended_total"]; got != commits {
		t.Errorf("commits.broker.appended_total = %d, the commit logs hold %d records", got, commits)
	}
	if got := snap.Counters["broker.appended_total"]; got != int64(len(lines)) {
		t.Errorf("broker.appended_total = %d, want the %d intake lines alone", got, len(lines))
	}
}
