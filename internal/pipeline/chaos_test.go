package pipeline

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"logsynergy/internal/alertstore"
	"logsynergy/internal/core"
	"logsynergy/internal/fault"
	"logsynergy/internal/obs"
)

// The chaos suite replays seeded fault schedules against the streaming
// pipeline and holds it to the robustness contract: transient faults are
// retried to completion with zero data loss and bit-identical output;
// permanent outages open breakers, degrade or spill instead of crashing
// or silently dropping; and every event is visible in Stats and obs
// counters. Schedules are deterministic (fault.Registry is seeded and
// fires on call indices), so failures here reproduce exactly.

// chaosTemplates are six fixed log shapes. Cycling them yields event ids
// 0..5 in first-seen order, so tests know the exact window contents.
var chaosTemplates = []string{
	"service heartbeat ok seq 42",
	"user alice login from 10.0.0.5",
	"db query finished in 12 ms",
	"cache miss for key session",
	"disk usage at 63 percent",
	"request GET /api/v1/items 200",
}

// chaosLines builds a stream cycling the six templates.
func chaosLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = chaosTemplates[i%len(chaosTemplates)]
	}
	return lines
}

// heartbeatLines builds a single-template stream: every window is
// [0 x Length], so a pre-seeded pattern-library score makes anomaly and
// sink traffic fully deterministic without training a model.
func heartbeatLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = chaosTemplates[0]
	}
	return lines
}

// seedHeartbeatAnomaly marks the heartbeat window anomalous in the
// library so every completed window produces a report at score 0.9.
func seedHeartbeatAnomaly(p *Pipeline) {
	seq := make([]int, p.cfg.Window.Length)
	p.Library().Store(seq, 0.9)
}

// chaosClock is a manually advanced breaker clock.
type chaosClock struct{ t time.Time }

func newChaosClock() *chaosClock              { return &chaosClock{t: time.Unix(1_700_000_000, 0)} }
func (c *chaosClock) now() time.Time          { return c.t }
func (c *chaosClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// noSleep keeps retry backoff instant in chaos schedules.
func noSleep(time.Duration) {}

// TestChaosTransientFaultsBitIdentical is the core robustness claim:
// with a seeded schedule of transient errors across every stage (parse,
// interpret, embed, detect, sink), the pipeline retries each one to
// completion — zero lost lines, zero degraded interpretations, zero
// spilled alerts — and its reports and stats are bit-identical to a
// fault-free run of the same stream.
func TestChaosTransientFaultsBitIdentical(t *testing.T) {
	leakCheck(t)
	lines := chaosLines(400)
	firstWindow := []int{0, 1, 2, 3, 4, 5, 0, 1, 2, 3}

	run := func(faults *fault.Registry, reg *obs.Registry) (Stats, []*core.Report) {
		det, parser, interp, e := tinyDeployment(t)
		sink := &MemorySink{}
		cfg := DefaultConfig("x")
		cfg.Metrics = reg
		cfg.Faults = faults
		cfg.Resilience = ResilienceConfig{Sleep: noSleep}
		p := New(cfg, parser, det, interp, e, sink)
		p.Library().Store(firstWindow, 0.9)
		stats := p.Run(context.Background(), NewSliceSource(lines))
		return stats, sink.Reports()
	}

	cleanStats, cleanReports := run(nil, obs.NewRegistry())
	if len(cleanReports) == 0 {
		t.Fatal("seeded anomalous pattern produced no reports; the chaos comparison is vacuous")
	}

	faults := fault.New(7)
	faults.SetSleep(noSleep)
	faults.Enable(
		fault.Rule{Point: PointParse, Every: 5, Limit: 40},
		fault.Rule{Point: PointInterpret, Every: 2, Limit: 10},
		fault.Rule{Point: PointEmbed, Every: 3, Limit: 10},
		fault.Rule{Point: PointDetect, Every: 2, Limit: 10},
		fault.Rule{Point: PointSink, Every: 3, Limit: 20},
	)
	reg := obs.NewRegistry()
	chaosStats, chaosReports := run(faults, reg)

	injected := faults.InjectedTotal()
	if injected == 0 {
		t.Fatal("the fault schedule never fired")
	}
	// Every injection was transient: exactly one retry recovered it, and
	// nothing leaked into the failure paths.
	if chaosStats.Retries != int(injected) {
		t.Fatalf("Retries %d != injections %d", chaosStats.Retries, injected)
	}
	if chaosStats.ParseFailures != 0 || chaosStats.Degraded != 0 || chaosStats.Spilled != 0 ||
		chaosStats.DetectFailures != 0 || chaosStats.SinkErrors != 0 || chaosStats.BreakerOpens != 0 {
		t.Fatalf("transient faults leaked into terminal-failure stats: %+v", chaosStats)
	}
	snap := reg.Snapshot()
	if snap.Counters["pipeline.retries_total"] != int64(chaosStats.Retries) {
		t.Fatalf("retries_total %d vs stats %d", snap.Counters["pipeline.retries_total"], chaosStats.Retries)
	}

	// Bit-identical behavior: zeroing the retry count must make the two
	// stat snapshots equal, and the delivered reports must match exactly.
	normalized := chaosStats
	normalized.Retries = 0
	if !reflect.DeepEqual(cleanStats, normalized) {
		t.Fatalf("stats diverged under retried faults:\nclean %+v\nchaos %+v", cleanStats, chaosStats)
	}
	if !reflect.DeepEqual(cleanReports, chaosReports) {
		t.Fatalf("reports diverged under retried faults: clean %d, chaos %d", len(cleanReports), len(chaosReports))
	}
}

// TestChaosPermanentSinkOutage drives a dead alert gateway: the sink
// breaker must open after the configured failure streak, every alert
// must spill (in memory and to the SpillTo alertstore) instead of being
// lost, and FlushSpill must re-deliver the full backlog once the outage
// ends and the breaker cools down.
func TestChaosPermanentSinkOutage(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	sink := &MemorySink{}
	clk := newChaosClock()

	store, err := alertstore.Open(filepath.Join(t.TempDir(), "spill.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	faults := fault.New(1)
	faults.Enable(fault.Rule{Point: PointSink}) // permanent outage

	reg := obs.NewRegistry()
	cfg := DefaultConfig("x")
	cfg.Metrics = reg
	cfg.Faults = faults
	cfg.SpillTo = alertstore.NewSink(store)
	cfg.Resilience = ResilienceConfig{
		MaxAttempts:      2,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
		Sleep:            noSleep,
		Now:              clk.now,
	}
	p := New(cfg, parser, det, interp, e, sink)
	seedHeartbeatAnomaly(p)

	stats := p.Run(context.Background(), NewSliceSource(heartbeatLines(200)))

	wantAnomalies := (200-cfg.Window.Length)/cfg.Window.Step + 1 // 39
	if stats.Anomalies != wantAnomalies {
		t.Fatalf("anomalies %d, want %d", stats.Anomalies, wantAnomalies)
	}
	// Three deliveries fail terminally (two attempts each), opening the
	// breaker; everything after is short-circuited straight to spill.
	if stats.SinkErrors != 3 || stats.Retries != 3 || stats.BreakerOpens != 1 {
		t.Fatalf("outage accounting: %+v", stats)
	}
	if got := faults.Injected(PointSink); got != 6 {
		t.Fatalf("sink injections %d, want 6 (3 failed deliveries x 2 attempts)", got)
	}
	if len(sink.Reports()) != 0 {
		t.Fatalf("dead sink received %d reports", len(sink.Reports()))
	}
	// No alert is lost: every anomaly is parked in the spill queue and
	// persisted through the SpillTo alertstore.
	if stats.Spilled != wantAnomalies || p.SpillLen() != wantAnomalies {
		t.Fatalf("spilled %d, queued %d, want %d", stats.Spilled, p.SpillLen(), wantAnomalies)
	}
	if store.Len() != wantAnomalies {
		t.Fatalf("alertstore holds %d spilled alerts, want %d", store.Len(), wantAnomalies)
	}
	snap := reg.Snapshot()
	for counter, want := range map[string]int64{
		"pipeline.retries_total":      3,
		"pipeline.breaker_open_total": 1,
		"pipeline.sink_errors_total":  3,
		"pipeline.spilled_total":      int64(wantAnomalies),
		"pipeline.degraded_total":     0,
	} {
		if snap.Counters[counter] != want {
			t.Fatalf("%s = %d, want %d", counter, snap.Counters[counter], want)
		}
	}

	// Outage ends: injection stops, the breaker cools down, and the
	// backlog flushes to the recovered sink in spill order.
	faults.Disable(PointSink)
	clk.advance(2 * time.Minute)
	delivered, remaining := p.FlushSpill()
	if delivered != wantAnomalies || remaining != 0 {
		t.Fatalf("flush delivered %d remaining %d, want %d/0", delivered, remaining, wantAnomalies)
	}
	reports := sink.Reports()
	if len(reports) != wantAnomalies {
		t.Fatalf("recovered sink got %d reports, want %d", len(reports), wantAnomalies)
	}
	for i, rep := range reports {
		if rep.Score != 0.9 {
			t.Fatalf("flushed report %d score %v, want the seeded 0.9", i, rep.Score)
		}
	}
}

// The alertstore sink must participate in guarded delivery as a
// FallibleSink, so real append failures reach the retry loop and
// breaker.
var _ FallibleSink = (*alertstore.Sink)(nil)

// TestChaosFallibleSinkRealErrors uses a genuinely broken sink — an
// alertstore whose file is already closed — instead of injected faults:
// TryNotify errors must drive retries, open the breaker, and spill every
// alert, exactly like injected outages do.
func TestChaosFallibleSinkRealErrors(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	store, err := alertstore.Open(filepath.Join(t.TempDir(), "alerts.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil { // dead gateway: every append fails
		t.Fatal(err)
	}
	sink := alertstore.NewSink(store)

	cfg := DefaultConfig("x")
	cfg.Metrics = obs.NewRegistry()
	cfg.Resilience = ResilienceConfig{
		MaxAttempts:      2,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Sleep:            noSleep,
		Now:              newChaosClock().now,
	}
	p := New(cfg, parser, det, interp, e, sink)
	seedHeartbeatAnomaly(p)

	stats := p.Run(context.Background(), NewSliceSource(heartbeatLines(100)))
	wantAnomalies := (100-cfg.Window.Length)/cfg.Window.Step + 1 // 19
	if stats.Anomalies != wantAnomalies || stats.Spilled != wantAnomalies {
		t.Fatalf("every alert must spill off the dead store: %+v", stats)
	}
	if stats.SinkErrors != 2 || stats.BreakerOpens != 1 || stats.Retries != 2 {
		t.Fatalf("real sink errors must drive breaker accounting: %+v", stats)
	}
	if got := sink.Errors(); got != 4 {
		t.Fatalf("store saw %d failed appends, want 4 (2 deliveries x 2 attempts)", got)
	}
}

// TestChaosSpillCapBounded proves the spill queue is bounded: a long
// outage with a small cap keeps the newest alerts, counts every
// overflow drop, and never grows past the cap.
func TestChaosSpillCapBounded(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	faults := fault.New(1)
	faults.Enable(fault.Rule{Point: PointSink})

	reg := obs.NewRegistry()
	cfg := DefaultConfig("x")
	cfg.Metrics = reg
	cfg.Faults = faults
	cfg.Resilience = ResilienceConfig{
		MaxAttempts:      2,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		SpillCap:         10,
		Sleep:            noSleep,
		Now:              newChaosClock().now,
	}
	p := New(cfg, parser, det, interp, e, &MemorySink{})
	seedHeartbeatAnomaly(p)

	stats := p.Run(context.Background(), NewSliceSource(heartbeatLines(200)))
	wantAnomalies := (200-cfg.Window.Length)/cfg.Window.Step + 1
	if stats.Spilled != wantAnomalies {
		t.Fatalf("spilled %d, want %d", stats.Spilled, wantAnomalies)
	}
	if p.SpillLen() != 10 {
		t.Fatalf("spill queue holds %d, cap is 10", p.SpillLen())
	}
	if stats.SpillDropped != wantAnomalies-10 {
		t.Fatalf("spill drops %d, want %d", stats.SpillDropped, wantAnomalies-10)
	}
	snap := reg.Snapshot()
	if snap.Counters["pipeline.spill_dropped_total"] != int64(wantAnomalies-10) {
		t.Fatalf("spill_dropped_total %d", snap.Counters["pipeline.spill_dropped_total"])
	}
}

// TestChaosInterpreterOutageDegrades kills the LEI permanently: the
// interpreter breaker opens after the failure streak and every new
// template degrades to its raw text, but the event table still grows
// and the stream is processed end to end — the paper's "w/o LEI"
// operating mode as a runtime fallback.
func TestChaosInterpreterOutageDegrades(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	sink := &MemorySink{}
	faults := fault.New(1)
	faults.Enable(fault.Rule{Point: PointInterpret})

	reg := obs.NewRegistry()
	cfg := DefaultConfig("x")
	cfg.Metrics = reg
	cfg.Faults = faults
	cfg.Resilience = ResilienceConfig{
		MaxAttempts:      2,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour, // clock never advances: no half-open probes
		Sleep:            noSleep,
		Now:              newChaosClock().now,
	}
	p := New(cfg, parser, det, interp, e, sink)
	p.Library().Store([]int{0, 1, 2, 3, 4, 5, 0, 1, 2, 3}, 0.9)

	lines := chaosLines(300)
	stats := p.Run(context.Background(), NewSliceSource(lines))

	if stats.LinesCollected != 300 || stats.ParseFailures != 0 {
		t.Fatalf("degraded pipeline lost lines: %+v", stats)
	}
	if stats.NewEvents != len(chaosTemplates) || stats.Degraded != len(chaosTemplates) {
		t.Fatalf("want every one of the %d new templates degraded: %+v", len(chaosTemplates), stats)
	}
	// First three failures burn retries and open the breaker; the rest
	// short-circuit without touching the dead interpreter.
	if stats.Retries != 3 || stats.BreakerOpens != 1 {
		t.Fatalf("breaker accounting: %+v", stats)
	}
	if got := faults.Injected(PointInterpret); got != 6 {
		t.Fatalf("interpreter injections %d, want 6", got)
	}
	reports := sink.Reports()
	if len(reports) == 0 {
		t.Fatal("degraded pipeline must still deliver seeded anomalies")
	}
	// Degraded interpretations are the raw templates.
	for i, tpl := range reports[0].Templates {
		if reports[0].Interpretations[i] != tpl {
			t.Fatalf("interpretation %q, want raw template %q", reports[0].Interpretations[i], tpl)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["pipeline.degraded_total"] != int64(stats.Degraded) {
		t.Fatalf("degraded_total %d vs stats %d", snap.Counters["pipeline.degraded_total"], stats.Degraded)
	}
}

// TestChaosLatencyTimeoutRecovers injects one burst of interpreter
// latency far beyond the per-call timeout: the attempt must time out,
// the retry must succeed, and nothing degrades. The abandoned slow call
// finishes on its discarded goroutine (leakCheck covers it).
func TestChaosLatencyTimeoutRecovers(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	faults := fault.New(1)
	faults.Enable(fault.Rule{Point: PointInterpret, Delay: 250 * time.Millisecond, Limit: 1})

	cfg := DefaultConfig("x")
	cfg.Metrics = obs.NewRegistry()
	cfg.Faults = faults
	cfg.Resilience = ResilienceConfig{
		MaxAttempts:      2,
		InterpretTimeout: 25 * time.Millisecond,
		Sleep:            noSleep,
	}
	p := New(cfg, parser, det, interp, e)

	stats := p.Run(context.Background(), NewSliceSource(chaosLines(60)))
	if stats.Retries != 1 {
		t.Fatalf("one timed-out attempt must cost exactly one retry: %+v", stats)
	}
	if stats.Degraded != 0 || stats.ParseFailures != 0 {
		t.Fatalf("recovered timeout must not degrade: %+v", stats)
	}
	if stats.NewEvents != len(chaosTemplates) || stats.LinesCollected != 60 {
		t.Fatalf("stream incomplete: %+v", stats)
	}
}

// TestChaosPanicsContained injects panics into the parser and the
// scorer: both must be contained by the fault layer's recover, retried,
// and leave zero abandoned lines or windows behind.
func TestChaosPanicsContained(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	faults := fault.New(1)
	faults.SetSleep(noSleep)
	faults.Enable(
		fault.Rule{Point: PointParse, PanicMsg: "parser crash", Every: 50, Limit: 3},
		fault.Rule{Point: PointDetect, PanicMsg: "scorer crash", Limit: 1},
	)

	cfg := DefaultConfig("x")
	cfg.Metrics = obs.NewRegistry()
	cfg.Faults = faults
	cfg.Resilience = ResilienceConfig{Sleep: noSleep}
	// No seeded library entry: the first window must miss so the scorer
	// (and its injected panic) actually runs.
	p := New(cfg, parser, det, interp, e, &MemorySink{})

	stats := p.Run(context.Background(), NewSliceSource(heartbeatLines(300)))
	if stats.LinesCollected != 300 {
		t.Fatalf("collected %d of 300", stats.LinesCollected)
	}
	if stats.ParseFailures != 0 || stats.DetectFailures != 0 {
		t.Fatalf("retried panics must not abandon work: %+v", stats)
	}
	if stats.Retries != 4 {
		t.Fatalf("retries %d, want 4 (3 parser panics + 1 scorer panic)", stats.Retries)
	}
	if stats.PatternHits+stats.PatternMisses != stats.SequencesFormed {
		t.Fatalf("inconsistent detection stats: %+v", stats)
	}
}

// TestChaosScheduleReplaysDeterministically runs a probabilistic fault
// schedule twice with the same seed and demands identical outcomes —
// the property that makes every chaos failure in this suite
// reproducible from its seed.
func TestChaosScheduleReplaysDeterministically(t *testing.T) {
	leakCheck(t)
	run := func() (Stats, uint64, uint64) {
		det, parser, interp, e := tinyDeployment(t)
		faults := fault.New(31)
		faults.SetSleep(noSleep)
		faults.Enable(
			fault.Rule{Point: PointParse, Prob: 0.2},
			fault.Rule{Point: PointSink, Prob: 0.3},
		)
		cfg := DefaultConfig("x")
		cfg.Metrics = obs.NewRegistry()
		cfg.Faults = faults
		cfg.Resilience = ResilienceConfig{Sleep: noSleep, Now: newChaosClock().now}
		p := New(cfg, parser, det, interp, e, &MemorySink{})
		seedHeartbeatAnomaly(p)
		stats := p.Run(context.Background(), NewSliceSource(heartbeatLines(300)))
		return stats, faults.Injected(PointParse), faults.Injected(PointSink)
	}

	stats1, parse1, sink1 := run()
	stats2, parse2, sink2 := run()
	if parse1 == 0 || sink1 == 0 {
		t.Fatalf("probabilistic schedule never fired: parse=%d sink=%d", parse1, sink1)
	}
	if parse1 != parse2 || sink1 != sink2 {
		t.Fatalf("injection counts diverged across replays: %d/%d vs %d/%d", parse1, sink1, parse2, sink2)
	}
	if !reflect.DeepEqual(stats1, stats2) {
		t.Fatalf("stats diverged across replays:\n%+v\n%+v", stats1, stats2)
	}
}

// downSink is a FallibleSink that refuses every report while down.
type downSink struct {
	MemorySink
	down bool
}

func (s *downSink) TryNotify(r *core.Report) error {
	if s.down {
		return errors.New("sink down")
	}
	s.Notify(r)
	return nil
}

// TestChaosSpillOncePerReport pins the spill-once rule: with two sinks
// down, each alert is queued and counted once, not once per failing
// sink — copies would multiply on every FlushSpill until SpillCap
// evicted distinct older alerts.
func TestChaosSpillOncePerReport(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	a, b := &downSink{down: true}, &downSink{down: true}
	cfg := DefaultConfig("x")
	cfg.Metrics = obs.NewRegistry()
	cfg.Resilience = ResilienceConfig{
		MaxAttempts:      1,
		BreakerThreshold: 100, // keep both breakers closed throughout
		Sleep:            noSleep,
		Now:              newChaosClock().now,
	}
	p := New(cfg, parser, det, interp, e, a, b)
	seedHeartbeatAnomaly(p)

	stats := p.Run(context.Background(), NewSliceSource(heartbeatLines(20))) // 3 windows
	if stats.Anomalies != 3 || stats.Spilled != 3 || p.SpillLen() != 3 {
		t.Fatalf("anomalies %d spilled %d queued %d, want 3/3/3", stats.Anomalies, stats.Spilled, p.SpillLen())
	}
	if delivered, remaining := p.FlushSpill(); delivered != 0 || remaining != 3 {
		t.Fatalf("flush while down = (%d, %d), want (0, 3)", delivered, remaining)
	}
	a.down, b.down = false, false
	if delivered, remaining := p.FlushSpill(); delivered != 3 || remaining != 0 {
		t.Fatalf("flush after recovery = (%d, %d), want (3, 0)", delivered, remaining)
	}
	if len(a.Reports()) != 3 || len(b.Reports()) != 3 {
		t.Fatalf("recovered sinks got %d and %d reports, want 3 each", len(a.Reports()), len(b.Reports()))
	}
}
