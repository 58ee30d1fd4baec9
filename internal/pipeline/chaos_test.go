package pipeline

import (
	"context"
	"reflect"
	"testing"
	"time"

	"logsynergy/internal/core"
	"logsynergy/internal/fault"
	"logsynergy/internal/obs"
	"logsynergy/internal/window"
)

// The chaos suite replays seeded fault schedules against the streaming
// pipeline and holds it to the robustness contract: transient faults are
// retried to completion with zero data loss and bit-identical output;
// permanent outages open breakers or degrade instead of crashing or
// silently dropping; and every event is visible in Stats and obs
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
	seq := make([]int, window.Default().Length)
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
// interpret, embed, detect), the pipeline retries each one to completion
// — zero lost lines, zero degraded interpretations, zero abandoned
// windows — and its reports and stats are bit-identical to a fault-free
// run of the same stream.
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
	if chaosStats.ParseFailures != 0 || chaosStats.Degraded != 0 ||
		chaosStats.DetectFailures != 0 || chaosStats.BreakerOpens != 0 {
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
	run := func() (Stats, uint64) {
		det, parser, interp, e := tinyDeployment(t)
		faults := fault.New(31)
		faults.SetSleep(noSleep)
		faults.Enable(fault.Rule{Point: PointParse, Prob: 0.2})
		cfg := DefaultConfig("x")
		cfg.Metrics = obs.NewRegistry()
		cfg.Faults = faults
		cfg.Resilience = ResilienceConfig{Sleep: noSleep, Now: newChaosClock().now}
		p := New(cfg, parser, det, interp, e, &MemorySink{})
		seedHeartbeatAnomaly(p)
		stats := p.Run(context.Background(), NewSliceSource(heartbeatLines(300)))
		return stats, faults.Injected(PointParse)
	}

	stats1, parse1 := run()
	stats2, parse2 := run()
	if parse1 == 0 {
		t.Fatal("probabilistic schedule never fired")
	}
	if parse1 != parse2 {
		t.Fatalf("injection counts diverged across replays: %d vs %d", parse1, parse2)
	}
	if !reflect.DeepEqual(stats1, stats2) {
		t.Fatalf("stats diverged across replays:\n%+v\n%+v", stats1, stats2)
	}
}
