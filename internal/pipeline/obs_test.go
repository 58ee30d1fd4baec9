package pipeline

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/obs"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// tinyDeployment builds an untrained detector over an initially empty
// event table. The workflow tests here exercise collection, the pattern
// library, drop accounting and metrics — none of which depend on
// detection quality — so skipping training keeps them fast enough to run
// in -short mode.
func tinyDeployment(t testing.TB) (*core.Detector, *drain.Parser, lei.Interpreter, *embed.Embedder) {
	t.Helper()
	cfg := core.DefaultConfig()
	m := core.NewModel(cfg, 2)
	e := embed.New(cfg.EmbedDim)
	table := &repr.EventTable{System: "SystemB", Dim: cfg.EmbedDim, Vectors: tensor.New(0, cfg.EmbedDim)}
	det := core.NewDetector(m, table)
	det.Now = func() time.Time { return time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC) }
	return det, drain.NewDefault(), lei.NewSimLLM(lei.Config{}), e
}

// TestPipelineObservability runs §VI deployment traffic through an
// isolated registry and requires the workflow's counters, gauges and
// histograms to be live — both via Snapshot() and scraped over HTTP from
// the /metrics handler.
func TestPipelineObservability(t *testing.T) {
	det, parser, interp, e := tinyDeployment(t)
	reg := obs.NewRegistry()
	cfg := DefaultConfig("a cloud data management system (SystemB)")
	cfg.Metrics = reg

	coreBefore := obs.Default().Snapshot().Counters["core.scores_total"]

	online := logdata.Generate(logdata.SystemB(), 99, 3000)
	p := New(cfg, parser, det, interp, e, &MemorySink{})

	// Stats is read from the live counters, so polling it during Run must
	// be race-free and every sample internally consistent.
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		var prev Stats
		for {
			s := p.Stats()
			pv, sv := reflect.ValueOf(prev), reflect.ValueOf(s)
			for i := 0; i < sv.NumField(); i++ {
				if sv.Field(i).Int() < pv.Field(i).Int() {
					t.Errorf("Stats.%s decreased: %d -> %d", sv.Type().Field(i).Name, pv.Field(i).Int(), sv.Field(i).Int())
				}
			}
			if s.PatternHits+s.PatternMisses+s.DetectFailures > s.SequencesFormed {
				t.Errorf("sample counts more outcomes than sequences: %+v", s)
			}
			prev = s
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	stats := p.Run(context.Background(), NewSliceSource(online.Messages()))
	close(stop)
	<-polled

	snap := reg.Snapshot()
	if want := statsFromSnapshot(snap); stats != want || p.Stats() != want {
		t.Fatalf("Stats %+v != registry view %+v", stats, want)
	}
	if got := snap.Counters["pipeline.lines_collected"]; got != int64(stats.LinesCollected) || got != 3000 {
		t.Fatalf("lines_collected counter %d, stats %d", got, stats.LinesCollected)
	}
	if got := snap.Counters["pipeline.sequences_formed"]; got != int64(stats.SequencesFormed) {
		t.Fatalf("sequences_formed counter %d, stats %d", got, stats.SequencesFormed)
	}
	if snap.Counters["pipeline.pattern_hits"] == 0 {
		t.Fatal("repetitive production traffic must produce pattern-library hits")
	}
	if snap.Counters["pipeline.pattern_hits"]+snap.Counters["pipeline.pattern_misses"] != int64(stats.SequencesFormed) {
		t.Fatalf("hits+misses != sequences: %v", snap.Counters)
	}
	h := snap.Histograms["pipeline.detect_batch_seconds"]
	if h.Count == 0 || h.Sum <= 0 {
		t.Fatalf("detect-batch latency histogram empty: %+v", h)
	}
	if snap.Gauges["pipeline.buffer_capacity"] != int64(cfg.BufferSize) {
		t.Fatalf("buffer_capacity gauge %d", snap.Gauges["pipeline.buffer_capacity"])
	}
	// Occupancy counts the dequeued line, so the peak is >= 1 on any
	// stream that delivered at least one line.
	if snap.Gauges["pipeline.buffer_peak"] < 1 {
		t.Fatalf("buffer_peak gauge %d", snap.Gauges["pipeline.buffer_peak"])
	}
	if snap.Gauges["pipeline.pattern_library_size"] != int64(p.Library().Size()) {
		t.Fatalf("library size gauge %d vs %d", snap.Gauges["pipeline.pattern_library_size"], p.Library().Size())
	}
	if snap.Counters["pipeline.new_events"] != int64(stats.NewEvents) || stats.NewEvents == 0 {
		t.Fatalf("new_events counter %d, stats %d", snap.Counters["pipeline.new_events"], stats.NewEvents)
	}

	// The detector publishes its throughput on the default registry.
	coreAfter := obs.Default().Snapshot().Counters["core.scores_total"]
	if coreAfter-coreBefore != int64(stats.PatternMisses) {
		t.Fatalf("core.scores_total grew by %d, want %d misses", coreAfter-coreBefore, stats.PatternMisses)
	}

	// Scrape the same registry over HTTP, as `logsynergy serve` exposes it.
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		"counter pipeline.pattern_hits ",
		"counter pipeline.pattern_misses ",
		"gauge pipeline.buffer_peak ",
		"histogram pipeline.detect_batch_seconds count ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "histogram pipeline.detect_batch_seconds count 0 ") {
		t.Fatal("/metrics shows an empty detect-batch histogram")
	}
}

// statsFromSnapshot reads the sixteen pipeline.* counters a fresh
// registry's Stats is a view of.
func statsFromSnapshot(snap obs.Snapshot) Stats {
	c := func(name string) int { return int(snap.Counters["pipeline."+name]) }
	return Stats{
		LinesCollected:   c("lines_collected"),
		LinesDropped:     c("lines_dropped"),
		SequencesFormed:  c("sequences_formed"),
		PatternHits:      c("pattern_hits"),
		PatternMisses:    c("pattern_misses"),
		PatternEvictions: c("pattern_evictions"),
		Anomalies:        c("anomalies"),
		NewEvents:        c("new_events"),
		Retries:          c("retries_total"),
		Degraded:         c("degraded_total"),
		Spilled:          c("spilled_total"),
		SpillDropped:     c("spill_dropped_total"),
		BreakerOpens:     c("breaker_open_total"),
		SinkErrors:       c("sink_errors_total"),
		ParseFailures:    c("parse_failures_total"),
		DetectFailures:   c("detect_failures_total"),
	}
}

// Two pipelines run one after the other on one registry (as
// experiments/deploy.go does on obs.Default): the second one's Stats
// starts at zero and counts only its own run, while the registry keeps
// the running total.
func TestStatsSequentialPipelinesShareRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	lines := chaosLines(100)
	run := func() Stats {
		det, parser, interp, e := tinyDeployment(t)
		cfg := DefaultConfig("x")
		cfg.Metrics = reg
		p := New(cfg, parser, det, interp, e, &MemorySink{})
		if s := p.Stats(); s != (Stats{}) {
			t.Fatalf("fresh pipeline on a used registry starts at %+v", s)
		}
		return p.Run(context.Background(), NewSliceSource(lines))
	}
	first, second := run(), run()
	if first.LinesCollected != 100 || first.SequencesFormed == 0 || second != first {
		t.Fatalf("first %+v, second %+v", first, second)
	}
	if got := reg.Snapshot().Counters["pipeline.lines_collected"]; got != 200 {
		t.Fatalf("registry total %d, want 200", got)
	}
}

// gateInterp blocks every interpretation until release is closed; it lets
// a test hold the pipeline's consumer stage on its first new template
// while the collector runs ahead.
type gateInterp struct {
	inner   lei.Interpreter
	release chan struct{}
}

func (g *gateInterp) Interpret(hint, tpl string) lei.Interpretation {
	<-g.release
	return g.inner.Interpret(hint, tpl)
}

// signalSource closes exhausted after the last line has been handed out.
type signalSource struct {
	inner     Source
	exhausted chan struct{}
	once      sync.Once
}

func (s *signalSource) Next() (string, bool) {
	line, ok := s.inner.Next()
	if !ok {
		s.once.Do(func() { close(s.exhausted) })
	}
	return line, ok
}

// TestDropNewestAccounting proves Stats.LinesDropped is live: with the
// consumer stage gated on its first template interpretation and a
// 4-line buffer, a 100-line burst must shed load under DropNewest, and
// every line must be accounted as either collected or dropped.
func TestDropNewestAccounting(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	release := make(chan struct{})
	gate := &gateInterp{inner: interp, release: release}

	lines := make([]string, 100)
	for i := range lines {
		lines[i] = "service heartbeat ok seq 42"
	}
	src := &signalSource{inner: NewSliceSource(lines), exhausted: make(chan struct{})}

	reg := obs.NewRegistry()
	cfg := DefaultConfig("x")
	cfg.BufferSize = 4
	cfg.DropPolicy = DropNewest
	cfg.Metrics = reg
	p := New(cfg, parser, det, gate, e)

	var stats Stats
	done := make(chan struct{})
	go func() {
		stats = p.Run(context.Background(), src)
		close(done)
	}()

	// The consumer is parked inside Interpret on line 1; the collector
	// fills the 4-slot buffer and must drop the rest of the burst.
	<-src.exhausted
	close(release)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline did not finish")
	}

	if stats.LinesDropped == 0 {
		t.Fatal("full buffer under DropNewest must drop lines")
	}
	if stats.LinesCollected+stats.LinesDropped != 100 {
		t.Fatalf("collected %d + dropped %d != 100", stats.LinesCollected, stats.LinesDropped)
	}
	// Consumer held one line and the buffer four: at most 5 collected
	// before the source ran dry (scheduling may collect fewer).
	if stats.LinesCollected > 5 {
		t.Fatalf("collected %d lines through a gated 4-slot buffer", stats.LinesCollected)
	}
	snap := reg.Snapshot()
	if snap.Counters["pipeline.lines_dropped"] != int64(stats.LinesDropped) {
		t.Fatalf("obs dropped %d vs stats %d", snap.Counters["pipeline.lines_dropped"], stats.LinesDropped)
	}
	if snap.Gauges["pipeline.buffer_peak"] < int64(cfg.BufferSize) {
		t.Fatalf("buffer_peak %d with a saturated %d-slot buffer", snap.Gauges["pipeline.buffer_peak"], cfg.BufferSize)
	}
}

// TestDropBlockNeverDrops pins the default policy: backpressure, no loss.
func TestDropBlockNeverDrops(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	cfg := DefaultConfig("x")
	cfg.BufferSize = 2
	p := New(cfg, parser, det, interp, e)
	lines := make([]string, 50)
	for i := range lines {
		lines[i] = "service heartbeat ok seq 42"
	}
	stats := p.Run(context.Background(), NewSliceSource(lines))
	if stats.LinesDropped != 0 || stats.LinesCollected != 50 {
		t.Fatalf("block policy collected %d dropped %d", stats.LinesCollected, stats.LinesDropped)
	}
}

// cancelSource cancels the context after n lines, mid-stream.
type cancelSource struct {
	inner  Source
	n      int
	cancel context.CancelFunc
}

func (c *cancelSource) Next() (string, bool) {
	if c.n == 0 {
		c.cancel()
	}
	c.n--
	return c.inner.Next()
}

// TestPipelineCancelMidStream cancels while lines are flowing and
// requires Run to return promptly with internally consistent stats.
func TestPipelineCancelMidStream(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	online := logdata.Generate(logdata.SystemB(), 7, 3000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelSource{inner: NewSliceSource(online.Messages()), n: 200, cancel: cancel}

	cfg := DefaultConfig("x")
	cfg.BufferSize = 64
	p := New(cfg, parser, det, interp, e)

	var stats Stats
	done := make(chan struct{})
	go func() {
		stats = p.Run(ctx, src)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}

	if stats.LinesCollected >= 3000 {
		t.Fatal("cancelled pipeline consumed the whole stream")
	}
	if stats.PatternHits+stats.PatternMisses != stats.SequencesFormed {
		t.Fatalf("inconsistent stats after cancel: %+v", stats)
	}
	if stats.Anomalies < 0 || stats.SequencesFormed < 0 {
		t.Fatalf("negative counters: %+v", stats)
	}
}

// TestPipelineCancelMidStreamDropNewest covers the same path under the
// shedding policy, where the collector must still exit on cancellation.
func TestPipelineCancelMidStreamDropNewest(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	online := logdata.Generate(logdata.SystemB(), 8, 3000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelSource{inner: NewSliceSource(online.Messages()), n: 200, cancel: cancel}

	cfg := DefaultConfig("x")
	cfg.BufferSize = 8
	cfg.DropPolicy = DropNewest
	p := New(cfg, parser, det, interp, e)

	done := make(chan struct{})
	var stats Stats
	go func() {
		stats = p.Run(ctx, src)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if stats.LinesCollected >= 3000 {
		t.Fatal("cancelled pipeline consumed the whole stream")
	}
	if stats.PatternHits+stats.PatternMisses != stats.SequencesFormed {
		t.Fatalf("inconsistent stats after cancel: %+v", stats)
	}
}
