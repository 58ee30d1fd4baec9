package pipeline

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
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
	"logsynergy/internal/window"
)

// tinyDeployment builds an untrained detector over an initially empty
// event table. The workflow tests here exercise collection, the pattern
// library, line accounting and metrics — none of which depend on
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
		"gauge pipeline.pattern_library_size ",
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

// statsFromSnapshot reads the twelve pipeline.* counters a fresh
// registry's Stats is a view of.
func statsFromSnapshot(snap obs.Snapshot) Stats {
	c := func(name string) int { return int(snap.Counters["pipeline."+name]) }
	return Stats{
		LinesCollected:   c("lines_collected"),
		SequencesFormed:  c("sequences_formed"),
		PatternHits:      c("pattern_hits"),
		PatternMisses:    c("pattern_misses"),
		PatternEvictions: c("pattern_evictions"),
		Anomalies:        c("anomalies"),
		NewEvents:        c("new_events"),
		Retries:          c("retries_total"),
		Degraded:         c("degraded_total"),
		BreakerOpens:     c("breaker_open_total"),
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

// cancelSource cancels the context after n lines, mid-stream, and counts
// the lines it hands out.
type cancelSource struct {
	inner  Source
	n      int
	cancel context.CancelFunc
	handed int
}

func (c *cancelSource) Next() (string, bool) {
	if c.n == 0 {
		c.cancel()
	}
	c.n--
	line, ok := c.inner.Next()
	if ok {
		c.handed++
	}
	return line, ok
}

// TestRunCountsWhatItFeeds cancels Run from inside Source.Next: every
// line Run took from the source before it saw the cancellation is counted
// and fed — none is counted and left unfed — so a single fault-free key
// forms exactly the windows of that many lines.
func TestRunCountsWhatItFeeds(t *testing.T) {
	leakCheck(t)
	det, parser, interp, e := tinyDeployment(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelSource{inner: NewSliceSource(chaosLines(3000)), n: 200, cancel: cancel}

	cfg := DefaultConfig("x")
	cfg.Metrics = obs.NewRegistry()
	p := New(cfg, parser, det, interp, e)
	stats := p.Run(ctx, src)

	if src.handed == 0 || src.handed >= 3000 {
		t.Fatalf("source handed out %d of 3000 lines; the cancellation did not land mid-stream", src.handed)
	}
	if stats.LinesCollected != src.handed {
		t.Fatalf("LinesCollected %d, but the source handed out %d lines", stats.LinesCollected, src.handed)
	}
	if want := window.Count(stats.LinesCollected, window.Default()); stats.SequencesFormed != want {
		t.Fatalf("SequencesFormed %d, want %d for %d fed lines on one key", stats.SequencesFormed, want, stats.LinesCollected)
	}
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

	p := New(DefaultConfig("x"), parser, det, interp, e)

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
