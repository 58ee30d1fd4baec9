package pipeline

import (
	"sync"
	"time"

	"logsynergy/internal/core"
	"logsynergy/internal/fault"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
)

// Named injection points the pipeline consults on every stage call.
// Register fault.Rules against them (Config.Faults) to rehearse
// component failures without touching the build: parser crashes, LEI
// outages, slow embedders, dead alert gateways.
const (
	// PointParse guards drain parsing of one raw line.
	PointParse = "pipeline.parse"
	// PointInterpret guards one LEI interpretation of a new template.
	PointInterpret = "pipeline.interpret"
	// PointEmbed guards extending the event table with a new embedding.
	PointEmbed = "pipeline.embed"
	// PointDetect guards one model scoring pass over a batch.
	PointDetect = "pipeline.detect"
	// PointSink guards one report delivery to any sink.
	PointSink = "pipeline.sink"
)

// FallibleSink is a Sink whose delivery can report failure. Guarded
// delivery prefers TryNotify when a sink implements it: errors feed the
// retry loop and the sink's circuit breaker, and terminally failed
// reports spill instead of vanishing. Plain Sinks are assumed to
// succeed (their only failure mode under test is an injected fault at
// PointSink).
type FallibleSink interface {
	TryNotify(r *core.Report) error
}

// ResilienceConfig tunes the pipeline's fault tolerance. The zero value
// selects production defaults.
type ResilienceConfig struct {
	// MaxAttempts is the total tries per stage call, first included
	// (default 3).
	MaxAttempts int
	// RetryBase is the backoff before the first retry (default 5ms).
	RetryBase time.Duration
	// RetryMax caps the exponential backoff (default 250ms).
	RetryMax time.Duration
	// RetryJitter in (0,1] spreads each backoff delay (default 0.2).
	RetryJitter float64
	// InterpretTimeout bounds one LEI call (0 = no timeout). A timed-out
	// interpretation keeps running on its goroutine and is discarded.
	InterpretTimeout time.Duration
	// SinkTimeout bounds one sink delivery (0 = no timeout). A timed-out
	// delivery keeps running on its goroutine, so sinks must tolerate a
	// late Notify racing a retry (every Sink in this package does).
	SinkTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// interpreter and sink breakers (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses calls before
	// probing (default 1s).
	BreakerCooldown time.Duration
	// SpillCap bounds the in-memory spill queue holding reports whose
	// sink delivery terminally failed (default 1024; the oldest spilled
	// report is dropped on overflow, counted in Stats.SpillDropped).
	SpillCap int
	// Seed drives deterministic retry jitter.
	Seed int64
	// Sleep is the backoff delay function (default time.Sleep; chaos
	// tests inject a fake to keep schedules instant).
	Sleep func(time.Duration)
	// Now is the breaker clock (default time.Now).
	Now func() time.Time
}

// withDefaults fills zero fields with production defaults.
func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.RetryJitter <= 0 {
		c.RetryJitter = 0.2
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.SpillCap <= 0 {
		c.SpillCap = 1024
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// resilienceObs caches the fault-layer metric handles.
type resilienceObs struct {
	retries        counter
	breakerOpen    counter
	degraded       counter
	spilled        counter
	spillDropped   counter
	sinkErrors     counter
	parseFailures  counter
	detectFailures counter
}

func newResilienceObs(reg *obs.Registry) resilienceObs {
	return resilienceObs{
		retries:        newCounter(reg, "pipeline.retries_total"),
		breakerOpen:    newCounter(reg, "pipeline.breaker_open_total"),
		degraded:       newCounter(reg, "pipeline.degraded_total"),
		spilled:        newCounter(reg, "pipeline.spilled_total"),
		spillDropped:   newCounter(reg, "pipeline.spill_dropped_total"),
		sinkErrors:     newCounter(reg, "pipeline.sink_errors_total"),
		parseFailures:  newCounter(reg, "pipeline.parse_failures_total"),
		detectFailures: newCounter(reg, "pipeline.detect_failures_total"),
	}
}

// resilience is the pipeline's assembled fault-tolerance state.
type resilience struct {
	cfg     ResilienceConfig
	faults  *fault.Registry // nil-safe
	retryer *fault.Retryer
	interp  *fault.Breaker
	om      resilienceObs
	spill   spillQueue
	spillTo Sink
}

// newResilience wires the retry policy and breakers for one pipeline.
func newResilience(cfg ResilienceConfig, faults *fault.Registry, spillTo Sink, reg *obs.Registry) *resilience {
	cfg = cfg.withDefaults()
	r := &resilience{
		cfg:     cfg,
		faults:  faults,
		om:      newResilienceObs(reg),
		spill:   spillQueue{cap: cfg.SpillCap},
		spillTo: spillTo,
	}
	r.retryer = &fault.Retryer{
		Attempts: cfg.MaxAttempts,
		Backoff: fault.Backoff{
			Base:   cfg.RetryBase,
			Max:    cfg.RetryMax,
			Factor: 2,
			Jitter: cfg.RetryJitter,
			Seed:   cfg.Seed,
		},
		Sleep:   cfg.Sleep,
		OnRetry: func(int, error) { r.om.retries.Inc() },
	}
	r.interp = r.newBreaker()
	return r
}

// newBreaker builds a breaker that reports open transitions into the
// shared counters.
func (r *resilience) newBreaker() *fault.Breaker {
	return &fault.Breaker{
		Threshold: r.cfg.BreakerThreshold,
		Cooldown:  r.cfg.BreakerCooldown,
		Now:       r.cfg.Now,
	}
}

// sinkGuard wraps one sink with its own circuit breaker.
type sinkGuard struct {
	sink    Sink
	breaker *fault.Breaker
}

// spillQueue is the bounded in-memory holding area for reports whose
// sink delivery terminally failed. It keeps the newest reports: on
// overflow the oldest spilled report is dropped (alert freshness over
// completeness).
type spillQueue struct {
	mu      sync.Mutex
	cap     int
	reports []*core.Report
}

// push enqueues a report, reporting whether an old report was evicted.
func (q *spillQueue) push(r *core.Report) (evicted bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.reports) >= q.cap {
		q.reports = q.reports[1:]
		evicted = true
	}
	q.reports = append(q.reports, r)
	return evicted
}

// drain removes and returns every queued report.
func (q *spillQueue) drain() []*core.Report {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.reports
	q.reports = nil
	return out
}

// snapshot copies the queued reports without removing them.
func (q *spillQueue) snapshot() []*core.Report {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]*core.Report(nil), q.reports...)
}

func (q *spillQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.reports)
}

// guard runs one stage call under the fault layer: injection check,
// panic containment, bounded retries with backoff. point is the
// injection point consulted at the start of each attempt, inside the
// timeout window, so injected latency counts against the attempt's
// budget exactly like real component latency; timeout bounds each
// attempt (0 = none).
func (p *Pipeline) guard(point string, timeout time.Duration, fn func() error) error {
	return p.res.retryer.Do(func() error {
		return fault.WithTimeout(timeout, func() error {
			if err := p.res.faults.Check(point); err != nil {
				return err
			}
			return fn()
		})
	})
}

// interpret runs one LEI call under the interpreter breaker, degrading
// to a template-text interpretation (the "w/o LEI" rendering) when the
// breaker is open or retries are exhausted. The degraded interpretation
// still extends the event table, so detection keeps running on the raw
// template vocabulary until the interpreter recovers.
func (p *Pipeline) interpret(template string) lei.Interpretation {
	if p.res.interp.Allow() {
		// got is written under its own mutex: a timed-out attempt keeps
		// running on a discarded goroutine (see fault.WithTimeout) and may
		// finish after a later attempt. Every attempt interprets the same
		// template, so whichever completed write wins is a valid result.
		var gotMu sync.Mutex
		var got lei.Interpretation
		err := p.guard(PointInterpret, p.res.cfg.InterpretTimeout, func() error {
			in := p.interp.Interpret(p.cfg.SystemHint, template)
			gotMu.Lock()
			got = in
			gotMu.Unlock()
			return nil
		})
		opensBefore := p.res.interp.Opens()
		p.res.interp.Record(err)
		if opened := p.res.interp.Opens() - opensBefore; opened > 0 {
			p.res.om.breakerOpen.Add(int64(opened))
		}
		if err == nil {
			gotMu.Lock()
			in := got
			gotMu.Unlock()
			return in
		}
	}
	p.res.om.degraded.Inc()
	return lei.Interpretation{Template: template, Text: template}
}

// deliverAll offers one report to every guarded sink and spills it once
// if any of them refused it, however many did: a copy per failing sink
// would multiply on every FlushSpill and push distinct older alerts out
// of the bounded queue.
func (p *Pipeline) deliverAll(rep *core.Report) {
	refused := false
	for _, g := range p.guards {
		if !p.deliverTo(g, rep) {
			refused = true
		}
	}
	if refused {
		p.spillReport(rep)
	}
}

// deliverTo pushes one report through a guarded sink: breaker gate,
// injection check, retries. It reports whether the sink took the report;
// false means the breaker was open or the delivery terminally failed.
func (p *Pipeline) deliverTo(g *sinkGuard, rep *core.Report) bool {
	if !g.breaker.Allow() {
		return false
	}
	err := p.guard(PointSink, p.res.cfg.SinkTimeout, func() error {
		if f, ok := g.sink.(FallibleSink); ok {
			return f.TryNotify(rep)
		}
		g.sink.Notify(rep)
		return nil
	})
	opensBefore := g.breaker.Opens()
	g.breaker.Record(err)
	if opened := g.breaker.Opens() - opensBefore; opened > 0 {
		p.res.om.breakerOpen.Add(int64(opened))
	}
	if err != nil {
		p.res.om.sinkErrors.Inc()
	}
	return err == nil
}

// spillReport diverts a report that could not be delivered into the
// bounded spill queue (and the SpillTo sink, when configured — e.g. an
// alertstore that persists the backlog durably).
func (p *Pipeline) spillReport(rep *core.Report) {
	p.res.om.spilled.Inc()
	if p.res.spill.push(rep) {
		p.res.om.spillDropped.Inc()
	}
	if p.res.spillTo != nil {
		p.res.spillTo.Notify(rep)
	}
}

// Spilled returns a snapshot of the reports currently parked in the
// spill queue.
func (p *Pipeline) Spilled() []*core.Report { return p.res.spill.snapshot() }

// SpillLen returns the number of queued spilled reports.
func (p *Pipeline) SpillLen() int { return p.res.spill.len() }

// FlushSpill re-delivers every spilled report through the guarded sinks
// (call it after an outage ends — e.g. once the breaker's target
// recovers). Reports that fail again re-spill and are counted again in
// Stats.Spilled. It returns how many reports were delivered to every
// sink and how many remain spilled.
func (p *Pipeline) FlushSpill() (delivered, remaining int) {
	backlog := p.res.spill.drain()
	for _, rep := range backlog {
		p.deliverAll(rep)
	}
	remaining = p.res.spill.len()
	return len(backlog) - remaining, remaining
}
