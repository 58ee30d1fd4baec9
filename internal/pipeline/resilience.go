package pipeline

import (
	"sync"
	"time"

	"logsynergy/internal/fault"
	"logsynergy/internal/lei"
)

// Named injection points consulted on every stage call. Register
// fault.Rules against them (Config.Faults) to rehearse component failures
// without touching the build: parser crashes, LEI outages, slow
// embedders, dead alert gateways.
const (
	// PointParse guards drain parsing of one raw line.
	PointParse = "pipeline.parse"
	// PointInterpret guards one LEI interpretation of a new template.
	PointInterpret = "pipeline.interpret"
	// PointEmbed guards extending the event table with a new embedding.
	PointEmbed = "pipeline.embed"
	// PointDetect guards one model scoring pass over a batch.
	PointDetect = "pipeline.detect"
	// PointSink guards one report delivery (by the shard runtime's
	// delivery loop; the pipeline hands reports to its sinks directly).
	PointSink = "pipeline.sink"
)

// ResilienceConfig tunes the pipeline's fault tolerance; the shard
// runtime's alert delivery retries on the same backoff. The zero value
// selects production defaults.
type ResilienceConfig struct {
	// MaxAttempts is the total tries per stage call, first included
	// (default 3).
	MaxAttempts int
	// RetryBase is the backoff before the first retry (default 5ms).
	RetryBase time.Duration
	// RetryMax caps the exponential backoff (default 250ms).
	RetryMax time.Duration
	// InterpretTimeout bounds one LEI call (0 = no timeout). A timed-out
	// interpretation keeps running on its goroutine and is discarded.
	InterpretTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// interpreter breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses calls before
	// probing (default 1s).
	BreakerCooldown time.Duration
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
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Retryer is the retry policy the fields describe, defaults applied;
// every backoff delay is spread ±20% (jitter 0.2).
func (c ResilienceConfig) Retryer() *fault.Retryer {
	c = c.withDefaults()
	return &fault.Retryer{
		Attempts: c.MaxAttempts,
		Backoff:  fault.Backoff{Base: c.RetryBase, Max: c.RetryMax, Factor: 2, Jitter: 0.2, Seed: c.Seed},
		Sleep:    c.Sleep,
	}
}

// guard runs one stage call under the fault layer: injection check,
// panic containment, bounded retries with backoff. point is the
// injection point consulted at the start of each attempt, inside the
// timeout window, so injected latency counts against the attempt's
// budget exactly like real component latency; timeout bounds each
// attempt (0 = none).
func (p *Pipeline) guard(point string, timeout time.Duration, fn func() error) error {
	return p.retryer.Do(func() error {
		return fault.WithTimeout(timeout, func() error {
			if err := p.cfg.Faults.Check(point); err != nil {
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
	if p.breaker.Allow() {
		// got is written under its own mutex: a timed-out attempt keeps
		// running on a discarded goroutine (see fault.WithTimeout) and may
		// finish after a later attempt. Every attempt interprets the same
		// template, so whichever completed write wins is a valid result.
		var gotMu sync.Mutex
		var got lei.Interpretation
		err := p.guard(PointInterpret, p.cfg.Resilience.InterpretTimeout, func() error {
			in := p.interp.Interpret(p.cfg.SystemHint, template)
			gotMu.Lock()
			got = in
			gotMu.Unlock()
			return nil
		})
		opensBefore := p.breaker.Opens()
		p.breaker.Record(err)
		if opened := p.breaker.Opens() - opensBefore; opened > 0 {
			p.om.breakerOpen.Add(int64(opened))
		}
		if err == nil {
			gotMu.Lock()
			in := got
			gotMu.Unlock()
			return in
		}
	}
	p.om.degraded.Inc()
	return lei.Interpretation{Template: template, Text: template}
}
