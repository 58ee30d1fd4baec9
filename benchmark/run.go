package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"logsynergy/benchmark/trace"
	"logsynergy/benchmark/workload"
)

// runOpts selects one benchmark run.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	smoke    bool
	// workdir holds the run's temporary WAL directories.
	workdir string
	// tracePath is where a traced run writes its spans.
	tracePath string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run's outcome. The first four fields are the benchmark
// contract's result object.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Problems names every check that failed, by workload and phase.
	Problems []string `json:"problems,omitempty"`
	// Samples states how many observations the latency percentiles rest on.
	Samples map[string]int `json:"samples,omitempty"`
	// Series holds the repeated measurements behind each end-to-end metric,
	// in the order they were made.
	Series map[string][]float64 `json:"series,omitempty"`
	// Ungated are the paced phase's latency percentiles, which an untraced
	// run measures at full size but no bound applies to.
	Ungated map[string]metricValue `json:"ungated,omitempty"`
	// Facts are the workload properties the checks rest on, as observed in
	// the last saturation round.
	Facts map[string]float64 `json:"facts,omitempty"`
	// Layers is the traced run's per-span-name self time.
	Layers map[string]trace.LayerTime `json:"layers,omitempty"`
}

// run is the state one benchmark run accumulates.
type run struct {
	opts   runOpts
	res    *runResult
	phases []*phaseResult
}

func (r *run) problem(format string, args ...any) {
	r.res.Problems = append(r.res.Problems, r.opts.workload+": "+fmt.Sprintf(format, args...))
}

func (r *run) set(specs []metricSpec, name string, v float64) {
	for _, s := range specs {
		if s.Name == name {
			r.res.Metrics[name] = metricValue{Value: v, Unit: s.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the spec table")
}

// generate builds a workload's serving corpus. The train workload serves
// novel traffic.
func generate(name string, seed int64, warm, timed int) *workload.Corpus {
	switch name {
	case "steady":
		return workload.Steady(seed, warm, timed)
	case "onboard":
		return workload.Onboard(seed, warm, timed)
	default:
		return workload.Novel(seed, warm, timed)
	}
}

// runWorkload performs one run: set-up (repeated, median reported), the
// timed phases, the output checks and, when traced, the layer
// measurements.
func runWorkload(opts runOpts) (*runResult, error) {
	sz, err := sizeFor(opts.workload, opts.seconds, opts.smoke)
	if err != nil {
		return nil, err
	}
	if opts.traced {
		// The traced run repeats the phases several ways (decorated, one
		// shard, unsharded, stage by stage), so each works on half the lines.
		sz.timed = sz.timed / 2 / postLines * postLines
		sz.rounds, sz.setups = 1, 1
	}
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return nil, err
	}
	r := &run{opts: opts, res: &runResult{Metrics: make(map[string]metricValue), Samples: make(map[string]int)}}

	// Set-up: corpus generation, the training data, the serving bundle's
	// training run, then a warm-up pass through the whole serving path.
	var (
		setupS []float64
		tr     *traffic
		e      env
		probe  trainData
	)
	for i := 0; i < sz.setups; i++ {
		start := time.Now()
		tr = newTraffic(opts.workload, opts.seed, sz.warm, sz.timed)
		bundle := buildTrainData(bundleSeed, sz.bundle)
		probe = bundle
		if opts.workload == "train" {
			probe = buildTrainData(opts.seed, sz.probe)
		}
		e = env{model: train(bundle, sz.bundle).model, table: bundle.target.Table}
		if opts.workload == "onboard" {
			e.table = emptyTable(bundle.target.Table.Dim)
		}
		warmTraffic := newTraffic(opts.workload, opts.seed+1, 256, 1024)
		if _, err := runPhase(opts.workdir, e, warmTraffic, phase{name: "warm-up", shards: 2}); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	paced, err := r.phase(e, tr, phase{name: "paced", shards: 2, rate: sz.rate})
	if err != nil {
		return nil, err
	}
	// Saturation rounds and training probes alternate, so both kinds of
	// measurement are spread over the whole run.
	var satRate, trainRate []float64
	var sat *phaseResult
	var lastProbe trainRun
	for i := 0; i < sz.rounds; i++ {
		if sat, err = r.phase(e, tr, phase{name: fmt.Sprintf("saturation-%d", i+1), shards: 2}); err != nil {
			return nil, err
		}
		satRate = append(satRate, float64(sat.lines)/sat.wall.Seconds())
		lastProbe = train(probe, sz.probe)
		trainRate = append(trainRate, lastProbe.seqPerS())
		r.res.Attempted += lastProbe.steps
	}
	r.checkTraffic(paced, sat)

	if opts.traced {
		if err := r.layers(e, tr, lastProbe, paced, sat); err != nil {
			return nil, err
		}
	} else {
		r.set(endToEnd, "setup_s", median(append([]float64(nil), setupS...)))
		r.set(endToEnd, "lines_per_s", slices.Max(satRate))
		r.set(endToEnd, "train_seq_per_s", slices.Max(trainRate))
		r.res.Series = map[string][]float64{"setup_s": setupS, "lines_per_s": satRate, "train_seq_per_s": trainRate}
		r.res.Ungated = latencies(paced)
		r.res.Samples["verdict_ms"] = len(paced.verdictMs)
		r.res.Samples["ack_ms"] = len(paced.ackMs)
	}
	r.checkPhases()
	r.res.Correct = len(r.res.Problems) == 0
	return r.res, nil
}

// latencies summarizes a paced phase under the per-layer latency names.
func latencies(paced *phaseResult) map[string]metricValue {
	return map[string]metricValue{
		"latency.verdict_p50_ms": {percentile(paced.verdictMs, 50), "ms"},
		"latency.verdict_p99_ms": {percentile(paced.verdictMs, 99), "ms"},
		"latency.ack_p50_ms":     {percentile(paced.ackMs, 50), "ms"},
		"latency.ack_p99_ms":     {percentile(paced.ackMs, 99), "ms"},
	}
}

// phase runs one serving phase and keeps its result for the checks.
func (r *run) phase(e env, tr *traffic, ph phase) (*phaseResult, error) {
	res, err := runPhase(r.opts.workdir, e, tr, ph)
	if err != nil {
		return nil, err
	}
	r.keep(tr, res)
	return res, nil
}

// keep files a phase's result for checkPhases and counts what it
// attempted: every line sent and every window those lines complete.
func (r *run) keep(tr *traffic, res *phaseResult) {
	res.expected = tr.expected
	r.phases = append(r.phases, res)
	r.res.Attempted += len(tr.corpus.Lines) + res.expected
}

// checkPhases verifies every phase's outputs: no line refused, every
// expected window delivered exactly once and none abandoned, no parse or
// detect failure, the pipeline's own counters agreeing with what the
// harness saw, and per-key score sequences bit-identical across phases.
func (r *run) checkPhases() {
	first := r.phases[0]
	for _, p := range r.phases {
		missing := p.expected - p.delivered
		failed := p.refused + p.abandoned + p.strays + missing + p.stats.ParseFailures + p.stats.DetectFailures
		r.res.Failed += failed
		if failed > 0 {
			r.problem("%s: %d lines refused, %d windows abandoned, %d stray, %d missing, %d parse and %d detect failures",
				p.name, p.refused, p.abandoned, p.strays, missing, p.stats.ParseFailures, p.stats.DetectFailures)
		}
		if p.stats.SequencesFormed != p.windows || p.stats.Anomalies != p.alerts {
			r.problem("%s: pipeline counted %d windows and %d anomalies, the harness saw %d and %d",
				p.name, p.stats.SequencesFormed, p.stats.Anomalies, p.windows, p.alerts)
		}
		if p.reports != p.allAlerts {
			r.problem("%s: %d windows scored above the threshold but the sink received %d reports", p.name, p.allAlerts, p.reports)
		}
		for k, sum := range first.sums {
			if p.sums[k] != sum {
				r.problem("%s: key %s's score sequence has checksum %016x, in %s it has %016x", p.name, k, p.sums[k], first.name, sum)
				break
			}
		}
	}
}

// checkTraffic asserts the property each workload exists to have, at full
// size only: smoke runs are too short and their model too weak.
func (r *run) checkTraffic(paced, sat *phaseResult) {
	if paced.windows != sat.windows || sat.windows == 0 {
		r.problem("paced phase delivered %d timed windows, saturation %d", paced.windows, sat.windows)
	}
	hitShare := float64(sat.stats.PatternHits) / float64(max(sat.stats.PatternHits+sat.stats.PatternMisses, 1))
	r.res.Facts = map[string]float64{
		"windows":           float64(sat.windows),
		"library_hit_share": hitShare,
		"alert_share":       float64(sat.alerts) / float64(max(sat.windows, 1)),
		"templates_learned": float64(sat.cacheMisses),
	}
	if r.opts.smoke {
		return
	}
	switch r.opts.workload {
	case "novel":
		if hitShare > 0.05 {
			r.problem("pattern-library hit share %.3f, want <= 0.05", hitShare)
		}
	case "steady":
		if hitShare < 0.9 {
			r.problem("pattern-library hit share %.3f, want >= 0.9", hitShare)
		}
	case "onboard":
		if sat.cacheMisses < 2000 {
			r.problem("%d distinct templates interpreted, want >= 2000", sat.cacheMisses)
		}
	}
	if w := r.opts.workload; (w == "novel" || w == "steady") && (sat.alerts == 0 || sat.alerts == sat.windows) {
		r.problem("%d of %d windows alerted: the alert share must be strictly between 0 and 1", sat.alerts, sat.windows)
	}
}

// defaultWorkdir is where a run keeps its WAL directories and writes its
// results: inside the checkout, in the directory .gitignore names.
func defaultWorkdir() string {
	return filepath.Join(".bench_build", "work")
}
