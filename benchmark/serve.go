package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"logsynergy/benchmark/trace"
	"logsynergy/benchmark/workload"
	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/embed"
	"logsynergy/internal/httpapi"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/shard"
	"logsynergy/internal/window"
)

// traffic is one serving workload's corpus with what the phases share
// precomputed: per key, which corpus line completes each of its windows.
type traffic struct {
	// workload and seed regenerate the corpus in the load generator.
	workload string
	seed     int64
	corpus   *workload.Corpus
	// lastLine[key][w] is the corpus index of the line that completes the
	// key's w-th window (line Length + w·Step of that key).
	lastLine map[string][]int32
	// windows is how many windows the timed lines complete, and expected
	// how many the whole corpus does.
	windows, expected int
}

func newTraffic(name string, seed int64, warm, timed int) *traffic {
	cfg := window.Default()
	c := generate(name, seed, warm, timed)
	t := &traffic{workload: name, seed: seed, corpus: c, lastLine: make(map[string][]int32, c.Keys)}
	seen := make(map[string]int, c.Keys)
	for i, l := range c.Lines {
		k := workload.KeyOf(l)
		seen[k]++
		if seen[k] == 1 {
			t.lastLine[k] = nil // a key too short for any window still gets a track
		}
		if n := seen[k]; n >= cfg.Length && (n-cfg.Length)%cfg.Step == 0 {
			t.lastLine[k] = append(t.lastLine[k], int32(i))
			t.expected++
			if i >= c.Warm {
				t.windows++
			}
		}
	}
	return t
}

// phase describes one serving phase over a traffic.
type phase struct {
	name   string
	shards int
	// rate is the open-loop send rate in lines per second; 0 sends
	// back-to-back (closed loop).
	rate float64
	// rec, when set, turns the decorators on: a span around every handler
	// call and every interpreter call, chunk spans around sink deliveries,
	// and a sampler counting commits.
	rec *trace.Recorder
	// keepOpen leaves the drained runtime open for the cutover measurement;
	// the caller runs result.close.
	keepOpen bool
}

// keyTrack follows one key's windows through a phase. A key is pinned to
// one partition, so one worker goroutine at a time touches its track.
type keyTrack struct {
	n   int    // windows delivered
	sum uint64 // order-sensitive checksum of their score bits
}

// tracker is the OnWindow observer every phase shares: it checksums each
// key's score sequence and counts the timed windows, alerts, abandoned
// windows and strays (windows for an unknown key, or past the number the
// key's lines complete).
type tracker struct {
	tr     *traffic
	tracks map[string]*keyTrack

	timed, alerts, allAlerts, abandoned, strays atomic.Int64
}

func newTracker(tr *traffic) *tracker {
	t := &tracker{tr: tr, tracks: make(map[string]*keyTrack, len(tr.lastLine))}
	for k := range tr.lastLine {
		t.tracks[k] = &keyTrack{}
	}
	return t
}

// observe records one delivered window and returns the corpus index of its
// last line and whether that line is past the warm-up prefix.
func (t *tracker) observe(key string, score float64, abandoned bool) (last int, timed bool) {
	kt := t.tracks[key]
	if kt == nil || kt.n >= len(t.tr.lastLine[key]) {
		t.strays.Add(1)
		return 0, false
	}
	last = int(t.tr.lastLine[key][kt.n])
	kt.n++
	if abandoned {
		t.abandoned.Add(1)
		return last, false
	}
	kt.sum = (kt.sum ^ math.Float64bits(score)) * 1099511628211
	if score > core.Threshold {
		t.allAlerts.Add(1)
	}
	if last < t.tr.corpus.Warm {
		return last, false
	}
	t.timed.Add(1)
	if score > core.Threshold {
		t.alerts.Add(1)
	}
	return last, true
}

// collect copies the tracker's totals into a phase result.
func (t *tracker) collect(res *phaseResult) {
	res.windows = int(t.timed.Load())
	res.alerts = int(t.alerts.Load())
	res.allAlerts = int(t.allAlerts.Load())
	res.abandoned = int(t.abandoned.Load())
	res.strays = int(t.strays.Load())
	res.sums = make(map[string]uint64, len(t.tracks))
	for k, kt := range t.tracks {
		res.sums[k] = kt.sum
		res.delivered += kt.n
	}
}

// phaseResult is everything one phase observed from outside.
type phaseResult struct {
	name      string
	wall      time.Duration // first timed POST → Drain returns
	lines     int           // timed lines sent
	refused   int           // lines (warm or timed) not answered 202
	ackMs     []float64     // per timed POST; from its due time when paced
	lateMs    []float64     // per timed POST: send-time slip behind schedule
	verdictMs []float64     // per timed window, paced phases only
	windows   int           // timed windows delivered
	abandoned int
	alerts    int // timed windows scoring above the threshold
	allAlerts int // the same, warm-up included
	reports   int // reports the sink received, warm-up included
	strays    int // windows for unknown keys or past a key's expected count
	delivered int // windows delivered, warm-up included
	expected  int // windows the phase's corpus completes, warm-up included
	sums      map[string]uint64
	stats     pipeline.Stats // timed part only
	snap      obs.Snapshot
	defaults  obs.Snapshot // obs.Default() delta over the timed part
	usage     usage        // Go runtime cost of the timed part

	cacheHits, cacheMisses, cacheWaits int64
	stateBytes                         int64
	backlogEnd                         uint64
	partLines                          []int64
	commits                            int
	renders                            int64

	rt    *shard.Runtime
	close func()
}

// countingSink is the benchmark's alert channel: it counts deliveries.
type countingSink struct {
	n     atomic.Int64
	chunk *trace.Chunk // nil unless traced; deliveries are serialized by the fan-in
}

func (s *countingSink) Notify(*core.Report) {
	start := time.Now()
	s.n.Add(1)
	s.chunk.Add(start, time.Since(start))
}

// tracedInterp records a span around every interpreter call.
type tracedInterp struct {
	inner lei.Interpreter
	rec   *trace.Recorder
	root  *trace.Open
	calls atomic.Int64
}

func (t *tracedInterp) Interpret(hint, template string) lei.Interpretation {
	t.calls.Add(1)
	sp := t.rec.Begin("lei.interpret", t.root)
	defer sp.End()
	return t.inner.Interpret(hint, template)
}

// runPhase opens a fresh runtime the way `logsynergy serve -shards N
// -broker-dir` assembles it, warms it up untimed, drives the timed lines
// through /ingest, drains, and collects what the public surface shows.
func runPhase(workdir string, e env, tr *traffic, ph phase) (*phaseResult, error) {
	dir, err := os.MkdirTemp(workdir, ph.name+"-")
	if err != nil {
		return nil, err
	}
	res := &phaseResult{name: ph.name, lines: len(tr.corpus.Timed())}
	warm := tr.corpus.Warm
	paced := ph.rate > 0
	var interval time.Duration
	if paced {
		interval = postInterval(ph.rate)
	}

	// The generator is another process, so its schedule and the verdicts
	// meet on the wall clock.
	var startNano, latN atomic.Int64
	lats := make([]float64, tr.windows)
	tk := newTracker(tr)
	onWindow := func(_ int, key string, _ []int, score float64, aband bool) {
		now := time.Now().UnixNano()
		if last, timed := tk.observe(key, score, aband); timed && paced {
			due := int64((last-warm)/postLines) * int64(interval)
			lats[latN.Add(1)-1] = float64(now-startNano.Load()-due) / 1e6
		}
	}

	var root *trace.Open
	var interp lei.Interpreter = lei.NewSimLLM(lei.Config{})
	sink := &countingSink{}
	var traced *tracedInterp
	if ph.rec != nil {
		root = ph.rec.Begin(ph.name, nil)
		traced = &tracedInterp{inner: interp, rec: ph.rec, root: root}
		interp = traced
		sink.chunk = ph.rec.Chunk("sink.notify", root)
	}

	// The flag defaults of `logsynergy serve`: 8 MiB segments, fsync every
	// 50 ms, a 256 MiB backlog that rejects (429) when full.
	reg := obs.NewRegistry()
	rt, err := shard.Open(shard.Config{
		Shards:   ph.shards,
		Dir:      dir,
		Pipeline: pipeline.DefaultConfig(targetHint),
		Broker: broker.Config{
			SegmentBytes:    8 << 20,
			Fsync:           broker.FsyncInterval,
			FsyncEvery:      50 * time.Millisecond,
			MaxBacklogBytes: 256 << 20,
			FullPolicy:      broker.FullReject,
		},
		Detector: e.detector(),
		Interp:   interp,
		Embedder: embed.New(e.table.Dim),
		Sink:     sink,
		Metrics:  reg,
		OnWindow: onWindow,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("%s: opening the runtime: %w", ph.name, err)
	}
	mux := httpapi.Mux(httpapi.MuxOptions{Snapshot: rt.Snapshot})
	mux.Handle("/ingest", rt.IngestHandler(0))
	var handler http.Handler = mux
	if ph.rec != nil {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sp := ph.rec.Begin("ingest.handler", root)
			mux.ServeHTTP(w, r)
			sp.End()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	url := "http://" + ln.Addr().String() + "/ingest"
	res.close = func() {
		srv.Close()
		<-served
		rt.Close()
		os.RemoveAll(dir)
	}
	fail := func(err error) (*phaseResult, error) {
		res.close()
		return nil, fmt.Errorf("%s: %w", ph.name, err)
	}

	drain := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
		defer cancel()
		return rt.Drain(ctx)
	}

	// The paced phase's generator is a separate process; a saturation round
	// sends from here (see loadgen.go for why each).
	var gen *loadgen
	snd := newSender(url)
	if paced {
		gen, res.refused, err = startLoadgen(loadgenSpec{URL: url, Workload: tr.workload, Seed: tr.seed,
			Warm: warm, Timed: len(tr.corpus.Timed()), Rate: ph.rate})
		if err != nil {
			return fail(err)
		}
	} else {
		res.refused = snd.warm(joinBodies(tr.corpus.Lines[:warm]))
	}
	if err := drain(); err != nil {
		if gen != nil {
			gen.stop()
		}
		return fail(fmt.Errorf("draining the warm-up: %w", err))
	}
	statsBefore := rt.Stats()
	defaultsBefore := obs.Default().Snapshot()
	usageBefore := readUsage()

	stopSampler := func() {}
	if ph.rec != nil {
		stopSampler = sampleCommits(rt, ph.shards, &res.commits)
	}
	start := time.Now().Add(5 * time.Millisecond)
	startNano.Store(start.UnixNano())
	var sent *loadgenResult
	if paced {
		if sent, err = gen.run(start); err != nil {
			return fail(err)
		}
	} else {
		r := snd.timed(joinBodies(tr.corpus.Timed()), 0, start)
		snd.client.CloseIdleConnections()
		sent = &r
	}
	res.refused += sent.Refused
	res.ackMs, res.lateMs = sent.AckMs, sent.LateMs
	for _, h := range rt.Health() {
		res.backlogEnd += h.Lag
	}
	if err := drain(); err != nil {
		return fail(fmt.Errorf("draining: %w", err))
	}
	res.wall = time.Since(start)
	res.usage = readUsage().since(usageBefore)
	stopSampler()
	if ph.rec != nil {
		sink.chunk.Flush()
		root.End()
		res.renders = traced.calls.Load()
	}

	res.verdictMs = lats[:latN.Load()]
	tk.collect(res)
	res.reports = int(sink.n.Load())
	res.stats = statsDelta(rt.Stats(), statsBefore)
	res.snap = rt.Snapshot()
	res.defaults = snapshotDelta(obs.Default().Snapshot(), defaultsBefore)
	res.cacheHits, res.cacheMisses, res.cacheWaits = rt.Cache().Stats()
	for i := 0; i < ph.shards; i++ {
		if fi, err := os.Stat(filepath.Join(shard.PartitionDir(dir, i), "shard-state.json")); err == nil {
			res.stateBytes += fi.Size()
		}
		res.partLines = append(res.partLines, res.snap.Counters[fmt.Sprintf("shard%d.pipeline.lines_collected", i)])
	}
	if ph.keepOpen {
		res.rt = rt
		return res, nil
	}
	res.close()
	return res, nil
}

// sampleCommits counts the distinct committed offsets it sees while
// polling every partition twice a millisecond; the runtime exposes no
// commit counter, and a commit (two fsynced file replacements) takes
// longer than the poll interval. The returned stop function waits for the
// sampler to end.
func sampleCommits(rt *shard.Runtime, shards int, commits *int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := make([]uint64, shards)
		for i := range last {
			last[i] = rt.Committed(i)
		}
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			for i := range last {
				if c := rt.Committed(i); c != last[i] {
					last[i] = c
					*commits++
				}
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

func statsDelta(a, b pipeline.Stats) pipeline.Stats {
	a.LinesCollected -= b.LinesCollected
	a.SequencesFormed -= b.SequencesFormed
	a.PatternHits -= b.PatternHits
	a.PatternMisses -= b.PatternMisses
	a.Anomalies -= b.Anomalies
	a.NewEvents -= b.NewEvents
	a.ParseFailures -= b.ParseFailures
	a.DetectFailures -= b.DetectFailures
	return a
}

// snapshotDelta subtracts counters and histogram counts and sums; gauges
// keep their later value.
func snapshotDelta(a, b obs.Snapshot) obs.Snapshot {
	for k, v := range b.Counters {
		a.Counters[k] -= v
	}
	for k, hb := range b.Histograms {
		ha := a.Histograms[k]
		ha.Count -= hb.Count
		ha.Sum -= hb.Sum
		a.Histograms[k] = ha
	}
	return a
}
