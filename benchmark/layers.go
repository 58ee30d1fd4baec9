package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"logsynergy/benchmark/trace"
	"logsynergy/benchmark/workload"
	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/tensor"
	"logsynergy/internal/window"
)

// layers is the traced run. It repeats the saturation phase with the
// decorators on (and grows the still-open runtime by one partition to time
// the cutover), again on one shard, again as one unsharded pipeline.Keyed,
// and then replays the same lines through the concrete layers one stage at
// a time. Every number comes from outside the program: timed calls into
// public functions, decorated interfaces, and public counters.
func (r *run) layers(e env, tr *traffic, lastTrain trainRun, paced, sat *phaseResult) error {
	rec := trace.New(r.opts.workload)
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	allLines := float64(len(tr.corpus.Lines))

	// Saturation again, decorated; then the cutover on the open runtime.
	traced, err := r.phase(e, tr, phase{name: "saturation-traced", shards: 2, rec: rec, keepOpen: true})
	if err != nil {
		return err
	}
	keys := make([]string, len(tr.corpus.Lines))
	for i, l := range tr.corpus.Lines {
		keys[i] = workload.KeyOf(l)
	}
	start := time.Now()
	for _, k := range keys {
		traced.rt.PartitionFor(k)
	}
	set("shard.route_ns_per_line", float64(time.Since(start).Nanoseconds())/allLines)
	sp := rec.Begin("shard.cutover", nil)
	rep, err := traced.rt.LiveRebalance(3)
	sp.End()
	traced.close()
	if err != nil {
		return fmt.Errorf("live rebalance 2 -> 3: %w", err)
	}
	set("shard.cutover_moved_keys", float64(rep.MovedKeys))
	set("shard.cutover_us_per_moved_key", float64(rep.Duration.Microseconds())/float64(max(rep.MovedKeys, 1)))

	one, err := r.phase(e, tr, phase{name: "saturation-1shard", shards: 1})
	if err != nil {
		return err
	}
	keyedWall := r.keyedFeed(e, tr)
	st, err := r.replay(rec, e, tr)
	if err != nil {
		return err
	}

	satRate := float64(sat.lines) / sat.wall.Seconds()
	oneRate := float64(one.lines) / one.wall.Seconds()
	set("loadgen.late_p99_ms", percentile(paced.lateMs, 99))
	over := 0
	for _, v := range paced.verdictMs {
		if v > verdictLimitMs {
			over++
		}
	}
	for name, v := range latencies(paced) {
		set(name, v.Value)
	}
	set("latency.over_limit_share", float64(over)/float64(max(len(paced.verdictMs), 1)))
	set("shard.backlog_end_lines", float64(paced.backlogEnd))
	set("shard.lines_per_s_1shard", oneRate)
	set("shard.speedup_2_vs_1", satRate/oneRate)
	var most, total int64
	for _, n := range traced.partLines {
		most, total = max(most, n), total+n
	}
	set("shard.partition_skew", float64(most)*float64(len(traced.partLines))/float64(max(total, 1)))
	set("shard.commits", float64(traced.commits))
	set("shard.state_bytes", float64(traced.stateBytes))
	set("lei.renders", float64(traced.renders))
	set("lei.cache_hit_share", float64(traced.cacheHits+traced.cacheWaits)/float64(max(traced.cacheHits+traced.cacheMisses+traced.cacheWaits, 1)))
	set("pipeline.library_hit_share", float64(sat.stats.PatternHits)/float64(max(sat.stats.PatternHits+sat.stats.PatternMisses, 1)))
	set("pipeline.windows", float64(sat.windows))
	set("pipeline.detect_batch_mean", float64(sat.snap.Counters["pipeline.sequences_formed"])/float64(max(sat.snap.Histograms["pipeline.detect_batch_seconds"].Count, 1)))
	set("core.alerts", float64(sat.alerts))
	set("tensor.pool_tasks", float64(traced.defaults.Histograms["tensor.pool.task_seconds"].Count))
	set("runtime.alloc_bytes_per_line", float64(sat.usage.allocBytes)/float64(sat.lines))
	set("runtime.gc_cpu_share", sat.usage.gcCPU/sat.usage.totalCPU)
	set("runtime.peak_rss_mb", peakRSSMB())
	set("trace.overhead_share", traced.wall.Seconds()/sat.wall.Seconds()-1)
	set("pipeline.keyed_feed_us_per_line", float64(keyedWall.Microseconds())/allLines)
	set("core.train_step_ms", lastTrain.wall.Seconds()*1e3/float64(lastTrain.steps))
	set("core.train_allocs_per_seq", float64(lastTrain.mallocs)/float64(lastTrain.sequences))

	// Stage attribution: what the stages of the unsharded job add up to,
	// against the unsharded job itself.
	stages := []string{"parse", "interpret", "extend", "lookup", "score", "report"}
	var staged time.Duration
	for _, s := range stages {
		staged += st.stage[s]
	}
	set("attribution.coverage", staged.Seconds()/keyedWall.Seconds())
	for _, s := range stages {
		set("attribution."+s+"_share", st.stage[s].Seconds()/staged.Seconds())
	}
	for name, v := range st.metrics {
		set(name, v)
	}
	set("broker.fsyncs", float64(traced.snap.Histograms["broker.fsync_seconds"].Count))
	// Rendered once: the interpreter ran exactly once per template the
	// stream added to the offline table, however many partitions met it.
	if learned := int64(st.metrics["drain.templates"]) - int64(e.table.Len()); traced.renders != learned || traced.cacheMisses != learned {
		r.problem("the stream added %d templates but the interpreter rendered %d (cache misses %d)", learned, traced.renders, traced.cacheMisses)
	}
	r.kernels(e, st)

	spans := rec.Spans()
	r.res.Layers = trace.SelfTimes(spans)
	set("ingest.handler_us_per_line", float64(r.res.Layers["ingest.handler"].Total)/1e3/allLines)
	return trace.Write(r.opts.tracePath, spans)
}

// seededParser returns a Drain parser that already knows the offline event
// table's templates, the way `logsynergy serve` and every shard partition
// seed theirs.
func seededParser(det *core.Detector) *drain.Parser {
	p := drain.NewDefault()
	for _, in := range det.Table.Interps {
		p.Parse(in.Template)
	}
	return p
}

// keyedFeed runs every line through one unsharded pipeline.Keyed — the
// single-threaded baseline of the same job, with no HTTP, WAL or router —
// and files its per-key checksums with the phases'.
func (r *run) keyedFeed(e env, tr *traffic) time.Duration {
	det := e.detector()
	cfg := pipeline.DefaultConfig(targetHint)
	cfg.Metrics = obs.NewRegistry()
	sink := &countingSink{}
	p := pipeline.New(cfg, seededParser(det), det, lei.NewSimLLM(lei.Config{}), embed.New(e.table.Dim), sink)
	k := pipeline.NewKeyed(p)
	tk := newTracker(tr)
	k.OnWindow = func(key string, _ []int, score float64, abandoned bool) { tk.observe(key, score, abandoned) }

	res := &phaseResult{name: "keyed-feed", lines: len(tr.corpus.Lines)}
	var before pipeline.Stats
	start := time.Now()
	for i, line := range tr.corpus.Lines {
		if i == tr.corpus.Warm {
			k.Flush()
			before = p.Stats()
		}
		k.Feed(workload.KeyOf(line), line)
	}
	k.Flush()
	res.wall = time.Since(start)
	res.stats = statsDelta(p.Stats(), before)
	tk.collect(res)
	res.reports = int(sink.n.Load())
	r.keep(tr, res)
	return res.wall
}

// replayResult is what the staged replay measured.
type replayResult struct {
	stage   map[string]time.Duration
	metrics map[string]float64
	// misses are the windows the pattern library could not answer; det
	// holds the event table grown to the workload's final size.
	misses [][]int
	det    *core.Detector
}

// replay pushes the corpus through the concrete layers one stage at a
// time: parse, interpret, embed/extend, library lookup, score the misses,
// build the reports, WAL append, WAL consume. Each stage is one span; a
// call of 10 µs or more gets a child span of its own and shorter calls
// share one child span per 256.
func (r *run) replay(rec *trace.Recorder, e env, tr *traffic) (*replayResult, error) {
	st := &replayResult{stage: make(map[string]time.Duration), metrics: make(map[string]float64)}
	lines := tr.corpus.Lines
	root := rec.Begin("replay", nil)
	defer root.End()
	stage := func(name string, fn func(sp *trace.Open)) {
		sp := rec.Begin("stage."+name, root)
		start := time.Now()
		fn(sp)
		st.stage[name] = time.Since(start)
		sp.End()
	}
	perCall := func(name string, parent *trace.Open, fn func()) {
		sp := rec.Begin(name, parent)
		fn()
		sp.End()
	}

	det := e.detector()
	st.det = det
	parser := seededParser(det)
	ids := make([]int, len(lines))
	var fresh []string // templates first seen in the stream, in discovery order
	stage("parse", func(sp *trace.Open) {
		ch := rec.Chunk("drain.parse", sp)
		known := parser.NumEvents()
		for i, line := range lines {
			t0 := time.Now()
			m := parser.Parse(line)
			ch.Add(t0, time.Since(t0))
			ids[i] = m.EventID
			if m.EventID >= known {
				fresh = append(fresh, m.Template)
				known++
			}
		}
		ch.Flush()
	})
	st.metrics["drain.parse_ns_per_line"] = float64(st.stage["parse"].Nanoseconds()) / float64(len(lines))
	st.metrics["drain.templates"] = float64(parser.NumEvents())

	interp := lei.NewSimLLM(lei.Config{})
	interps := make([]lei.Interpretation, len(fresh))
	stage("interpret", func(sp *trace.Open) {
		for i, tpl := range fresh {
			perCall("lei.interpret", sp, func() { interps[i] = interp.Interpret(targetHint, tpl) })
		}
	})
	st.metrics["lei.interpret_us_cold"] = float64(st.stage["interpret"].Microseconds()) / float64(max(len(fresh), 1))

	embedder := embed.New(e.table.Dim)
	stage("extend", func(sp *trace.Open) {
		for _, in := range interps {
			perCall("repr.extend", sp, func() { det.Table.Extend(in, embedder) })
		}
	})
	st.metrics["repr.extend_us_mean"] = float64(st.stage["extend"].Microseconds()) / float64(max(len(fresh), 1))
	st.metrics["repr.table_rows"] = float64(det.Table.Len())

	// Embed alone, cold then warm, on an embedder that has seen nothing:
	// every interpretation the workload ends up with, offline ones included.
	cold := embed.New(e.table.Dim)
	texts := make([]string, 0, det.Table.Len())
	seenText := make(map[string]bool)
	for _, in := range det.Table.Interps {
		if !seenText[in.Text] {
			seenText[in.Text] = true
			texts = append(texts, in.Text)
		}
	}
	start := time.Now()
	for _, t := range texts {
		cold.Embed(t)
	}
	st.metrics["embed.embed_us_cold"] = float64(time.Since(start).Microseconds()) / float64(max(len(texts), 1))
	start = time.Now()
	for _, t := range texts {
		cold.Embed(t)
	}
	st.metrics["embed.embed_ns_warm"] = float64(time.Since(start).Nanoseconds()) / float64(max(len(texts), 1))

	// Per-key sliding windows in completion order: the harness's own
	// bookkeeping standing in for pipeline.Keyed's, not a timed stage.
	cfg := window.Default()
	perKey := make(map[string][]int, tr.corpus.Keys)
	var windows [][]int
	for i, line := range lines {
		k := workload.KeyOf(line)
		perKey[k] = append(perKey[k], ids[i])
		if n := len(perKey[k]); n >= cfg.Length && (n-cfg.Length)%cfg.Step == 0 {
			windows = append(windows, append([]int(nil), perKey[k][n-cfg.Length:]...))
		}
	}

	lib := pipeline.NewPatternLibrary(0)
	patKey := make([]string, len(windows))
	var missKey []string
	var lookup, store time.Duration
	stage("lookup", func(sp *trace.Open) {
		look, put := rec.Chunk("pipeline.library_lookup", sp), rec.Chunk("pipeline.library_store", sp)
		for i, w := range windows {
			t0 := time.Now()
			_, hit, key := lib.LookupOrKey(w)
			d := time.Since(t0)
			look.Add(t0, d)
			lookup += d
			patKey[i] = key
			if !hit {
				t0 = time.Now()
				lib.StoreKey(key, 0)
				d = time.Since(t0)
				put.Add(t0, d)
				store += d
				st.misses = append(st.misses, w)
				missKey = append(missKey, key)
			}
		}
		look.Flush()
		put.Flush()
	})
	st.metrics["pipeline.library_lookup_ns"] = float64(lookup.Nanoseconds()) / float64(max(len(windows), 1))
	st.metrics["pipeline.library_store_ns"] = float64(store.Nanoseconds()) / float64(max(len(st.misses), 1))

	// Score the misses at the pipeline's own batch size.
	batch := 2 * tensor.Parallelism()
	scoreOf := make(map[string]float64, len(st.misses))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stage("score", func(sp *trace.Open) {
		for lo := 0; lo < len(st.misses); lo += batch {
			hi := min(lo+batch, len(st.misses))
			var scores []float64
			perCall("core.detector_score", sp, func() { scores = det.ScoreSequences(st.misses[lo:hi]) })
			for i, s := range scores {
				scoreOf[missKey[lo+i]] = s
			}
		}
	})
	runtime.ReadMemStats(&after)
	nMiss := float64(max(len(st.misses), 1))
	st.metrics["core.detector_score_us_per_window"] = float64(st.stage["score"].Microseconds()) / nMiss
	st.metrics["core.score_allocs_per_window"] = float64(after.Mallocs-before.Mallocs) / nMiss
	st.metrics["core.score_bytes_per_window"] = float64(after.TotalAlloc-before.TotalAlloc) / nMiss

	reports := 0
	stage("report", func(sp *trace.Open) {
		ch := rec.Chunk("core.report", sp)
		for i, w := range windows {
			if s := scoreOf[patKey[i]]; s > core.Threshold {
				t0 := time.Now()
				det.BuildReport(w, s)
				ch.Add(t0, time.Since(t0))
				reports++
			}
		}
		ch.Flush()
	})
	st.metrics["core.report_us"] = float64(st.stage["report"].Microseconds()) / float64(max(reports, 1))

	// The WAL alone: one standalone broker, the serving path's settings
	// and batch size.
	dir, err := os.MkdirTemp(r.opts.workdir, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	bk, err := broker.Open(broker.Config{Dir: dir, SegmentBytes: 8 << 20, Fsync: broker.FsyncInterval,
		FsyncEvery: 50 * time.Millisecond, MaxBacklogBytes: 256 << 20, FullPolicy: broker.FullReject, Metrics: reg})
	if err != nil {
		return nil, err
	}
	defer bk.Close()
	var appendErr error
	stage("append", func(sp *trace.Open) {
		for lo := 0; lo < len(lines) && appendErr == nil; lo += postLines {
			perCall("broker.append", sp, func() { _, _, appendErr = bk.AppendBatch(lines[lo:min(lo+postLines, len(lines))]) })
		}
	})
	if appendErr != nil {
		return nil, fmt.Errorf("standalone WAL append: %w", appendErr)
	}
	cons, err := bk.Consumer("replay")
	if err != nil {
		return nil, err
	}
	defer cons.Close()
	consumed := 0
	stage("consume", func(sp *trace.Open) {
		ch := rec.Chunk("broker.consume", sp)
		for range lines {
			t0 := time.Now()
			_, ok := cons.Next()
			ch.Add(t0, time.Since(t0))
			if ok {
				consumed++
			}
		}
		ch.Flush()
	})
	if consumed != len(lines) {
		return nil, fmt.Errorf("standalone WAL returned %d of %d lines: %v", consumed, len(lines), cons.Err())
	}
	snap := reg.Snapshot()
	st.metrics["broker.append_us_per_line"] = float64(st.stage["append"].Microseconds()) / float64(len(lines))
	st.metrics["broker.consume_ns_per_line"] = float64(st.stage["consume"].Nanoseconds()) / float64(len(lines))
	st.metrics["broker.bytes_per_line"] = float64(snap.Counters["broker.appended_bytes"]) / float64(len(lines))
	return st, nil
}

// kernels times the model and the tensor kernels at the model's own
// shapes: Model.Score on stacked [B,T,D] batches of the workload's miss
// windows, and MatMul, BMM and softmax at the sizes one window's forward
// pass runs them. flops_per_window is computed from the model's
// dimensions, not measured.
func (r *run) kernels(e env, st *replayResult) {
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	cfg := e.model.Cfg
	t, d := window.Default().Length, cfg.EmbedDim

	// Stack up to 64 windows (misses first; a workload that hits the
	// library almost always still has its warm-up misses).
	const most = 64
	x := tensor.New(most, t, d)
	for i := 0; i < most; i++ {
		w := st.misses[i%max(len(st.misses), 1)]
		for j, id := range w {
			copy(x.Data[(i*t+j)*d:(i*t+j+1)*d], st.det.Table.Vectors.Data[id*d:(id+1)*d])
		}
	}
	for _, b := range []int{1, 16, 64} {
		chunk := tensor.FromSlice(x.Data[:b*t*d], b, t, d)
		per, _ := timeOp(func() { e.model.Score(chunk, b) })
		set(fmt.Sprintf("core.model_score_us_per_window_b%d", b), per/1e3/float64(b))
	}

	m, ff, heads := cfg.ModelDim, cfg.FFDim, cfg.Heads
	a, w := tensor.New(t, d), tensor.New(d, m)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ns, n := timeOp(func() { tensor.MatMul(a, w) })
	runtime.ReadMemStats(&after)
	set("tensor.matmul_ns", ns)
	set("tensor.matmul_allocs", float64(after.Mallocs-before.Mallocs)/float64(n))
	q, kT := tensor.New(heads, t, m/heads), tensor.New(heads, m/heads, t)
	ns, _ = timeOp(func() { tensor.BMM(q, kT) })
	set("tensor.bmm_ns", ns)
	scores := tensor.New(heads, t, t)
	ns, _ = timeOp(func() { tensor.SoftmaxLastDim(scores) })
	set("tensor.softmax_ns", ns)

	fd := m
	if cfg.UseSUFE {
		fd = m / 2
	}
	layer := 4*2*t*m*m + 2*2*t*t*m + 2*2*t*m*ff // q,k,v,o projections; scores and context; feed-forward
	flops := 2*t*d*m + cfg.Depth*layer + 2*t*d*m + 2*t*2*m*m + 2*t*fd*fd + 2*t*fd
	set("tensor.flops_per_window", float64(flops))
}

// timeOp calls fn for about 50 ms and returns its mean nanoseconds per
// call and how many calls that was.
func timeOp(fn func()) (nsPerCall float64, calls int) {
	fn() // warm
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for i := 0; i < 16; i++ {
			fn()
		}
		calls += 16
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls), calls
}
