package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"logsynergy/internal/alertstore"
	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/fault"
	"logsynergy/internal/httpapi"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/shard"
)

// runServe is the observable deployment mode: it streams a log through
// the §VI pipeline exactly like `detect`, while exposing the obs metrics
// registry over HTTP for the lifetime of the run:
//
//	/metrics      plain-text counters, gauges and latency histograms
//	/debug/vars   the same registry as expvar JSON (plus Go runtime vars)
//	/debug/pprof  CPU/heap/goroutine profiling of the live pipeline
//	/ingest       durable log intake (broker mode, -broker-dir)
//
// Two source modes:
//
//   - Direct (default): the -log file (or stdin) replays through the
//     in-memory pipeline; -repeat 0 loops forever as a soak target.
//   - Broker (-broker-dir): lines land in the WAL-backed broker — over
//     POST /ingest and/or seeded from -log — and the pipeline tails a
//     consumer group, committing its offset as windows finish detection.
//     A restart resumes at the committed offset; acknowledged records
//     survive crashes.
//
// SIGINT/SIGTERM triggers a graceful shutdown: intake closes, the
// pipeline drains what the broker holds, spilled alerts get a redelivery
// attempt, consumer offsets commit, and a final metrics snapshot prints.
// A second signal kills the process immediately.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model bundle")
	logPath := fs.String("log", "", "log file to stream (default stdin; in broker mode an optional seed)")
	hint := fs.String("hint", "a software system", "LEI system hint for new templates")
	addr := fs.String("addr", "localhost:9090", "HTTP listen address for /metrics, /debug/vars, /debug/pprof")
	repeat := fs.Int("repeat", 1, "replay the log this many times (0 = loop forever)")
	bufSize := fs.Int("buffer", 1024, "collection buffer capacity")
	dropPolicy := fs.String("drop-policy", "block", "full-buffer policy: block | drop-newest")
	patternCap := fs.Int("pattern-cap", 0, "pattern library capacity, LRU-evicted (0 = unbounded)")
	linger := fs.Duration("linger", 0, "keep serving metrics this long after the stream ends")
	quiet := fs.Bool("quiet", false, "suppress per-anomaly report output")
	retries := fs.Int("retries", 0, "attempts per stage call before the failure is terminal (0 = default 3)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures that open a circuit breaker (0 = default 5)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before probing (0 = default 1s)")
	interpretTimeout := fs.Duration("interpret-timeout", 0, "per-call LEI timeout (0 = none)")
	sinkTimeout := fs.Duration("sink-timeout", 0, "per-delivery sink timeout (0 = none)")
	spillCap := fs.Int("spill-cap", 0, "in-memory spill queue capacity for undeliverable alerts (0 = default 1024)")
	spillPath := fs.String("spill", "", "alertstore file additionally receiving spilled alerts")
	noResilience := fs.Bool("no-resilience", false, "disable retries, breakers, timeouts and spill (ablation)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for the fault-injection registry")
	brokerDir := fs.String("broker-dir", "", "WAL directory; enables the durable broker and its POST /ingest intake")
	shards := fs.Int("shards", 1, "partition intake across N independent detection shards keyed by stream id (requires -broker-dir)")
	group := fs.String("group", "detector", "broker consumer group the pipeline reads as")
	fsyncPolicy := fs.String("fsync", "interval", "broker durability policy: always | interval | never")
	fsyncEvery := fs.Duration("fsync-every", 50*time.Millisecond, "background fsync cadence under -fsync interval")
	segmentBytes := fs.Int64("segment-bytes", 8<<20, "broker segment roll size in bytes")
	backlogBytes := fs.Int64("backlog-bytes", 256<<20, "broker backlog bound in bytes (<0 = unbounded)")
	backlogPolicy := fs.String("backlog-policy", "reject", "broker full-backlog policy: block | reject (reject answers 429)")
	maxBatchBytes := fs.Int64("max-batch-bytes", broker.DefaultMaxBatchBytes, "one /ingest request body limit in bytes")
	noRetention := fs.Bool("no-retention", false, "keep fully-consumed broker segments instead of deleting them")
	clusterPath := fs.String("cluster", "", "cluster assignment manifest; this process serves one fleet node (requires -node)")
	nodeName := fs.String("node", "", "this node's name in the -cluster manifest")
	manifestWatch := fs.Duration("manifest-watch", 2*time.Second, "cluster manifest poll cadence for adopting failover reassignments (0 disables)")
	var injectSpecs ruleList
	fs.Var(&injectSpecs, "inject", "fault-injection rule point[:key=val,...] (repeatable; see internal/fault.ParseRule)")
	fs.Parse(args)

	policy, err := parseDropPolicy(*dropPolicy)
	if err != nil {
		return err
	}

	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	det, err := core.LoadBundle(f)
	f.Close()
	if err != nil {
		return err
	}

	var lines []string
	if *logPath != "" {
		lines, err = readLines(*logPath)
		if err != nil {
			return err
		}
	} else if *brokerDir == "" && *clusterPath == "" {
		// Broker and cluster modes take traffic over /ingest, so an empty
		// -log is not an empty stream there — only direct mode falls back
		// to stdin.
		lines, err = readAllStdin()
		if err != nil {
			return err
		}
	}
	if *brokerDir == "" && *clusterPath == "" && len(lines) == 0 {
		return fmt.Errorf("serve: no log lines to stream")
	}

	interp := lei.NewSimLLM(lei.Config{})
	embedder := embed.New(det.Table.Dim)
	parser := drain.NewDefault()
	for _, in := range det.Table.Interps {
		parser.Parse(in.Template)
	}

	reg := obs.Default()

	// One fault registry serves both the broker's injection points
	// (broker.append/fsync/read) and the pipeline's.
	var faults *fault.Registry
	if len(injectSpecs.rules) > 0 {
		faults = fault.New(*faultSeed)
		faults.Enable(injectSpecs.rules...)
	}

	// buildPipelineCfg assembles the per-run pipeline config from the
	// flags; the returned cleanup closes the spill store (if any).
	buildPipelineCfg := func() (pipeline.Config, func(), error) {
		cfg := pipeline.DefaultConfig(*hint)
		cfg.BufferSize = *bufSize
		cfg.DropPolicy = policy
		cfg.PatternCap = *patternCap
		cfg.Metrics = reg
		cfg.Faults = faults
		cfg.Resilience = pipeline.ResilienceConfig{
			Disabled:         *noResilience,
			MaxAttempts:      *retries,
			InterpretTimeout: *interpretTimeout,
			SinkTimeout:      *sinkTimeout,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
			SpillCap:         *spillCap,
			Seed:             *faultSeed,
		}
		cleanup := func() {}
		if *spillPath != "" {
			store, err := alertstore.Open(*spillPath)
			if err != nil {
				return cfg, cleanup, fmt.Errorf("serve: opening spill store: %w", err)
			}
			cleanup = func() { store.Close() }
			cfg.SpillTo = alertstore.NewSink(store)
		}
		return cfg, cleanup, nil
	}

	if *clusterPath != "" {
		if *nodeName == "" {
			return fmt.Errorf("serve: -cluster requires -node <name> (this process's name in the manifest)")
		}
		if len(lines) > 0 {
			return fmt.Errorf("serve: -log seeding is not supported in cluster mode; POST the lines through the front router")
		}
		fp, err := broker.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		bp, err := broker.ParseFullPolicy(*backlogPolicy)
		if err != nil {
			return err
		}
		pcfg, cleanup, err := buildPipelineCfg()
		if err != nil {
			return err
		}
		defer cleanup()
		pcfg.Metrics = nil // each partition gets its own registry
		return runServeCluster(clusterServeOptions{
			manifestPath: *clusterPath,
			nodeName:     *nodeName,
			watchEvery:   *manifestWatch,
			runtime: shard.Config{
				// Shards, Vnodes and Subset come from the manifest; Dir falls
				// back to the manifest's shared-storage root when no
				// -broker-dir is given.
				Dir:   *brokerDir,
				Group: *group,
				Broker: broker.Config{
					SegmentBytes:     *segmentBytes,
					Fsync:            fp,
					FsyncEvery:       *fsyncEvery,
					MaxBacklogBytes:  *backlogBytes,
					FullPolicy:       bp,
					DisableRetention: *noRetention,
				},
				Pipeline:    pcfg,
				Detector:    det,
				Interp:      interp,
				Embedder:    embedder,
				Sink:        &printingSink{quiet: *quiet},
				Metrics:     reg,
				ShardFaults: func(int) *fault.Registry { return faults },
			},
			addr:          *addr,
			maxBatchBytes: *maxBatchBytes,
			linger:        *linger,
		})
	}

	if *shards > 1 {
		if *brokerDir == "" {
			return fmt.Errorf("serve: -shards %d requires -broker-dir (the shard runtime root)", *shards)
		}
		fp, err := broker.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		bp, err := broker.ParseFullPolicy(*backlogPolicy)
		if err != nil {
			return err
		}
		pcfg, cleanup, err := buildPipelineCfg()
		if err != nil {
			return err
		}
		defer cleanup()
		pcfg.Metrics = nil // each partition gets its own registry
		return runServeSharded(shardServeOptions{
			runtime: shard.Config{
				Shards: *shards,
				Dir:    *brokerDir,
				Group:  *group,
				Broker: broker.Config{
					SegmentBytes:     *segmentBytes,
					Fsync:            fp,
					FsyncEvery:       *fsyncEvery,
					MaxBacklogBytes:  *backlogBytes,
					FullPolicy:       bp,
					DisableRetention: *noRetention,
				},
				Pipeline: pcfg,
				Detector: det,
				Interp:   interp,
				Embedder: embedder,
				Sink:     &printingSink{quiet: *quiet},
				Metrics:  reg,
				// The -inject registry applies fleet-wide in CLI mode (chaos
				// tests scope registries per shard programmatically).
				ShardFaults: func(int) *fault.Registry { return faults },
			},
			seedLines:     lines,
			logPath:       *logPath,
			addr:          *addr,
			maxBatchBytes: *maxBatchBytes,
			linger:        *linger,
			group:         *group,
		})
	}

	var bk *broker.Broker
	var cons *broker.Consumer
	if *brokerDir != "" {
		fp, err := broker.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		bp, err := broker.ParseFullPolicy(*backlogPolicy)
		if err != nil {
			return err
		}
		bk, err = broker.Open(broker.Config{
			Dir:              *brokerDir,
			SegmentBytes:     *segmentBytes,
			Fsync:            fp,
			FsyncEvery:       *fsyncEvery,
			MaxBacklogBytes:  *backlogBytes,
			FullPolicy:       bp,
			DisableRetention: *noRetention,
			Metrics:          reg,
			Faults:           faults,
		})
		if err != nil {
			return err
		}
		defer bk.Close()
		if len(lines) > 0 {
			first, last, err := bk.AppendBatch(lines)
			if err != nil {
				return fmt.Errorf("serve: seeding broker from -log: %w", err)
			}
			fmt.Printf("broker: seeded offsets %d..%d from %s\n", first, last, *logPath)
		}
		cons, err = bk.Consumer(*group)
		if err != nil {
			return err
		}
		defer cons.Close()
		fmt.Printf("broker: %s resuming group %q at offset %d (fsync=%s, backlog=%s)\n",
			*brokerDir, *group, cons.Position(), fp, bp)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: newServeMux(reg, bk, *maxBatchBytes)}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("serving metrics on http://%s/metrics (pprof on /debug/pprof/)\n", ln.Addr())
	if bk != nil {
		fmt.Printf("ingesting on http://%s/ingest (newline-delimited POST batches)\n", ln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg, cleanup, err := buildPipelineCfg()
	if err != nil {
		return err
	}
	defer cleanup()
	p := pipeline.New(cfg, parser, det, interp, embedder, &printingSink{quiet: *quiet})

	var stats pipeline.Stats
	if bk != nil {
		// The consumer must drain everything already acknowledged before
		// the run ends, so the pipeline runs on an uncancelled context;
		// the signal instead closes the intake, which ends the stream once
		// the backlog is detected. stop() re-arms default signal handling,
		// so a second signal kills immediately.
		go func() {
			<-ctx.Done()
			stop()
			fmt.Println("\nshutting down: intake closed, draining broker backlog (signal again to kill)")
			bk.CloseIntake()
		}()
		stats = p.Run(context.Background(), cons)
		if err := cons.Err(); err != nil {
			fmt.Printf("broker consumer stopped early: %v\n", err)
		}
	} else {
		stats = p.Run(ctx, newRepeatSource(lines, *repeat))
	}
	fmt.Printf("lines=%d dropped=%d sequences=%d anomalies=%d pattern-hits=%d evictions=%d new-events=%d\n",
		stats.LinesCollected, stats.LinesDropped, stats.SequencesFormed,
		stats.Anomalies, stats.PatternHits, stats.PatternEvictions, stats.NewEvents)
	if stats.Retries+stats.Degraded+stats.Spilled+stats.BreakerOpens+stats.ParseFailures+stats.DetectFailures > 0 {
		fmt.Printf("faults: retries=%d degraded=%d spilled=%d spill-dropped=%d breaker-opens=%d sink-errors=%d parse-failures=%d detect-failures=%d\n",
			stats.Retries, stats.Degraded, stats.Spilled, stats.SpillDropped,
			stats.BreakerOpens, stats.SinkErrors, stats.ParseFailures, stats.DetectFailures)
	}
	if n := p.SpillLen(); n > 0 {
		// Sinks may have recovered since the spill; one redelivery pass
		// before the process exits.
		delivered, remaining := p.FlushSpill()
		fmt.Printf("spill flush: %d alerts redelivered, %d undeliverable\n", delivered, remaining)
	}
	if cons != nil {
		if err := cons.Commit(); err != nil {
			fmt.Printf("broker: final offset commit failed: %v\n", err)
		}
		fmt.Printf("broker: group %q committed through offset %d (lag %d)\n",
			*group, bk.Committed(*group), bk.Lag(*group))
		cons.Close()
	}
	if bk != nil {
		if err := bk.Close(); err != nil {
			fmt.Printf("broker: close: %v\n", err)
		}
	}
	fmt.Println("final metrics snapshot:")
	reg.WriteText(os.Stdout)

	if *linger > 0 {
		fmt.Printf("stream ended; serving metrics for %s more\n", *linger)
		select {
		case <-ctx.Done():
		case <-time.After(*linger):
		}
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shCtx)
}

// newServeMux wires the serve HTTP surface: the observability pages
// plus, when a broker is attached, the durable /ingest intake.
func newServeMux(reg *obs.Registry, bk *broker.Broker, maxBatchBytes int64) *http.ServeMux {
	mux := newObsMux(reg)
	if bk != nil {
		mux.Handle("/ingest", bk.IngestHandler(maxBatchBytes))
	}
	return mux
}

// shardServeOptions carries the flag-derived settings into the sharded
// serve loop.
type shardServeOptions struct {
	runtime       shard.Config
	seedLines     []string
	logPath       string
	addr          string
	maxBatchBytes int64
	linger        time.Duration
	group         string
}

// runServeSharded is serve's scale-out mode: one WAL-backed detection
// pipeline per shard under a consistent-hash router, the sharded /ingest
// intake, and a /metrics page merging the fleet (totals plus per-shard
// shard<i>.-prefixed series). Shutdown mirrors single-broker mode:
// intake closes, every shard drains its backlog and commits its own
// offset, then a final merged snapshot prints.
func runServeSharded(opts shardServeOptions) error {
	rt, err := shard.Open(opts.runtime)
	if err != nil {
		return err
	}
	fmt.Printf("shard runtime: %d partitions under %s (group %q)\n", rt.Shards(), opts.runtime.Dir, opts.group)

	if len(opts.seedLines) > 0 {
		results, err := rt.AppendBatch(opts.seedLines)
		if err != nil {
			rt.Close()
			return fmt.Errorf("serve: seeding shards from -log: %w", err)
		}
		for _, res := range results {
			fmt.Printf("shard %d: seeded %d lines from %s\n", res.Partition, res.Acked, opts.logPath)
		}
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		rt.Close()
		return err
	}
	srv := &http.Server{Handler: newShardServeMux(rt, opts.maxBatchBytes)}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("serving merged metrics on http://%s/metrics (pprof on /debug/pprof/)\n", ln.Addr())
	fmt.Printf("ingesting on http://%s/ingest (lines route to shards by stream key)\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Println("\nshutting down: intake closed, draining every shard (signal again to kill)")
	closeErr := rt.Close() // waits for every worker; each commits its own offset

	stats := rt.Stats()
	fmt.Printf("fleet: lines=%d dropped=%d sequences=%d anomalies=%d pattern-hits=%d evictions=%d new-events=%d\n",
		stats.LinesCollected, stats.LinesDropped, stats.SequencesFormed,
		stats.Anomalies, stats.PatternHits, stats.PatternEvictions, stats.NewEvents)
	for i := 0; i < rt.Shards(); i++ {
		s := rt.ShardStats(i)
		fmt.Printf("shard %d: lines=%d sequences=%d anomalies=%d new-events=%d committed=%d\n",
			i, s.LinesCollected, s.SequencesFormed, s.Anomalies, s.NewEvents, rt.Committed(i))
	}
	hits, misses, waits := rt.Cache().Stats()
	fmt.Printf("interp cache: %d entries, %d hits, %d misses, %d waits\n", rt.Cache().Size(), hits, misses, waits)
	if closeErr != nil {
		fmt.Printf("shard runtime close: %v\n", closeErr)
	}
	fmt.Println("final metrics snapshot:")
	rt.Snapshot().WriteText(os.Stdout)

	if opts.linger > 0 {
		fmt.Printf("stream ended; serving metrics for %s more\n", opts.linger)
		time.Sleep(opts.linger)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shCtx)
}

// serveStatus is the GET /admin/v1/status body of single-process serve
// mode — the same shape family as the fleet node's and router's status
// answers, so `logsynergy rebalance` polls any of them alike.
type serveStatus struct {
	Role    string               `json:"role"`
	Shards  int                  `json:"shards"`
	Owned   []int                `json:"owned"`
	Cutover *shard.CutoverStatus `json:"cutover,omitempty"`
	Build   httpapi.BuildInfo    `json:"build"`
}

// newShardServeMux wires the sharded serve surface on the shared admin
// mux (httpapi.Mux mounts /metrics, /metrics.json, /debug/vars and the
// pprof pages): /ingest routes to shards, /admin/v1/rebalance moves the
// fleet to N partitions in place (POST, to=N), and /admin/v1/status reports the live-cutover
// phase for progress polling.
func newShardServeMux(rt *shard.Runtime, maxBatchBytes int64) *http.ServeMux {
	mux := httpapi.Mux(httpapi.MuxOptions{Snapshot: rt.Snapshot})
	mux.Handle("/ingest", rt.IngestHandler(maxBatchBytes))
	mux.HandleFunc(httpapi.Prefix+"/rebalance", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpapi.MethodNotAllowed(w, http.MethodPost, "rebalance accepts POST only")
			return
		}
		raw := r.FormValue("to") // query or form body, one explicit rule
		to, err := strconv.Atoi(raw)
		if err != nil || to <= 0 {
			httpapi.Error(w, http.StatusBadRequest, httpapi.Detail{
				Code:    httpapi.CodeBadRequest,
				Message: fmt.Sprintf("rebalance needs a positive partition count: to=%q is not one", raw),
			})
			return
		}
		// Blocks until the cutover completes: intake keeps flowing the
		// whole time, so a long-poll here is the honest contract — the 200
		// means the fleet IS serving the new layout.
		rep, err := rt.LiveRebalance(to)
		if err != nil {
			httpapi.Error(w, http.StatusConflict, httpapi.Detail{Code: httpapi.CodeConflict, Message: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc(httpapi.Prefix+"/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpapi.MethodNotAllowed(w, http.MethodGet, "status accepts GET only")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serveStatus{
			Role:    "serve",
			Shards:  rt.Shards(),
			Owned:   rt.Owned(),
			Cutover: rt.CutoverStatus(),
			Build:   httpapi.Build(),
		})
	})
	return mux
}

// ruleList collects repeatable -inject flags as parsed fault rules.
type ruleList struct {
	specs []string
	rules []fault.Rule
}

func (l *ruleList) String() string { return strings.Join(l.specs, ";") }

func (l *ruleList) Set(spec string) error {
	rule, err := fault.ParseRule(spec)
	if err != nil {
		return err
	}
	l.specs = append(l.specs, spec)
	l.rules = append(l.rules, rule)
	return nil
}

// parseDropPolicy maps the -drop-policy flag to a pipeline.DropPolicy.
func parseDropPolicy(s string) (pipeline.DropPolicy, error) {
	switch s {
	case "block", "":
		return pipeline.DropBlock, nil
	case "drop-newest":
		return pipeline.DropNewest, nil
	default:
		return 0, fmt.Errorf("unknown drop policy %q (want block or drop-newest)", s)
	}
}

// newObsMux mounts the observability surface — the shared admin mux
// with the registry's snapshot behind /metrics, /metrics.json,
// /debug/vars and the pprof pages.
func newObsMux(reg *obs.Registry) *http.ServeMux {
	return httpapi.Mux(httpapi.MuxOptions{Snapshot: reg.Snapshot})
}

// repeatSource replays a fixed slice of lines a number of times.
type repeatSource struct {
	lines     []string
	pos       int
	remaining int // passes left after the current one; -1 = forever
}

// newRepeatSource builds a source that replays lines `times` times
// (times <= 0 means loop forever).
func newRepeatSource(lines []string, times int) *repeatSource {
	if times <= 0 {
		return &repeatSource{lines: lines, remaining: -1}
	}
	return &repeatSource{lines: lines, remaining: times - 1}
}

// Next implements pipeline.Source.
func (r *repeatSource) Next() (string, bool) {
	if len(r.lines) == 0 {
		return "", false
	}
	if r.pos >= len(r.lines) {
		if r.remaining == 0 {
			return "", false
		}
		if r.remaining > 0 {
			r.remaining--
		}
		r.pos = 0
	}
	l := r.lines[r.pos]
	r.pos++
	return l, true
}
