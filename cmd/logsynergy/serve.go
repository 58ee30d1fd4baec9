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
	"sort"
	"strings"
	"syscall"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/cluster"
	"logsynergy/internal/core"
	"logsynergy/internal/embed"
	"logsynergy/internal/fault"
	"logsynergy/internal/httpapi"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/shard"
)

// runServe is the long-running deployment mode. Everything it serves
// hangs off one HTTP surface (-addr):
//
//	/ingest        durable log intake, newline-delimited POST batches
//	/admin/v1/*    status, live rebalance (a fleet node: the cutover API)
//	/metrics       plain-text counters, gauges and latency histograms
//	/debug/vars    the same registry as expvar JSON (plus Go runtime vars)
//	/debug/pprof   CPU/heap/goroutine profiling of the live process
//
// serve IS a shard.Runtime over a WAL (-broker-dir, or -cluster for one
// node of a fleet), at -shards 1 by default: /ingest routes each line by
// its stream key (first token) to DIR/p<i>'s write-ahead log, a worker
// per partition feeds per-key sliding windows, and each commit is one
// append to the partition's commit log; a restart loads the partition's
// snapshot and replays the WAL to its newest commit, so it resumes every
// key's window phase exactly and never re-raises a committed alert. The
// flags build one shard.Config; `logsynergy rebalance -addr … -to M`
// regrows it in place from any count, 1 included. Without a WAL there is
// nothing to serve: an in-memory replay of a log file is `detect -log F`.
//
// Alerts commit into DIR/p<i>/commits and reach stdout from there; a
// failing channel lags and is retried, never skipped.
//
// SIGINT/SIGTERM is a graceful shutdown: intake closes, every partition
// drains, commits and delivers, and a final metrics snapshot prints. What
// a failing channel still refuses after one retry round stays in the
// commit logs for the next start; a channel that hangs holds the shutdown
// until it returns. A second signal kills the process immediately.
func runServe(args []string) error {
	f := parseServeFlags(args)
	if err := f.validate(); err != nil {
		return err
	}
	det, err := loadModel(*f.modelPath)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // default signal handling again: the second signal kills

	var seed []string
	if *f.logPath != "" {
		if seed, err = readLines(*f.logPath); err != nil {
			return err
		}
	}
	cfg, err := f.shardConfig(det, obs.Default())
	if err != nil {
		return err
	}

	var (
		rt      *shard.Runtime
		handler http.Handler
		closeRt func() error
	)
	if *f.clusterPath != "" {
		n, err := cluster.StartNode(cluster.NodeConfig{
			ManifestPath:  *f.clusterPath,
			Name:          *f.nodeName,
			Runtime:       cfg, // Shards, Vnodes and Subset come from the manifest
			MaxBatchBytes: *f.maxBatchBytes,
		})
		if err != nil {
			return err
		}
		rt, handler, closeRt = n.Runtime(), n.Handler(), n.Close
		fmt.Printf("cluster node %q: epoch %d, serving partitions %v of %d\n", n.Name(), n.Epoch(), rt.Owned(), n.Manifest().Shards)
		if *f.manifestWatch > 0 {
			go watchManifest(ctx, n, *f.manifestWatch)
		}
	} else {
		if rt, err = shard.Open(cfg); err != nil {
			return err
		}
		handler, closeRt = newShardServeMux(rt, *f.maxBatchBytes), rt.Close
		fmt.Printf("shard runtime: %d partitions under %s\n", rt.Shards(), cfg.Dir)
	}
	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		closeRt()
		return err
	}
	return serveLoop(ctx, ln, rt, handler, closeRt, seed, *f.linger)
}

// serveLoop is the one life cycle of a WAL-backed serve, single process
// or fleet node alike: serve handler on ln, seed the runtime from -log,
// wait for ctx to end, close (drain, commit, deliver), report, linger,
// shut the listener down. closeRt is rt.Close, or whatever must wrap it
// (a node releases its leases after).
func serveLoop(ctx context.Context, ln net.Listener, rt *shard.Runtime, handler http.Handler, closeRt func() error, seed []string, linger time.Duration) error {
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("serving on http://%s: /ingest (lines route to partitions by stream key), /metrics, /admin/v1/*, /debug/pprof/\n", ln.Addr())

	if len(seed) > 0 {
		seeded, err := rt.AppendBatch(seed)
		if err != nil {
			closeRt()
			return fmt.Errorf("serve: seeding from -log: %w", err)
		}
		for _, res := range seeded.Partitions {
			fmt.Printf("partition %d: seeded %d lines from -log\n", res.Partition, res.Acked)
		}
	}

	<-ctx.Done()
	fmt.Println("\nshutting down: intake closed, draining every partition (signal again to kill)")
	closeErr := closeRt() // waits for every worker; each commits its own offset

	s := rt.Stats()
	fmt.Printf("fleet: lines=%d sequences=%d anomalies=%d pattern-hits=%d evictions=%d new-events=%d\n",
		s.LinesCollected, s.SequencesFormed, s.Anomalies, s.PatternHits, s.PatternEvictions, s.NewEvents)
	snap := rt.Snapshot()
	sinkErrs := snap.Counters["shard.sink_errors_total"]
	if int64(s.Retries+s.Degraded+s.BreakerOpens+s.ParseFailures+s.DetectFailures)+sinkErrs > 0 {
		fmt.Printf("faults: retries=%d degraded=%d breaker-opens=%d sink-errors=%d parse-failures=%d detect-failures=%d\n",
			s.Retries, s.Degraded, s.BreakerOpens, sinkErrs, s.ParseFailures, s.DetectFailures)
	}
	for _, i := range rt.Owned() {
		s := rt.ShardStats(i)
		fmt.Printf("partition %d: lines=%d sequences=%d anomalies=%d new-events=%d committed=%d\n",
			i, s.LinesCollected, s.SequencesFormed, s.Anomalies, s.NewEvents, rt.Committed(i))
	}
	undelivered := rt.UndeliveredAlerts()
	logs := make([]string, 0, len(undelivered))
	for dir := range undelivered {
		logs = append(logs, dir)
	}
	sort.Strings(logs)
	for _, dir := range logs {
		fmt.Printf("alerts undelivered: %d (kept in %s)\n", undelivered[dir], dir)
	}
	hits, misses, waits := rt.Cache().Stats()
	fmt.Printf("interp cache: %d entries, %d hits, %d misses, %d waits\n", rt.Cache().Size(), hits, misses, waits)
	if closeErr != nil {
		fmt.Printf("runtime close: %v\n", closeErr)
	}
	fmt.Println("final metrics snapshot:")
	snap.WriteText(os.Stdout)
	return lingerShutdown(srv, linger)
}

// lingerShutdown keeps srv answering for linger, then shuts it down.
func lingerShutdown(srv *http.Server, linger time.Duration) error {
	if linger > 0 {
		fmt.Printf("lingering %s before closing the HTTP surface\n", linger)
		time.Sleep(linger)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shCtx)
}

// serveFlags is serve's parsed flag set.
type serveFlags struct {
	fs *flag.FlagSet

	modelPath, logPath, hint, addr                       *string
	brokerDir, fsyncPolicy, backlogPolicy                *string
	clusterPath, nodeName                                *string
	patternCap, retries, breakerThreshold, shards        *int
	linger, breakerCooldown, interpretTimeout            *time.Duration
	fsyncEvery, manifestWatch                            *time.Duration
	quiet, noRetention                                   *bool
	faultSeed, segmentBytes, backlogBytes, maxBatchBytes *int64
	inject                                               ruleList
}

// parseServeFlags declares serve's flags and parses args (exiting on a
// malformed one, like every subcommand).
func parseServeFlags(args []string) *serveFlags {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	f := &serveFlags{fs: fs}
	f.modelPath = fs.String("model", "model.json", "trained model bundle")
	f.logPath = fs.String("log", "", "optional seed: log file appended through the router at startup")
	f.hint = fs.String("hint", "a software system", "LEI system hint for new templates")
	f.addr = fs.String("addr", "localhost:9090", "HTTP listen address for /ingest, /metrics, /admin/v1, /debug/vars, /debug/pprof")
	f.patternCap = fs.Int("pattern-cap", 0, "pattern library capacity, LRU-evicted (0 = unbounded)")
	f.linger = fs.Duration("linger", 0, "keep serving metrics this long after shutdown drains")
	f.quiet = fs.Bool("quiet", false, "suppress per-anomaly report output")
	f.retries = fs.Int("retries", 0, "attempts per stage call before the failure is terminal (0 = default 3)")
	f.breakerThreshold = fs.Int("breaker-threshold", 0, "consecutive failures that open a circuit breaker (0 = default 5)")
	f.breakerCooldown = fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before probing (0 = default 1s)")
	f.interpretTimeout = fs.Duration("interpret-timeout", 0, "per-call LEI timeout (0 = none)")
	f.faultSeed = fs.Int64("fault-seed", 1, "seed for the fault-injection registry")
	f.brokerDir = fs.String("broker-dir", "", "runtime root: partition i's WAL lives in DIR/p<i>; enables POST /ingest")
	f.shards = fs.Int("shards", 1, "partition count: lines route to N independent detection shards by stream key (requires -broker-dir)")
	f.fsyncPolicy = fs.String("fsync", "interval", "broker durability policy: always | interval | never")
	f.fsyncEvery = fs.Duration("fsync-every", 50*time.Millisecond, "background fsync cadence under -fsync interval")
	f.segmentBytes = fs.Int64("segment-bytes", 8<<20, "broker segment roll size in bytes")
	f.backlogBytes = fs.Int64("backlog-bytes", 256<<20, "per-partition backlog bound in bytes (<0 = unbounded)")
	f.backlogPolicy = fs.String("backlog-policy", "reject", "full-backlog policy: block | reject (reject answers 429)")
	f.maxBatchBytes = fs.Int64("max-batch-bytes", httpapi.DefaultMaxBatchBytes, "one /ingest request body limit in bytes")
	f.noRetention = fs.Bool("no-retention", false, "keep fully-consumed broker segments instead of deleting them")
	f.clusterPath = fs.String("cluster", "", "cluster assignment manifest; this process serves one fleet node (requires -node)")
	f.nodeName = fs.String("node", "", "this node's name in the -cluster manifest")
	f.manifestWatch = fs.Duration("manifest-watch", 2*time.Second, "cluster manifest poll cadence for adopting failover reassignments (0 disables)")
	fs.Var(&f.inject, "inject", "fault-injection rule point[:key=val,...] (repeatable; see internal/fault.ParseRule)")
	fs.Parse(args)
	return f
}

// validate refuses a serve without a WAL and the flag combinations that
// would otherwise be silently reinterpreted.
func (f *serveFlags) validate() error {
	shardsSet := false
	f.fs.Visit(func(fl *flag.Flag) { shardsSet = shardsSet || fl.Name == "shards" })
	switch {
	case *f.shards < 1:
		return fmt.Errorf("serve: -shards %d is not a partition count; the smallest runtime has 1", *f.shards)
	case *f.brokerDir == "" && *f.clusterPath == "":
		return fmt.Errorf("serve: requires -broker-dir DIR (live serving over a WAL) or -cluster FILE -node NAME; for an in-memory replay of a log file run `logsynergy detect -log F`")
	case *f.clusterPath != "" && shardsSet:
		return fmt.Errorf("serve: -shards does not apply with -cluster; the manifest owns the partition count")
	case *f.clusterPath != "" && *f.nodeName == "":
		return fmt.Errorf("serve: -cluster requires -node <name> (this process's name in the manifest)")
	case *f.clusterPath != "" && *f.logPath != "":
		return fmt.Errorf("serve: -log seeding is not supported in cluster mode; POST the lines through the front router")
	}
	return nil
}

// shardConfig is the one place serve turns flags into a shard.Config —
// the single process opens it as is, a fleet node hands it to
// cluster.StartNode as the template the manifest completes.
func (f *serveFlags) shardConfig(det *core.Detector, reg *obs.Registry) (shard.Config, error) {
	fp, err := broker.ParseFsyncPolicy(*f.fsyncPolicy)
	if err != nil {
		return shard.Config{}, err
	}
	bp, err := broker.ParseFullPolicy(*f.backlogPolicy)
	if err != nil {
		return shard.Config{}, err
	}
	// The -inject registry (nil when nothing is injected) serves every
	// partition's broker and pipeline (chaos tests scope registries per
	// shard programmatically). Metrics stay nil: each partition gets its own.
	var faults *fault.Registry
	if len(f.inject.rules) > 0 {
		faults = fault.New(*f.faultSeed)
		faults.Enable(f.inject.rules...)
	}
	pcfg := pipeline.DefaultConfig(*f.hint)
	pcfg.PatternCap = *f.patternCap
	pcfg.Faults = faults
	pcfg.Resilience = pipeline.ResilienceConfig{
		MaxAttempts:      *f.retries,
		InterpretTimeout: *f.interpretTimeout,
		BreakerThreshold: *f.breakerThreshold,
		BreakerCooldown:  *f.breakerCooldown,
		Seed:             *f.faultSeed,
	}
	return shard.Config{
		Shards: *f.shards,
		Dir:    *f.brokerDir, // a node falls back to the manifest's shared-storage root
		Broker: broker.Config{
			SegmentBytes:     *f.segmentBytes,
			Fsync:            fp,
			FsyncEvery:       *f.fsyncEvery,
			MaxBacklogBytes:  *f.backlogBytes,
			FullPolicy:       bp,
			DisableRetention: *f.noRetention,
		},
		Pipeline:    pcfg,
		Detector:    det,
		Interp:      lei.NewSimLLM(lei.Config{}),
		Embedder:    embed.New(det.Table.Dim),
		Sink:        &printingSink{quiet: *f.quiet},
		Metrics:     reg,
		ShardFaults: func(int) *fault.Registry { return faults },
	}, nil
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

// newShardServeMux wires the single-process serve surface on the shared
// admin mux (httpapi.Mux mounts /metrics, /metrics.json, /debug/vars and
// the pprof pages): /ingest routes to partitions, /admin/v1/rebalance
// moves the runtime to N partitions in place (POST, to=N), and
// /admin/v1/status reports the live-cutover phase for progress polling.
func newShardServeMux(rt *shard.Runtime, maxBatchBytes int64) *http.ServeMux {
	mux := httpapi.Mux(httpapi.MuxOptions{Snapshot: rt.Snapshot})
	mux.Handle("/ingest", rt.IngestHandler(maxBatchBytes))
	mux.Handle(httpapi.Prefix+"/rebalance", httpapi.RebalanceHandler(func(to int, _ string) (any, error) {
		return rt.LiveRebalance(to)
	}))
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
