package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"logsynergy/internal/cluster"
	"logsynergy/internal/fault"
	"logsynergy/internal/shard"
)

// clusterServeOptions carries the flag-derived settings into the cluster
// node serve loop.
type clusterServeOptions struct {
	manifestPath  string
	nodeName      string
	watchEvery    time.Duration
	runtime       shard.Config
	addr          string
	maxBatchBytes int64
	linger        time.Duration
}

// runServeCluster is serve's fleet mode: this process is one node of a
// cross-process shard fleet. The manifest at -cluster says which
// partitions this node owns; only their WAL directories are opened, and
// the node serves /ingest, /healthz, /metrics, /metrics.json and
// /admin/v1/refresh for the front router. With -manifest-watch the node
// also polls the manifest, adopting partitions a newer epoch assigns to
// it (the failover path, if the router's /admin/v1/refresh poke was lost)
// and dropping ones assigned elsewhere (the self-fence for a node that
// was deposed while wedged).
func runServeCluster(opts clusterServeOptions) error {
	n, err := cluster.StartNode(cluster.NodeConfig{
		ManifestPath:  opts.manifestPath,
		Name:          opts.nodeName,
		Runtime:       opts.runtime,
		MaxBatchBytes: opts.maxBatchBytes,
	})
	if err != nil {
		return err
	}
	owned := n.Runtime().Owned()
	fmt.Printf("cluster node %q: epoch %d, serving %d/%d partitions %v\n",
		n.Name(), n.Epoch(), len(owned), n.Manifest().Shards, owned)

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		n.Close()
		return err
	}
	srv := &http.Server{Handler: n.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("node surface on http://%s (/ingest /healthz /metrics /metrics.json /admin/v1/*)\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if opts.watchEvery > 0 {
		go func() {
			t := time.NewTicker(opts.watchEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					rep, err := n.Refresh()
					if err != nil {
						fmt.Printf("cluster: manifest refresh: %v\n", err)
					} else if len(rep.Adopted) > 0 || len(rep.Dropped) > 0 {
						fmt.Printf("cluster: epoch %d adopted partitions %v, dropped %v\n", rep.Epoch, rep.Adopted, rep.Dropped)
					}
				}
			}
		}()
	}

	<-ctx.Done()
	stop()
	fmt.Println("\nshutting down: intake closed, draining owned partitions (signal again to kill)")
	closeErr := n.Close()

	rt := n.Runtime()
	stats := rt.Stats()
	fmt.Printf("node %q: lines=%d sequences=%d anomalies=%d new-events=%d\n",
		n.Name(), stats.LinesCollected, stats.SequencesFormed, stats.Anomalies, stats.NewEvents)
	for _, i := range rt.Owned() {
		s := rt.ShardStats(i)
		fmt.Printf("partition %d: lines=%d sequences=%d anomalies=%d committed=%d\n",
			i, s.LinesCollected, s.SequencesFormed, s.Anomalies, rt.Committed(i))
	}
	if closeErr != nil {
		fmt.Printf("cluster node close: %v\n", closeErr)
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

// runRoute is the front router process: the fleet's single intake
// address. It consistent-hash routes POST /ingest batches to the owning
// nodes, probes /healthz on a cadence, and (with -failover) reassigns a
// dead node's partitions to a standby via an epoch-bumped manifest.
func runRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	manifestPath := fs.String("cluster", "cluster.json", "cluster assignment manifest")
	addr := fs.String("addr", "localhost:9095", "HTTP listen address for /ingest, /healthz, /metrics")
	probeEvery := fs.Duration("probe-every", time.Second, "node /healthz probe + manifest reload cadence (0 disables both)")
	failAfter := fs.Int("fail-after", 3, "consecutive probe/ingest failures that mark a node dead")
	failover := fs.Bool("failover", false, "on node death, reassign its partitions to a standby (requires shared storage)")
	maxInFlight := fs.Int("max-inflight", 64, "bound on concurrent node requests (router backpressure)")
	maxBatchBytes := fs.Int64("max-batch-bytes", 0, "one /ingest request body limit in bytes (0 = broker default)")
	attempts := fs.Int("attempts", 3, "delivery attempts per node share before its lines are rejected")
	requestTimeout := fs.Duration("request-timeout", 10*time.Second, "one node /ingest round-trip bound")
	probeTimeout := fs.Duration("probe-timeout", 2*time.Second, "one node /healthz or /metrics.json round-trip bound")
	seed := fs.Int64("seed", 1, "retry-jitter seed")
	linger := fs.Duration("linger", 0, "keep serving after shutdown signal this long")
	fs.Parse(args)

	r, err := cluster.NewRouter(cluster.RouterConfig{
		ManifestPath:   *manifestPath,
		MaxBatchBytes:  *maxBatchBytes,
		MaxInFlight:    *maxInFlight,
		Attempts:       *attempts,
		Backoff:        fault.Backoff{Seed: *seed, Jitter: 0.5},
		FailAfter:      *failAfter,
		Failover:       *failover,
		RequestTimeout: *requestTimeout,
		ProbeTimeout:   *probeTimeout,
	})
	if err != nil {
		return err
	}
	defer r.Close()
	m := r.Manifest()
	fmt.Printf("router: epoch %d, %d partitions across %d nodes (failover=%v)\n",
		m.Epoch, m.Shards, len(m.Nodes), *failover)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: r.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("routing intake on http://%s/ingest (federated metrics on /metrics, admin on /admin/v1/*)\n", ln.Addr())

	if *probeEvery > 0 {
		r.StartProbing(*probeEvery)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Println("\nrouter shutting down")
	if *linger > 0 {
		time.Sleep(*linger)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shCtx)
}
