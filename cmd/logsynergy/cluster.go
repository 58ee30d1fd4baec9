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
)

// watchManifest is a fleet node's manifest poll: on the cadence, adopt the
// partitions a newer epoch assigns to this node (the failover path, if the
// router's /admin/v1/refresh poke was lost) and drop the ones assigned
// elsewhere (the self-fence for a node that was deposed while wedged).
func watchManifest(ctx context.Context, n *cluster.Node, every time.Duration) {
	t := time.NewTicker(every)
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
	maxBatchBytes := fs.Int64("max-batch-bytes", 0, "one /ingest request body limit in bytes (0 = default 4 MiB)")
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
	return lingerShutdown(srv, *linger)
}
