package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/httpapi"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/shard"
)

// The command's preconditions: an -addr to talk to, a positive target —
// and, at runtime, a fleet that is actually serving at that address.
func TestRunRebalanceLiveFlagValidation(t *testing.T) {
	if err := runRebalance([]string{"-to", "3"}); err == nil {
		t.Fatal("rebalance without -addr accepted")
	} else if !strings.Contains(err.Error(), "-addr") {
		t.Fatalf("rebalance without -addr: error %q does not point at -addr", err)
	}
	if err := runRebalance([]string{"-addr", "127.0.0.1:1"}); err == nil {
		t.Fatal("rebalance without -to accepted")
	}

	// A syntactically valid -addr with no serving fleet behind it must
	// fail with a reachability error, not hang: grab a free port and
	// close it again so the connection is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	vacant := ln.Addr().String()
	ln.Close()
	if err := runRebalance([]string{"-addr", vacant, "-to", "3", "-timeout", "5s"}); err == nil {
		t.Fatal("rebalance against a vacated port accepted")
	} else if !strings.Contains(err.Error(), "reaching the serving fleet") {
		t.Fatalf("vacant port: error %q is not a reachability error", err)
	}
}

// TestRunRebalanceLiveEndToEnd drives the full client path: the CLI
// POSTs to a serving fleet's /admin/v1/rebalance, the fleet moves under
// its live-cutover protocol, and each call returns only once the new
// layout is serving.
func TestRunRebalanceLiveEndToEnd(t *testing.T) {
	t.Run("2→3→2", func(t *testing.T) {
		rt, srv := openAdminFleet(t, 2, 0, nil)

		// Put a few keys through so the cutover has tails to move.
		if _, err := rt.AppendBatch([]string{
			"sys1 boot sequence start", "sys2 boot sequence start",
			"sys3 boot sequence start", "sys4 boot sequence start",
		}); err != nil {
			t.Fatal(err)
		}

		addr := strings.TrimPrefix(srv.URL, "http://")
		if err := runRebalance([]string{"-addr", addr, "-to", "3", "-quiet"}); err != nil {
			t.Fatalf("live rebalance through the CLI: %v", err)
		}
		if got := rt.Shards(); got != 3 {
			t.Fatalf("fleet serves %d partitions after live rebalance, want 3", got)
		}

		// Asking again for the same count is a no-op the CLI reports
		// without erroring.
		if err := runRebalance([]string{"-addr", addr, "-to", "3", "-quiet"}); err != nil {
			t.Fatalf("no-op live rebalance: %v", err)
		}

		if err := runRebalance([]string{"-addr", addr, "-to", "2", "-quiet"}); err != nil {
			t.Fatalf("live shrink through the CLI: %v", err)
		}
		if got := rt.Shards(); got != 2 {
			t.Fatalf("fleet serves %d partitions after the live shrink, want 2", got)
		}
	})

	// The row a default deployment could not have before: `serve
	// -broker-dir D` with no -shards is a one-partition runtime, so it
	// grows to 2 in place — and every key's score sequence, before and
	// after the move, is bit-identical to one unsharded keyed pipeline over
	// the same stream.
	t.Run("1→2 from the default -shards", func(t *testing.T) {
		var mu sync.Mutex
		got := map[string][]float64{}
		dir := t.TempDir()
		_, rt := openFlagServe(t, func(cfg *shard.Config) {
			cfg.OnWindow = func(_ int, key string, _ []int, score float64, _ bool) {
				mu.Lock()
				got[key] = append(got[key], score)
				mu.Unlock()
			}
		}, "-broker-dir", dir)
		srv := httptest.NewServer(newShardServeMux(rt, 0))
		defer srv.Close()

		lines := keyedLines(0, 640)
		postLines(t, srv.URL, lines[:320])
		if got := servedShards(t, srv.URL); got != 1 {
			t.Fatalf("a default serve reports %d shards, want 1", got)
		}
		if err := runRebalance([]string{"-addr", strings.TrimPrefix(srv.URL, "http://"), "-to", "2", "-quiet"}); err != nil {
			t.Fatalf("growing a default serve 1→2: %v", err)
		}
		if got := servedShards(t, srv.URL); got != 2 {
			t.Fatalf("status reports %d shards after the rebalance, want 2", got)
		}
		postLines(t, srv.URL, lines[320:])
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if s := rt.ShardStats(i); s.LinesCollected == 0 {
				t.Fatalf("partition %d detected nothing; the move left it empty", i)
			}
		}

		det := testDetector()
		pcfg := pipeline.DefaultConfig("a software system")
		pcfg.Metrics = obs.NewRegistry()
		ref := pipeline.NewKeyed(pipeline.New(pcfg, drain.NewDefault(), det,
			lei.NewSimLLM(lei.Config{}), embed.New(det.Table.Dim), &pipeline.MemorySink{}))
		want := map[string][]float64{}
		ref.OnWindow = func(key string, _ []int, score float64, _ bool) { want[key] = append(want[key], score) }
		for _, line := range lines {
			ref.Feed(shard.DefaultKeyFunc(line), line)
		}
		ref.Flush()
		if len(want) != 8 || !reflect.DeepEqual(got, want) {
			t.Fatalf("per-key scores diverged from the unsharded reference across 1→2:\n got %v\nwant %v", got, want)
		}
	})
}

// TestAdminRebalanceHandler checks the server half of the protocol
// directly: method and parameter validation, refusal surfacing, and the
// JSON report on success.
func TestAdminRebalanceHandler(t *testing.T) {
	rt, srv := openAdminFleet(t, 2, 0, nil)

	resp, err := http.Get(srv.URL + httpapi.Prefix + "/rebalance?to=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}

	for _, q := range []string{"", "?to=0", "?to=x"} {
		resp, err = http.Post(srv.URL+httpapi.Prefix+"/rebalance"+q, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q status %d, want 400", q, resp.StatusCode)
		}
	}

	// A runtime that serves a subset of the layout (a fleet node) refuses
	// to rebalance itself; the handler surfaces that as a conflict rather
	// than a success.
	_, sub := openAdminFleet(t, 2, 0, func(cfg *shard.Config) { cfg.Subset = []int{0, 1} })
	resp, err = http.Post(sub.URL+httpapi.Prefix+"/rebalance?to=3", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("subset-runtime rebalance status %d, want 409", resp.StatusCode)
	}

	rep, err := liveRebalanceRequest(strings.TrimPrefix(srv.URL, "http://"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != 2 || rep.To != 3 {
		t.Fatalf("report %+v, want 2 -> 3", rep)
	}
	if got := rt.Shards(); got != 3 {
		t.Fatalf("fleet serves %d partitions, want 3", got)
	}
}
