package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"logsynergy/internal/core"
	"logsynergy/internal/embed"
	"logsynergy/internal/httpapi"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/repr"
	"logsynergy/internal/shard"
	"logsynergy/internal/tensor"
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

// openServeFleet builds a small serving fleet the way `logsynergy serve
// -shards N` does and exposes it over the real admin mux.
func openServeFleet(t *testing.T, shards int) (*shard.Runtime, *httptest.Server) {
	t.Helper()
	ccfg := core.DefaultConfig()
	det := core.NewDetector(core.NewModel(ccfg, 2),
		&repr.EventTable{System: "SystemX", Dim: ccfg.EmbedDim, Vectors: tensor.New(0, ccfg.EmbedDim)})
	rt, err := shard.Open(shard.Config{
		Shards:   shards,
		Dir:      t.TempDir(),
		Detector: det,
		Interp:   lei.NewSimLLM(lei.Config{}),
		Embedder: embed.New(ccfg.EmbedDim),
		Sink:     &pipeline.MemorySink{},
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	srv := httptest.NewServer(newShardServeMux(rt, 0))
	t.Cleanup(srv.Close)
	return rt, srv
}

// TestRunRebalanceLiveEndToEnd drives the full client path: the CLI
// POSTs to a serving fleet's /admin/v1/rebalance, the fleet grows 2→3
// and shrinks back 3→2 under its live-cutover protocol, and each call
// returns only once the new layout is serving.
func TestRunRebalanceLiveEndToEnd(t *testing.T) {
	rt, srv := openServeFleet(t, 2)

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
}

// TestAdminRebalanceHandler checks the server half of the protocol
// directly: method and parameter validation, refusal surfacing, and the
// JSON report on success.
func TestAdminRebalanceHandler(t *testing.T) {
	rt, srv := openServeFleet(t, 2)

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
