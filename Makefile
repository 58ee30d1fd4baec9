GO ?= go

.PHONY: build test vet race bench bench-build bench-smoke bench-broker bench-broker-smoke bench-shard bench-shard-smoke bench-cluster bench-cluster-smoke chaos explore explore-nightly cover fuzz-smoke rebalance-test live-rebalance-test cluster-test cluster-live-test api-check verify verify-nightly

build:
	$(GO) build ./...

# Tier-1: the fast correctness gate (ROADMAP.md).
test: build
	$(GO) test ./...

# Vet tier: static checks, run on every verify. gofmt -l covers the
# whole tree, benchmark/ included; any file it lists fails the tier.
# go vet's asmdecl checks the row kernel's assembly against its Go
# declarations; the arm64 pass vets the non-amd64 build of the tensor
# package, whose Go loop is its only row kernel.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists unformatted files:"; gofmt -l .; exit 1; }

# Race tier (nightly): vet + full suite under the race detector. Catches
# data races in the parallel tensor runtime and batched detection paths.
# Race instrumentation is ~10x; the training-heavy packages exceed go
# test's default 10m per-package budget on small machines.
race:
	$(GO) vet ./...
	$(GO) test -race -timeout 45m ./...

# Bench tier: the repo benchmark (BENCHMARK.json; benchmark/README.md has
# the workloads, the flags and every recorded run).
bench:
	bash benchmark/run.sh

# Bench-build tier: benchmark/ is a Go module of its own that imports
# internal/..., so the root `go build ./...` cannot see it. Vet and test
# it whenever an API it imports may have moved.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Bench-smoke tier: runs the repo benchmark itself at smoke size (every
# workload, about 40 s on 2 vCPUs). bench-build only vets and tests the
# module; this tier fails when a workload cannot run or any run is not
# `correct`.
bench-smoke:
	bash benchmark/run.sh -smoke

# Broker bench tier: measures WAL append throughput/latency, consume
# throughput, and the overhead of feeding a pipeline from a consumer
# instead of a slice (the WAL as a plain pipeline.Source — serving goes
# through the shard runtime, which bench-shard prices), writing
# BENCH_broker.json. The full run enforces the ≤2x e2e overhead bound;
# the smoke variant shrinks the sizes and only reports (it runs inside
# `make verify`).
bench-broker:
	BENCH_BROKER_OUT=$(CURDIR)/BENCH_broker.json $(GO) test -run TestBenchBrokerReport -count=1 -v ./internal/broker/

bench-broker-smoke:
	BENCH_BROKER_OUT=$(CURDIR)/BENCH_broker.json BENCH_BROKER_SMOKE=1 $(GO) test -run TestBenchBrokerReport -count=1 ./internal/broker/

# Shard bench tier: end-to-end detection throughput at 1/2/4/8 shards
# over identical fixed-seed keyed traffic, plus shared interp/embed
# cache dedup rates, writing BENCH_shard.json. The smoke variant shrinks
# the corpus and runs inside `make verify`.
bench-shard:
	BENCH_SHARD_OUT=$(CURDIR)/BENCH_shard.json $(GO) test -run TestBenchShardReport -count=1 -v ./internal/shard/

bench-shard-smoke:
	BENCH_SHARD_OUT=$(CURDIR)/BENCH_shard.json BENCH_SHARD_SMOKE=1 $(GO) test -run TestBenchShardReport -count=1 ./internal/shard/

# Rebalance tier: the rebalance-without-traffic equivalence proof under
# the race detector — LiveRebalance on a drained runtime over 3→4, 2→4
# and 4→2, close, reopen at the new count: exact key handoff (window
# tails and template groups; no pattern verdicts, which the destination
# re-scores bit for bit) and the runtime's layout-stamp refusal.
rebalance-test:
	$(GO) test -race -count=1 -run 'TestRebalance|TestRuntimeRefusesLayoutMismatch' ./internal/shard/

# Live-rebalance tier: the N→M move-under-traffic proof under the race
# detector (1→2, 2→3, 2→4, 3→2, and 3→2→3 over a retired directory) —
# per-key score/alert equivalence against the unsharded reference while
# traffic flows through the cutover (over repeating traffic too), zero
# detection stall on non-moving keys under growth, a moving key's line
# written once, to its destination (no donor WAL record of it past the
# freeze point; a full destination refuses only the moving keys' lines),
# duplicate skipping across a redelivery crash, seeded crash injection
# at begun and at every per-move cutover phase (tail-landed, staged and
# committed; each must resume on exactly one layout per key), a destination that feeds a move's keys by its
# "committed" hook, a committed move scrubbed from its donor by a
# re-begin, by a fleet node's open and by the restart after a crash right
# after the journal write, a 2→3 over more than 100
# moving keys that takes one capture, one install into the destination's
# snapshot and one journal entry per move (two) while reporting every
# moved key and tail id, and writes no splice file (at "staged" the
# destination's snapshot holds the move and the journal does not; a
# crash there resumes with every key's tail on one partition), a restart
# after a finish whose journal removal failed that keeps the
# destination's tails of keys whose move was never journaled, a shrink
# that delivers the alerts its retired partition still held (sink back
# before or after it, after a restart, after a regrowth), and the
# journal's refusals (among them a version-1, version-2 or version-3
# journal, refused by name with nothing written, a move outside
# [0,From)×[0,To), a move listed twice and a move whose two sides are one
# partition); also the pattern library as a memo (on, off and capped at 4 give
# byte-identical per-key reports at 1 and 2 shards and through a 2→3
# cutover) and a splice whose size does not grow with the donor's library.
# Includes the CLI/admin surface (`logsynergy rebalance -addr`), among it
# the 1→2 growth of a root opened with serve's default -shards.
live-rebalance-test:
	$(GO) test -race -count=1 -run 'TestLiveRebalance|TestLoadCutoverJournal|TestCutoverDestCopy' ./internal/shard/
	$(GO) test -race -count=1 -run 'TestRunRebalanceLive|TestAdminRebalance' ./cmd/logsynergy/

# Cluster tier: the cross-process fleet proof under the race detector —
# manifest/lease fencing, subset nodes, the front router's rejected-line
# accounting and Retry-After propagation, and the headline equivalence:
# router → 2-node fleet traffic (with a mid-run node kill, health-probe
# failover to a standby, and retry of exactly the rejected lines) must
# match the single-process `-shards N` runtime bit for bit.
cluster-test:
	$(GO) test -race -count=1 ./internal/cluster/

# Cluster live-rebalance tier: networked N→N+1 growth under traffic,
# under the race detector — router → 2-node fleet grows 2→3 while
# fixed-seed traffic keeps flowing (including through a stale router's
# view), the first move fails at "staged" — installed on its destination,
# not yet committed — and either the destination node is killed there and
# resumes from the journal on exactly one layout per key, or every node
# stays alive and the retried cutover installs the move again, and
# the per-key score sequences and alert multisets stay bit-identical to
# the single-process `-shards 3` run. Also proves failover refuses to
# fire while a cutover is journaled, and pins the versioned admin surface
# both participants serve (a node's per-move endpoints: 200 for an install
# body that still carries pattern verdicts, which are ignored, 413 for one
# past its bound, 400 for a truncated one, a step without a move or a
# splice of another format, with a key outside its move or a tail id its
# events lack — the destination's snapshot untouched — 404 for the removed
# stage and forget steps, 409 outside a cutover).
cluster-live-test:
	$(GO) test -race -count=1 -run 'TestClusterLiveRebalance|TestClusterFailoverRefusedDuringLiveCutover|TestClusterRouterAdminSurface|TestClusterNodeCutoverAdminSurface' ./internal/cluster/

# API tier: the admin-surface contract. The script enforces that every
# non-2xx answer flows through the shared envelope helpers (no
# http.Error, no hand-rolled 4xx/5xx WriteHeader, no hand-spelled
# /admin/v1 paths); the tests pin that the unversioned paths are gone
# and the envelope across 400/405/409/413/429/503.
api-check:
	sh scripts/api-check.sh
	$(GO) test -race -count=1 -run 'TestAdminUnversionedPathsGone|TestAdminErrorEnvelope' ./cmd/logsynergy/

# Cluster bench tier: prices the router hop — fleet end-to-end lines/s
# through the front router versus the single-process runtime over the
# same corpus, writing BENCH_cluster.json. The full run enforces the
# ≤2x overhead bound; the smoke variant shrinks the corpus and runs
# inside `make verify`.
bench-cluster:
	BENCH_CLUSTER_OUT=$(CURDIR)/BENCH_cluster.json $(GO) test -run TestBenchClusterReport -count=1 -v ./internal/cluster/

bench-cluster-smoke:
	BENCH_CLUSTER_OUT=$(CURDIR)/BENCH_cluster.json BENCH_CLUSTER_SMOKE=1 $(GO) test -run TestBenchClusterReport -count=1 ./internal/cluster/

# Chaos tier: the fault-injection framework and the deterministic chaos
# suites (seeded fault schedules, breakers, leak checks, Run's
# cancellation accounting; alert delivery through a failed commit, a down
# sink, a dead sink, a close that cannot deliver and a commit log that
# lost records past the snapshot or was deleted; broker crash-recovery
# replay; the /ingest contract over a one-partition runtime; torn and
# corrupt frames in the framed log; the read-only log reader's torn,
# corrupt and vanished segments; the alert ack file's torn tail; restarts
# — crash and graceful, over the generated and the paper corpora — that
# must resume every key's window from the event ids it was fed, and the
# keyed pipeline's tails and restores) under the race detector. Fast — it
# uses the untrained tiny deployment.
chaos:
	$(GO) test -race -count=1 ./internal/fault/
	$(GO) test -race -count=1 -run 'TestChaos|TestPipelineCancel|TestRunCountsWhatItFeeds|TestKeyedTails|TestKeyedRestore' ./internal/pipeline/
	$(GO) test -race -count=1 -run 'TestAlertDelivery|TestShardCrashRestart|TestShardRestart|TestShardEquivalencePaperCorpora' ./internal/shard/
	$(GO) test -race -count=1 ./internal/broker/ ./internal/framelog/
	$(GO) test -race -count=1 -run 'TestAckCutsTornTail|TestListLiveRoot' ./cmd/alerts/

# Explore tier: seeded crash schedules over the sharded runtime under the
# race detector — per schedule a shard count, a WAL segment size, traffic,
# one fault rule at a named point (broker append, fsync and read,
# shard.commit, shard.snapshot, pipeline.sink, a transient
# pipeline.interpret), two quiet points and a kill mid-feed without a Drain;
# most schedules also walk the partition count at a quiet point (grow by
# 1–2, shrink by 1–2, or shrink and regrow over the retired directories),
# some failing at a drawn cutover phase and reopening at the journal's
# target; after reopen and drain the scores, alerts, window tails and
# commit positions must match the unsharded reference and no journal may
# remain. A failure prints the -seed that replays it. The nightly variant
# runs 2 000 schedules.
explore:
	$(GO) test -race -count=1 -run TestExplore ./internal/shard/ -explore 20

explore-nightly:
	$(GO) test -count=1 -timeout 60m -run TestExplore ./internal/shard/ -explore 2000

# Cover tier (nightly): the full suite with coverage, a per-package
# summary, and floors on the sharded runtime, the pipeline core and the
# cluster layer (their equivalence and chaos suites are the proofs the
# roadmap leans on — the cluster's include the router's acknowledged-loss
# accounting — so their coverage must not rot).
cover:
	$(GO) test -count=1 -cover -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -n 1
	@for pkg in shard pipeline cluster; do \
		pct=$$($(GO) tool cover -func=cover.out | awk -v pre="logsynergy/internal/$$pkg/" 'index($$1, pre) == 1 {gsub(/%/,"",$$3); s+=$$3; n++} END {if (n) printf "%.1f", s/n; else print "0"}'); \
		echo "internal/$$pkg mean function coverage: $$pct%"; \
		awk -v p="$$pct" 'BEGIN {exit !(p+0 >= 70)}' || { echo "FAIL: internal/$$pkg coverage $$pct% is below the 70% floor"; exit 1; }; \
	done

# Fuzz-smoke tier (nightly): a short randomized pass over the parser
# (scanner vs regex chain), window, tape-vs-inference-graph, framed-log
# scan and row-kernel (every kernel the host has vs the plain loop) fuzz
# targets (the checked-in seed
# corpora always run as part of `make test`; this tier actually mutates).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/drain/
	$(GO) test -run '^$$' -fuzz '^FuzzMask$$' -fuzztime 10s ./internal/drain/
	$(GO) test -run '^$$' -fuzz FuzzSlide -fuzztime 10s ./internal/window/
	$(GO) test -run '^$$' -fuzz FuzzScoreModes -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzScan$$' -fuzztime 10s ./internal/framelog/
	$(GO) test -run '^$$' -fuzz '^FuzzMatMulRows$$' -fuzztime 10s ./internal/tensor/

# Verify: the per-PR gate — static checks, tier-1, the benchmark module's
# build and a smoke run of it, and the fast -race proof tiers (20 explored
# crash schedules among them) plus the smoke-sized benches.
verify: vet test bench-build bench-smoke api-check chaos explore rebalance-test live-rebalance-test cluster-test cluster-live-test bench-broker-smoke bench-shard-smoke bench-cluster-smoke

# Verify-nightly: verify plus the slow tiers — the full suite under the
# race detector (up to 45 minutes on a small machine), 2 000 explored
# crash schedules, the coverage floors, and the mutating fuzz pass.
verify-nightly: verify race explore-nightly cover fuzz-smoke
