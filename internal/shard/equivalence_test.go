package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/framelog"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// The headline proof: fixed-seed multi-system traffic pushed through 1,
// 2, 4 and 8 shards yields bit-identical per-key score sequences and
// identical alert multisets versus a single keyed pipeline over the same
// stream — including across a mid-run crash/restart.
//
// The harness corpora use canonical line bodies whose parameters are all
// maskable by the parser (integers, IPs, hex), and every body has a
// distinct token count. That pins each body to exactly one immutable
// Drain template regardless of arrival order, so the only thing that can
// differ across shard counts is the runtime's own behavior — which is
// precisely what the suite is testing.

const eqHint = "a sharded multi-stream deployment"

// eqBodies are the line shapes; token counts (including the key token)
// are pairwise distinct so no two bodies ever share a parser leaf.
var eqBodies = []string{
	"gc freed %B%",
	"cache hit key %H%",
	"replica sync offset %B% ok",
	"job %B% queued on partition %N%",
	"query ok rows %N% in %N% ms",
	"connection accepted from %IP% port %N% tls on",
	"request routed route api status %N% dur %N% ms",
	"cluster bus peer %IP% unreachable marking FAIL epoch %B% now",
	"rpc deadline exceeded method Charge dur %N% ms budget %N% ms",
	"disk flush wrote %B% bytes to segment %N% in %N% ms ok",
}

// eqKeys are pure-integer stream ids: the key token itself masks to <*>,
// so a body's template is identical no matter which keys emit it.
func eqKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = strconv.Itoa(7001 + i)
	}
	return keys
}

// genEqLines renders fixed-seed traffic: each line is "key body" with
// random (maskable) parameter values.
func genEqLines(seed int64, n int, keys []string) []string {
	rng := rand.New(rand.NewSource(seed))
	lines := make([]string, n)
	for i := range lines {
		body := renderEqBody(rng, eqBodies[rng.Intn(len(eqBodies))])
		lines[i] = keys[rng.Intn(len(keys))] + " " + body
	}
	return lines
}

// genMemoLines renders fixed-seed traffic whose windows repeat, so a
// pattern library has something to answer: every other key loops a
// five-body script (a window is ten ids and slides by five, so its
// windows recur once the loop has filled one), the rest draw a body per
// line.
func genMemoLines(seed int64, n int, keys []string) []string {
	rng := rand.New(rand.NewSource(seed))
	scripts := make([][]string, len(keys))
	for i := 0; i < len(keys); i += 2 {
		for j := 0; j < 5; j++ {
			scripts[i] = append(scripts[i], eqBodies[rng.Intn(len(eqBodies))])
		}
	}
	next := make([]int, len(keys))
	lines := make([]string, n)
	for i := range lines {
		k := rng.Intn(len(keys))
		body := eqBodies[rng.Intn(len(eqBodies))]
		if s := scripts[k]; s != nil {
			body = s[next[k]%len(s)]
			next[k]++
		}
		lines[i] = keys[k] + " " + renderEqBody(rng, body)
	}
	return lines
}

// renderEqBody fills a body's placeholders with random (maskable)
// parameter values.
func renderEqBody(rng *rand.Rand, body string) string {
	var b strings.Builder
	for len(body) > 0 {
		j := strings.IndexByte(body, '%')
		if j < 0 {
			b.WriteString(body)
			break
		}
		k := strings.IndexByte(body[j+1:], '%')
		if k < 0 {
			b.WriteString(body)
			break
		}
		b.WriteString(body[:j])
		switch body[j+1 : j+1+k] {
		case "N":
			fmt.Fprintf(&b, "%d", rng.Intn(1000))
		case "B":
			fmt.Fprintf(&b, "%d", 10000+rng.Intn(99999999))
		case "H":
			fmt.Fprintf(&b, "0x%08x", rng.Uint32())
		case "IP":
			fmt.Fprintf(&b, "%d.%d.%d.%d", 10+rng.Intn(160), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
		}
		body = body[j+k+2:]
	}
	return b.String()
}

// eqEnv builds a fresh deterministic detection environment: an untrained
// (seeded) model over an empty event table. Detection quality is
// irrelevant here — scores just have to be deterministic functions of
// the traffic, which they are: same templates → same interpretations →
// same embeddings → same model output.
func eqEnv() (*core.Detector, lei.Interpreter, *embed.Embedder) {
	cfg := core.DefaultConfig()
	m := core.NewModel(cfg, 2)
	table := &repr.EventTable{System: "SystemX", Dim: cfg.EmbedDim, Vectors: tensor.New(0, cfg.EmbedDim)}
	det := core.NewDetector(m, table)
	det.Now = func() time.Time { return time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC) }
	return det, lei.NewSimLLM(lei.Config{}), embed.New(cfg.EmbedDim)
}

// eqResult is one run's observable output: per-key score sequences and
// the alert multiset (runReference also keeps the reports, in order,
// every key's final window tail and the parser that minted the tails'
// ids).
type eqResult struct {
	scores  map[string][]float64
	alerts  map[string]int
	reports []*core.Report
	tails   map[string]pipeline.WindowTail
	parser  *drain.Parser
}

// sameTail reports whether two window tails hold the same window when
// each is read through the parser that minted its ids (two partitions
// number their events apart): the same length and slide counter, and at
// each position the same minted template.
func sameTail(a pipeline.WindowTail, pa *drain.Parser, b pipeline.WindowTail, pb *drain.Parser) bool {
	if len(a.IDs) != len(b.IDs) || a.SincePrev != b.SincePrev {
		return false
	}
	ta, tb := pa.MintedTemplates(0), pb.MintedTemplates(0)
	for i := range a.IDs {
		if ta[a.IDs[i]] != tb[b.IDs[i]] {
			return false
		}
	}
	return true
}

// snapshotParser is a parser holding a snapshot's events: the one that
// minted its tails' ids.
func snapshotParser(t *testing.T, st partitionState) *drain.Parser {
	t.Helper()
	p := drain.NewDefault()
	if err := p.Import(st.Events); err != nil {
		t.Fatal(err)
	}
	return p
}

// alertSigs reduces reports to an id-free multiset signature (event-id
// numbering is per-process; scores and templates are not).
func alertSigs(reports []*core.Report) map[string]int {
	sigs := make(map[string]int, len(reports))
	for _, r := range reports {
		sigs[alertSig(r)]++
	}
	return sigs
}

// alertSig is one report's signature.
func alertSig(r *core.Report) string {
	return r.System + "|" + strconv.FormatFloat(r.Score, 'x', -1, 64) + "|" + strings.Join(r.Templates, "\x1f")
}

// runReference drives the single keyed pipeline over the whole stream.
func runReference(t *testing.T, lines []string) eqResult {
	t.Helper()
	det, interp, e := eqEnv()
	sink := &pipeline.MemorySink{}
	cfg := pipeline.DefaultConfig(eqHint)
	cfg.Metrics = obs.NewRegistry()
	parser := drain.NewDefault()
	p := pipeline.New(cfg, parser, det, interp, e, sink)
	k := pipeline.NewKeyed(p)
	scores := map[string][]float64{}
	k.OnWindow = func(key string, seq []int, score float64, abandoned bool) {
		if abandoned {
			t.Errorf("reference abandoned a window for key %q", key)
		}
		scores[key] = append(scores[key], score)
	}
	for _, line := range lines {
		k.Feed(DefaultKeyFunc(line), line)
	}
	k.Flush()
	return eqResult{scores: scores, alerts: alertSigs(sink.Reports()), reports: sink.Reports(), tails: k.Tails(), parser: parser}
}

// shardHarness holds one sharded runtime plus its capture state.
type shardHarness struct {
	rt     *Runtime
	sink   *pipeline.MemorySink
	mu     sync.Mutex
	scores map[string][]float64
}

// openHarness assembles a runtime over dir. Reopening with the same dir
// resumes from the persisted per-partition state.
func openHarness(t *testing.T, dir string, shards int, mutate func(*Config)) *shardHarness {
	t.Helper()
	h := &shardHarness{sink: &pipeline.MemorySink{}, scores: map[string][]float64{}}
	det, interp, e := eqEnv()
	pcfg := pipeline.DefaultConfig(eqHint)
	cfg := Config{
		Shards:   shards,
		Dir:      dir,
		Pipeline: pcfg,
		Detector: det,
		Interp:   interp,
		Embedder: e,
		Sink:     h.sink,
		Metrics:  obs.NewRegistry(),
		OnWindow: func(shard int, key string, seq []int, score float64, abandoned bool) {
			if abandoned {
				t.Errorf("shard %d abandoned a window for key %q", shard, key)
			}
			h.mu.Lock()
			h.scores[key] = append(h.scores[key], score)
			h.mu.Unlock()
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%d shards): %v", shards, err)
	}
	h.rt = rt
	return h
}

// feed appends the lines in order, in modest batches (exercising the
// batch router), failing the test on any rejection.
func (h *shardHarness) feed(t *testing.T, lines []string) {
	t.Helper()
	const batch = 64
	for i := 0; i < len(lines); i += batch {
		end := i + batch
		if end > len(lines) {
			end = len(lines)
		}
		if _, err := h.rt.AppendBatch(lines[i:end]); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
	}
}

// appendOne routes one line through AppendBatch and names the partition
// it was filed under.
func appendOne(rt *Runtime, line string) (int, error) {
	resp, err := rt.AppendBatch([]string{line})
	return resp.Partitions[0].Partition, err
}

// drain waits for every partition to finish and commit.
func (h *shardHarness) drain(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.rt.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func (h *shardHarness) result() eqResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	scores := make(map[string][]float64, len(h.scores))
	for k, v := range h.scores {
		scores[k] = append([]float64(nil), v...)
	}
	return eqResult{scores: scores, alerts: alertSigs(h.sink.Reports())}
}

// requireEqual compares a run's output against the reference, key by
// key, score bit by score bit.
func requireEqual(t *testing.T, label string, got, want eqResult) {
	t.Helper()
	if len(got.scores) != len(want.scores) {
		t.Fatalf("%s: %d keys scored, reference has %d", label, len(got.scores), len(want.scores))
	}
	for key, wantSeq := range want.scores {
		gotSeq := got.scores[key]
		if len(gotSeq) != len(wantSeq) {
			t.Fatalf("%s key %s: %d windows vs reference %d", label, key, len(gotSeq), len(wantSeq))
		}
		for i := range wantSeq {
			if gotSeq[i] != wantSeq[i] {
				t.Fatalf("%s key %s window %d: score %v != reference %v (diff %g)",
					label, key, i, gotSeq[i], wantSeq[i], gotSeq[i]-wantSeq[i])
			}
		}
	}
	if len(got.alerts) != len(want.alerts) {
		t.Fatalf("%s: %d distinct alert signatures vs reference %d", label, len(got.alerts), len(want.alerts))
	}
	for sig, n := range want.alerts {
		if got.alerts[sig] != n {
			t.Fatalf("%s: alert %q seen %d times, reference %d", label, sig[:min(len(sig), 80)], got.alerts[sig], n)
		}
	}
}

func TestShardEquivalenceAcrossShardCounts(t *testing.T) {
	keys := eqKeys(12)
	equalAcrossShardCounts(t, genEqLines(42, 3000, keys), false)
	// genEqLines never repeats a window, so the pattern library never
	// answers one there; this traffic's windows recur, and a verdict the
	// library returns must be the score the model would have given.
	t.Run("repeating", func(t *testing.T) { equalAcrossShardCounts(t, genMemoLines(43, 3000, keys), true) })
}

// equalAcrossShardCounts runs lines through 1, 2, 4 and 8 shards and
// requires each run to match the unsharded reference bit for bit; with
// libraryHits, each run must also have answered windows from the library.
func equalAcrossShardCounts(t *testing.T, lines []string, libraryHits bool) {
	ref := runReference(t, lines)
	if len(ref.alerts) == 0 {
		t.Fatal("reference produced no alerts; the equivalence comparison is vacuous")
	}
	total := 0
	for _, seq := range ref.scores {
		total += len(seq)
	}
	if total == 0 {
		t.Fatal("reference scored no windows")
	}

	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := openHarness(t, t.TempDir(), shards, nil)
			h.feed(t, lines)
			h.drain(t)
			stats := h.rt.Stats()
			if err := h.rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			requireEqual(t, fmt.Sprintf("shards=%d", shards), h.result(), ref)
			if libraryHits && stats.PatternHits == 0 {
				t.Fatalf("shards=%d: no window of %d was answered from the pattern library", shards, stats.SequencesFormed)
			}

			// The shared caches really were shared: every distinct template
			// was rendered by the inner interpreter exactly once.
			_, misses, _ := h.rt.Cache().Stats()
			if misses != int64(len(eqBodies)) {
				t.Fatalf("interpreter rendered %d templates, want %d (one per body)", misses, len(eqBodies))
			}
		})
	}
}

// A runtime crash mid-stream must not change a single bit of output:
// the restarted runtime resumes every partition from its committed
// offset and persisted window tails.
func TestShardCrashRestartResumesExactly(t *testing.T) {
	keys := eqKeys(9)
	lines := genEqLines(137, 2400, keys)
	ref := runReference(t, lines)

	dir := t.TempDir()
	h := openHarness(t, dir, 4, nil)
	h.feed(t, lines[:1100]) // cut mid-window for most keys
	h.drain(t)
	h.rt.Kill() // crash: no graceful close, no extra commits

	// The restarted runtime funnels captures into the same maps, so the
	// combined pre- and post-crash output is compared to the reference.
	h2 := reopenHarness(t, dir, 4, h)
	h2.feed(t, lines[1100:])
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close after restart: %v", err)
	}
	requireEqual(t, "crash/restart", h2.result(), ref)
}

// A graceful restart resumes each key's window with the ids its lines
// were given when they were fed. Here key 7001's later lines widen the
// group key 7002's first line joined, so a second parse of that line
// would land it in another group and change the score of 7002's first
// window.
func TestShardRestartKeepsFedIDs(t *testing.T) {
	pre := []string{"7001 p q r s v X Y", "7002 p q r s v t u", "7001 p q z z z t u", "7001 p q r w w X Y"}
	var post []string
	for range 9 {
		post = append(post, "7002 p q g h k t u")
	}
	ref := runReference(t, append(append([]string(nil), pre...), post...))

	dir := t.TempDir()
	h := openHarness(t, dir, 1, nil)
	h.feed(t, pre)
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	h2 := reopenHarness(t, dir, 1, h)
	h2.feed(t, post)
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close after restart: %v", err)
	}
	requireEqual(t, "graceful restart", h2.result(), ref)
}

// reopenHarness opens a runtime over an existing directory, funneling
// captures into the prior harness's maps so pre- and post-crash output
// accumulate together.
func reopenHarness(t *testing.T, dir string, shards int, prev *shardHarness) *shardHarness {
	t.Helper()
	h := &shardHarness{sink: prev.sink, scores: prev.scores}
	det, interp, e := eqEnv()
	cfg := Config{
		Shards:   shards,
		Dir:      dir,
		Pipeline: pipeline.DefaultConfig(eqHint),
		Detector: det,
		Interp:   interp,
		Embedder: e,
		Sink:     h.sink,
		Metrics:  obs.NewRegistry(),
		OnWindow: func(shard int, key string, seq []int, score float64, abandoned bool) {
			if abandoned {
				t.Errorf("shard %d abandoned a window for key %q", shard, key)
			}
			h.mu.Lock()
			h.scores[key] = append(h.scores[key], score)
			h.mu.Unlock()
		},
	}
	rt, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	h.rt = rt
	return h
}

// Records redelivered because the broker offset trails the persisted
// shard state are skipped, not re-detected: rolling the committed offset
// back by hand and restarting must produce zero new windows.
func TestShardRestartSkipsRedelivered(t *testing.T) {
	keys := eqKeys(6)
	lines := genEqLines(7, 900, keys)

	dir := t.TempDir()
	h := openHarness(t, dir, 2, nil)
	h.feed(t, lines)
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Roll every partition's committed offset halfway back — simulating a
	// crash that lost the offset write but kept the (later) state write.
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("p%d", i), "offsets.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading offsets: %v", err)
		}
		var f struct {
			Version int               `json:"version"`
			Groups  map[string]uint64 `json:"groups"`
		}
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatalf("parsing offsets: %v", err)
		}
		if f.Groups["detector"] == 0 {
			t.Fatalf("partition %d never committed", i)
		}
		f.Groups["detector"] /= 2
		out, _ := json.Marshal(f)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatalf("rewriting offsets: %v", err)
		}
	}

	h2 := openHarness(t, dir, 2, nil)
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res := h2.result()
	if len(res.scores) != 0 {
		t.Fatalf("redelivered records were re-detected: %d keys scored windows", len(res.scores))
	}
	if got := h2.rt.Stats().LinesCollected; got != 0 {
		t.Fatalf("redelivered records were re-collected: %d lines", got)
	}
}

// A WAL that lost its unsynced tail — what a power cut leaves under the
// default interval fsync, while the state file was fsynced — must take the
// lines appended after the restart, which reuse the lost offsets, as new
// lines. When the restart trusted the state's watermark past the WAL's
// tail, it skipped them as a redelivered prefix: 50 of these 100 lines
// were never detected.
func TestShardRestartAfterLostWALTail(t *testing.T) {
	lines := genEqLines(11, 300, eqKeys(6))
	dir := t.TempDir()
	h := openHarness(t, dir, 1, nil)
	h.feed(t, lines[:200])
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cutWALFrames(t, PartitionDir(dir, 0), 50)

	h2 := openHarness(t, dir, 1, nil)
	h2.feed(t, lines[200:])
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := h2.rt.Stats().LinesCollected; got != 100 {
		t.Fatalf("the restart detected %d of the 100 lines appended after it", got)
	}
}

// cutWALFrames cuts the last n frames off the newest WAL segment in dir.
func cutWALFrames(t *testing.T, dir string, n int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment in %s (%v)", dir, err)
	}
	newest := segs[len(segs)-1]
	var sizes []int64
	if _, _, _, err := framelog.Scan(newest, 1<<20, func(p []byte) {
		sizes = append(sizes, framelog.HeaderSize+int64(len(p)))
	}); err != nil || len(sizes) < n {
		t.Fatalf("%s holds %d frames (%v), want more than %d", newest, len(sizes), err, n)
	}
	var keep int64
	for _, sz := range sizes[:len(sizes)-n] {
		keep += sz
	}
	if err := os.Truncate(newest, keep); err != nil {
		t.Fatal(err)
	}
}

// Satellite: graceful shutdown commits EVERY partition's offset — not
// just the last one to drain — so a restart re-detects nothing.
func TestShardCloseCommitsEveryPartition(t *testing.T) {
	keys := eqKeys(16)
	lines := genEqLines(99, 1200, keys)

	dir := t.TempDir()
	h := openHarness(t, dir, 4, nil)
	h.feed(t, lines)
	// No explicit Drain: Close itself must drain workers and commit every
	// partition (the SIGINT path).
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	routed := 0
	for i, pt := range h.rt.parts {
		next := pt.bk.NextOffset()
		if next == 1 {
			t.Fatalf("partition %d received no traffic; key spread too narrow for the test", i)
		}
		if got := pt.bk.Committed("detector"); got != next-1 {
			t.Fatalf("partition %d committed %d of %d after Close", i, got, next-1)
		}
		if got := h.rt.Committed(i); got != next-1 {
			t.Fatalf("partition %d's newest commit is at %d of %d after Close", i, got, next-1)
		}
		routed += int(next - 1)
	}
	if routed != len(lines) {
		t.Fatalf("partitions hold %d records, fed %d", routed, len(lines))
	}

	// Zero re-detection on restart.
	h2 := openHarness(t, dir, 4, nil)
	h2.drain(t)
	if err := h2.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if res := h2.result(); len(res.scores) != 0 || h2.rt.Stats().LinesCollected != 0 {
		t.Fatalf("restart after graceful Close re-detected: %+v, %d lines", res.scores, h2.rt.Stats().LinesCollected)
	}
}

// Key affinity at the runtime level: every line of a key lands in the
// partition the partitioner names, and the runtime's merged snapshot
// accounts for every routed line across per-shard registries.
func TestShardRoutingAffinityAndSnapshot(t *testing.T) {
	keys := eqKeys(10)
	lines := genEqLines(3, 800, keys)
	h := openHarness(t, t.TempDir(), 4, nil)
	for _, line := range lines {
		part, err := appendOne(h.rt, line)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if want := h.rt.PartitionFor(DefaultKeyFunc(line)); part != want {
			t.Fatalf("line routed to partition %d, partitioner says %d", part, want)
		}
	}
	h.drain(t)
	snap := h.rt.Snapshot()
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := snap.Counters["shard.routed_lines_total"]; got != int64(len(lines)) {
		t.Fatalf("routed_lines_total %d, want %d", got, len(lines))
	}
	if got := snap.Counters["pipeline.lines_collected"]; got != int64(len(lines)) {
		t.Fatalf("merged lines_collected %d, want %d", got, len(lines))
	}
	var perShard int64
	for i := 0; i < 4; i++ {
		perShard += snap.Counters[fmt.Sprintf("shard%d.pipeline.lines_collected", i)]
	}
	if perShard != int64(len(lines)) {
		t.Fatalf("per-shard lines_collected sum %d, want %d", perShard, len(lines))
	}
	if snap.Gauges["shard.partitions"] != 4 {
		t.Fatalf("partitions gauge %d, want 4", snap.Gauges["shard.partitions"])
	}
}

// A worker that keeps pace with its producer catches up between any two
// requests. That must cost a flush, not a commit: the commit waits until the
// log has stayed empty, so its count follows commitEvery and not the timing
// of the producer. At the parent of this test every single-line request
// below is followed by a state save.
func TestIdleCommitWaitsForQuiet(t *testing.T) {
	lines := genEqLines(5, 120, eqKeys(4)) // under one commitEvery stride
	h := openHarness(t, t.TempDir(), 1, nil)
	defer h.rt.Close()

	commits, last := 0, h.rt.Committed(0)
	for i, line := range lines {
		if _, err := h.rt.AppendBatch([]string{line}); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		// Let the worker catch up, then send the next line straight away.
		for deadline := time.Now().Add(30 * time.Second); h.rt.Stats().LinesCollected < i+1; {
			if time.Now().After(deadline) {
				t.Fatalf("line %d was never consumed", i)
			}
			time.Sleep(20 * time.Microsecond)
		}
		if c := h.rt.Committed(0); c != last {
			commits, last = commits+1, c
		}
	}
	// A stalled test goroutine may leave a gap long enough to count as
	// quiet now and then; one commit per request never is.
	if commits > len(lines)/4 {
		t.Fatalf("%d commits while %d requests arrived back to back", commits, len(lines))
	}

	// A stream that really stops is committed without being asked twice.
	h.drain(t)
	if got := h.rt.Committed(0); got != uint64(len(lines)) {
		t.Fatalf("committed %d of %d after the stream went quiet", got, len(lines))
	}
}

// paperCorpus renders the logdata generator's output for spec as keyed
// traffic: 3000 lines of seed 11, each prefixed with one of 12 integer
// keys. Unlike genEqLines, these bodies can share Drain leaves, so a
// line's minted template depends on which lines its parser saw first.
func paperCorpus(spec *logdata.SystemSpec) []string {
	corpus := logdata.Generate(spec, 11, 3000)
	keys := eqKeys(12)
	rng := rand.New(rand.NewSource(11))
	lines := make([]string, len(corpus.Lines))
	for i, l := range corpus.Lines {
		lines[i] = keys[rng.Intn(len(keys))] + " " + l.Message
	}
	return lines
}

// runCorpus feeds lines through a runtime at shards partitions. A
// positive killAt crashes the runtime after that many lines and reopens
// it at the same count for the rest.
func runCorpus(t *testing.T, lines []string, shards, killAt int) eqResult {
	t.Helper()
	dir := t.TempDir()
	h := openHarness(t, dir, shards, nil)
	if killAt > 0 {
		h.feed(t, lines[:killAt])
		h.drain(t)
		h.rt.Kill()
		h = reopenHarness(t, dir, shards, h)
		lines = lines[killAt:]
	}
	h.feed(t, lines)
	h.drain(t)
	if err := h.rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return h.result()
}

// divergentWindows counts the windows whose score differs from want's,
// a missing or extra window counting as one each.
func divergentWindows(got, want eqResult) (diff, total int) {
	for key, wantSeq := range want.scores {
		gotSeq := got.scores[key]
		total += len(wantSeq)
		for i := range max(len(gotSeq), len(wantSeq)) {
			if i >= len(gotSeq) || i >= len(wantSeq) || gotSeq[i] != wantSeq[i] {
				diff++
			}
		}
	}
	return diff, total
}

// The paper-system corpora hold what this harness can promise on them
// today: one partition equals the unsharded reference, and a crash and
// restart at any one partition count changes nothing against the same
// count uninterrupted. Across counts the scores do not agree yet — one
// Drain parser per partition mints templates in a different order — so
// the 2- and 4-partition divergence from the reference is logged, not
// asserted.
func TestShardEquivalencePaperCorpora(t *testing.T) {
	for _, spec := range []*logdata.SystemSpec{logdata.BGL(), logdata.Thunderbird(), logdata.SystemA()} {
		t.Run(spec.Name, func(t *testing.T) {
			lines := paperCorpus(spec)
			ref := runReference(t, lines)
			requireEqual(t, "1 shard", runCorpus(t, lines, 1, 0), ref)
			requireEqual(t, "1 shard, crash and restart", runCorpus(t, lines, 1, 1400), ref)
			for _, shards := range []int{2, 4} {
				whole := runCorpus(t, lines, shards, 0)
				requireEqual(t, fmt.Sprintf("%d shards, crash and restart", shards), runCorpus(t, lines, shards, 1400), whole)
				diff, total := divergentWindows(whole, ref)
				t.Logf("%s at %d shards: %d of %d windows score differently from the reference", spec.Name, shards, diff, total)
			}
		})
	}
}
