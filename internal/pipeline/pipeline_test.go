package pipeline

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
	"logsynergy/internal/window"
)

// deployment builds a trained detector plus a live parser for SystemB-like
// production traffic, small enough for unit tests.
func deployment(t *testing.T) (*core.Detector, *drain.Parser, lei.Interpreter, *embed.Embedder, *logdata.Corpus) {
	t.Helper()
	interp := lei.NewSimLLM(lei.Config{})
	e := embed.New(32)

	spec := logdata.SystemB()
	offline := logdata.Generate(spec, 1, 6000)
	parser := drain.NewDefault()
	parsed := logdata.Parse(offline, parser)
	seqs := parsed.Windows(window.Default())

	// A deliberately quick model: the pipeline tests exercise the
	// workflow, not detection quality.
	cfg := core.DefaultConfig()
	cfg.Epochs = 2
	srcSeqs := logdata.Build(logdata.SystemA(), 2, 0.002, window.Default())
	src := repr.Build(srcSeqs, interp, e)
	table := repr.BuildEventTable(seqs, interp, e)
	train := repr.BuildDataset(seqs, table)
	model := core.TrainModel(cfg, []*repr.Dataset{src}, train)

	det := core.NewDetector(model, table)
	det.Now = func() time.Time { return time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC) }

	online := logdata.Generate(spec, 99, 3000)
	return det, parser, interp, e, online
}

func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	det, parser, interp, e, online := deployment(t)
	sink := &MemorySink{}
	p := New(DefaultConfig("a cloud data management system (SystemB)"), parser, det, interp, e, sink)
	stats := p.Run(context.Background(), NewSliceSource(online.Messages()))

	if stats.LinesCollected != 3000 {
		t.Fatalf("collected %d lines, want 3000", stats.LinesCollected)
	}
	wantSeqs := window.Count(3000, window.Default())
	if stats.SequencesFormed != wantSeqs {
		t.Fatalf("formed %d sequences, want %d", stats.SequencesFormed, wantSeqs)
	}
	if stats.PatternHits+stats.PatternMisses != stats.SequencesFormed {
		t.Fatal("hits+misses must equal sequences")
	}
	if stats.PatternHits == 0 {
		t.Fatal("production traffic repeats patterns; expected pattern-library hits")
	}
	if stats.Anomalies != len(sink.Reports()) {
		t.Fatalf("stats anomalies %d vs %d delivered reports", stats.Anomalies, len(sink.Reports()))
	}
	for _, r := range sink.Reports() {
		if r.System != "SystemB" || r.Score <= core.Threshold {
			t.Fatalf("malformed report: %+v", r)
		}
		if len(r.Interpretations) != 10 {
			t.Fatalf("report must carry 10 interpretations, got %d", len(r.Interpretations))
		}
	}
}

func TestPipelineHandlesNewTemplatesOnline(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	det, parser, interp, e, _ := deployment(t)
	before := det.Table.Len()
	// Feed lines whose template the offline phase never saw.
	lines := make([]string, 0, 30)
	for i := 0; i < 30; i++ {
		lines = append(lines, "[INF] brandnew: subsystem wobble calibrated ok pass 7")
	}
	p := New(DefaultConfig("a cloud data management system (SystemB)"), parser, det, interp, e)
	stats := p.Run(context.Background(), NewSliceSource(lines))
	if stats.NewEvents == 0 {
		t.Fatal("new template must extend the event table")
	}
	if det.Table.Len() <= before {
		t.Fatal("event table did not grow")
	}
}

// TestPipelineParallelMatchesSerial runs the same traffic through the
// serial one-window-at-a-time path and the parallel batched path and
// requires identical detection behavior: same counters, same reports, in
// the same order. (The matrix kernels are bit-identical serial vs parallel,
// so even the scores must match exactly.)
func TestPipelineParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	det, parser, interp, e, online := deployment(t)

	run := func(workers, detectBatch int) (Stats, []*core.Report) {
		prev := tensor.SetParallelism(workers)
		defer tensor.SetParallelism(prev)
		sink := &MemorySink{}
		cfg := DefaultConfig("a cloud data management system (SystemB)")
		cfg.DetectBatch = detectBatch
		p := New(cfg, parser, det, interp, e, sink)
		return p.Run(context.Background(), NewSliceSource(online.Messages())), sink.Reports()
	}

	serialStats, serialReports := run(1, 1)
	parallelStats, parallelReports := run(4, 8)

	// NewEvents is excluded: the first run extends the shared event table
	// with templates first seen online, so the second sees none.
	if parallelStats.SequencesFormed != serialStats.SequencesFormed ||
		parallelStats.Anomalies != serialStats.Anomalies ||
		parallelStats.PatternHits != serialStats.PatternHits ||
		parallelStats.PatternMisses != serialStats.PatternMisses {
		t.Fatalf("parallel stats %+v != serial stats %+v", parallelStats, serialStats)
	}
	if len(parallelReports) != len(serialReports) {
		t.Fatalf("%d parallel reports vs %d serial", len(parallelReports), len(serialReports))
	}
	for i := range serialReports {
		s, p := serialReports[i], parallelReports[i]
		if s.Score != p.Score || s.System != p.System {
			t.Fatalf("report %d differs: serial score=%v parallel score=%v", i, s.Score, p.Score)
		}
		for j := range s.EventIDs {
			if s.EventIDs[j] != p.EventIDs[j] {
				t.Fatalf("report %d event ids differ at %d", i, j)
			}
		}
	}
}

// A window's score does not depend on the batch it is scored in or on
// the tensor worker count: every window of the online stream, scored
// alone at one worker, gets the same score bit for bit in shuffled
// batches of 2–64 at 1, 2 and 4 workers. That makes the pattern library
// a memo of the model's own answer — no verdict it holds, however it was
// filled, changes a score; it changes only whether the model runs.
func TestScoreIndependentOfBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	det, parser, interp, e, online := deployment(t)
	cfg := DefaultConfig("a cloud data management system (SystemB)")
	cfg.DisablePatternLibrary = true
	cfg.DetectBatch = 1
	p := New(cfg, parser, det, interp, e)
	k := NewKeyed(p)
	var seqs [][]int
	var alone []float64
	k.OnWindow = func(_ string, seq []int, score float64, abandoned bool) {
		if abandoned {
			t.Fatal("a window was abandoned")
		}
		seqs, alone = append(seqs, seq), append(alone, score)
	}
	prev := tensor.SetParallelism(1)
	for _, line := range online.Messages() {
		k.Feed("b", line)
	}
	k.Flush()
	tensor.SetParallelism(prev)
	if len(seqs) < 500 {
		t.Fatalf("the stream completed %d windows, want at least 500", len(seqs))
	}

	rng := rand.New(rand.NewSource(16))
	for _, workers := range []int{1, 2, 4} {
		prev := tensor.SetParallelism(workers)
		order := rng.Perm(len(seqs))
		for i := 0; i < len(order); {
			n := min(2+rng.Intn(63), len(order)-i)
			batch := make([][]int, n)
			for j := range batch {
				batch[j] = seqs[order[i+j]]
			}
			scores, abandoned := p.detectBatch(batch)
			for j, s := range scores {
				w := order[i+j]
				if abandoned[j] || math.Float64bits(s) != math.Float64bits(alone[w]) {
					tensor.SetParallelism(prev)
					t.Fatalf("%d workers, batch of %d: window %d scored %v, alone %v", workers, n, w, s, alone[w])
				}
			}
			i += n
		}
		tensor.SetParallelism(prev)
	}
}

func TestPipelineContextCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	det, parser, interp, e, online := deployment(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(DefaultConfig("x"), parser, det, interp, e)
	stats := p.Run(ctx, NewSliceSource(online.Messages()))
	if stats.LinesCollected != 0 {
		t.Fatalf("a context cancelled before Run fed %d lines, want 0", stats.LinesCollected)
	}
}

func TestPatternLibrary(t *testing.T) {
	lib := NewPatternLibrary(2)
	seq := []int{1, 2, 3}
	if _, ok := lib.Lookup(seq); ok {
		t.Fatal("empty library must miss")
	}
	lib.Store(seq, 0.9)
	if s, ok := lib.Lookup(seq); !ok || s != 0.9 {
		t.Fatalf("lookup got %v %v", s, ok)
	}
	// Distinct sequences must not collide ([1,2,3] vs [12,3]).
	if _, ok := lib.Lookup([]int{12, 3}); ok {
		t.Fatal("pattern keys must be collision-free")
	}
	lib.Store([]int{4}, 0.1)
	lib.Store([]int{5}, 0.2) // over cap: evicts the LRU entry
	if lib.Size() != 2 {
		t.Fatalf("cap violated: size %d", lib.Size())
	}
}

func TestPatternLibraryLRUEviction(t *testing.T) {
	lib := NewPatternLibrary(2)
	lib.Store([]int{1}, 0.1)
	lib.Store([]int{2}, 0.2)
	// Touch [1] so [2] becomes least recently used.
	if _, ok := lib.Lookup([]int{1}); !ok {
		t.Fatal("warm entry must hit")
	}
	if !lib.Store([]int{3}, 0.3) {
		t.Fatal("over-cap insert must report an eviction")
	}
	if lib.Size() != 2 {
		t.Fatalf("size %d", lib.Size())
	}
	if _, ok := lib.Lookup([]int{2}); ok {
		t.Fatal("LRU entry [2] must have been evicted")
	}
	if s, ok := lib.Lookup([]int{1}); !ok || s != 0.1 {
		t.Fatal("recently used entry [1] must survive")
	}
	if s, ok := lib.Lookup([]int{3}); !ok || s != 0.3 {
		t.Fatal("new entry [3] must be cached")
	}
	// Re-storing an existing key updates in place, no eviction.
	if lib.Store([]int{1}, 0.9) {
		t.Fatal("updating a cached key must not evict")
	}
	if s, _ := lib.Lookup([]int{1}); s != 0.9 {
		t.Fatalf("score not updated: %v", s)
	}
	if lib.Size() != 2 {
		t.Fatalf("size %d after update", lib.Size())
	}
}

func TestPatternLibraryLookupOrKey(t *testing.T) {
	lib := NewPatternLibrary(0)
	_, ok, key := lib.LookupOrKey([]int{7, 8, 9})
	if ok || key != "7,8,9" {
		t.Fatalf("miss returned ok=%v key=%q", ok, key)
	}
	lib.StoreKey(key, 0.4)
	if s, ok, _ := lib.LookupOrKey([]int{7, 8, 9}); !ok || s != 0.4 {
		t.Fatalf("keyed store not visible: %v %v", s, ok)
	}
}

func TestSliceSource(t *testing.T) {
	s := NewSliceSource([]string{"a", "b"})
	if l, ok := s.Next(); !ok || l != "a" {
		t.Fatal("first line")
	}
	if l, ok := s.Next(); !ok || l != "b" {
		t.Fatal("second line")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted source must return false")
	}
}
