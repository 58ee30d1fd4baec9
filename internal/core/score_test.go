package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"logsynergy/internal/nn"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// randomDetector wires an untrained default-config model to a table of
// random event vectors: scoring cost and bits do not depend on training.
func randomDetector(seed int64, events int) *Detector {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	table := &repr.EventTable{
		System:  "test",
		Dim:     cfg.EmbedDim,
		Vectors: tensor.Randn(rng, 1, events, cfg.EmbedDim),
	}
	return NewDetector(NewModel(cfg, 3), table)
}

func randomWindows(rng *rand.Rand, n, length, events int) [][]int {
	seqs := make([][]int, n)
	for i := range seqs {
		seqs[i] = make([]int, length)
		for j := range seqs[i] {
			seqs[i][j] = rng.Intn(events)
		}
	}
	return seqs
}

// scoreOnTape is Model.Score as it was before the inference graph: the same
// forward, one pass over all of x, on an autodiff tape.
func (m *Model) scoreOnTape(x *tensor.Tensor) []float64 {
	g := nn.NewGraph()
	logits := m.forward(g, g.Const(x), false).logits.Value.Data
	out := make([]float64, len(logits))
	for i, z := range logits {
		out[i] = 1 / (1 + math.Exp(-z))
	}
	return out
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: score %d is %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestScoreSequencesUnequalLengths: runs of different lengths keep input
// order, and every score is the one ScoreSequence gives that sequence alone,
// at one worker and at several.
func TestScoreSequencesUnequalLengths(t *testing.T) {
	det := randomDetector(5, 40)
	rng := rand.New(rand.NewSource(6))
	var seqs [][]int
	for _, length := range []int{10, 10, 10, 4, 7, 7, 10, 1, 10, 10} {
		seqs = append(seqs, randomWindows(rng, 1, length, 40)...)
	}
	want := make([]float64, len(seqs))
	for i, s := range seqs {
		want[i] = det.ScoreSequence(s)
	}
	for _, workers := range []int{1, 3} {
		prev := tensor.SetParallelism(workers)
		got := det.ScoreSequences(seqs)
		tensor.SetParallelism(prev)
		sameBits(t, fmt.Sprintf("%d workers", workers), got, want)
	}
}

// TestBadEventIDIsRecoverable: an id outside the table must panic on the
// calling goroutine, where pipeline.guard can contain it, whatever the
// worker count. When ids were checked inside the pooled spans this killed
// the test binary.
func TestBadEventIDIsRecoverable(t *testing.T) {
	prev := tensor.SetParallelism(2)
	defer tensor.SetParallelism(prev)
	det := randomDetector(7, 20)
	seqs := randomWindows(rand.New(rand.NewSource(8)), 4, 10, 20)
	seqs[0][5] = det.Table.Len() // the first span is a pooled one
	recovered := func() (r any) {
		defer func() { r = recover() }()
		det.ScoreSequences(seqs)
		return nil
	}()
	if recovered == nil {
		t.Fatal("ScoreSequences accepted an event id outside the table")
	}
	seqs[0][5] = 0
	if got := det.ScoreSequences(seqs); len(got) != 4 {
		t.Fatalf("detector unusable after the contained panic: %v", got)
	}
}

// TestScoreSequencesAllocs is the gate that keeps the tape from growing
// back: a warm four-window call allocates a small constant — the stacked
// input, the result, a forward's input header, the span closures and the
// fork-join — and nothing per operation of the forward (the tape path
// allocates about 700 times per window).
func TestScoreSequencesAllocs(t *testing.T) {
	det := randomDetector(9, 50)
	seqs := randomWindows(rand.New(rand.NewSource(10)), 4, 10, 50)
	for _, workers := range []int{1, 2} {
		prev := tensor.SetParallelism(workers)
		det.ScoreSequences(seqs) // warm the arenas
		allocs := testing.AllocsPerRun(50, func() { det.ScoreSequences(seqs) })
		tensor.SetParallelism(prev)
		if allocs > 16 {
			t.Errorf("%d workers: %.0f allocations per warm ScoreSequences call, want at most 16", workers, allocs)
		}
	}
}

// TestScoringScratchSurvivesGC: the warm arenas are not the collector's to
// drop. Behind a sync.Pool two collections emptied them, and the next
// scoring call grew megabytes of arena again — in a serving process, at
// whatever moment the collector had last run.
func TestScoringScratchSurvivesGC(t *testing.T) {
	det := randomDetector(9, 50)
	seqs := randomWindows(rand.New(rand.NewSource(10)), 4, 10, 50)
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	det.ScoreSequences(seqs) // warm the arena
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	det.ScoreSequences(seqs)
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 16<<10 {
		t.Errorf("a scoring call after two collections allocated %d bytes: its arena was dropped", grown)
	}
}

// FuzzScoreModes: the inference graph and the autodiff tape run the same
// forward and must agree bit for bit, for any small architecture and input.
func FuzzScoreModes(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(2), uint8(5), uint8(6), true)
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), false)
	f.Add(int64(3), uint8(4), uint8(2), uint8(3), uint8(19), uint8(10), true)
	f.Add(int64(4), uint8(3), uint8(5), uint8(0), uint8(40), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, heads, perHead, depth, b, tl uint8, sufe bool) {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Heads = 1 + int(heads%4)
		cfg.ModelDim = cfg.Heads * 2 * (1 + int(perHead%6)) // even, so SUFE can halve it
		cfg.EmbedDim = 1 + int(perHead%7)
		cfg.FFDim = 1 + int(seed&15)
		cfg.Depth = int(depth % 3)
		cfg.UseSUFE = sufe
		m := NewModel(cfg, 2)
		rng := rand.New(rand.NewSource(seed))
		x := tensor.Randn(rng, 1, 1+int(b%48), 1+int(tl%12), cfg.EmbedDim)
		// ReLU makes exact zeros; put some in the input too.
		for i := range x.Data {
			if rng.Intn(4) == 0 {
				x.Data[i] = 0
			}
		}
		want := m.scoreOnTape(x)
		for _, batch := range []int{0, 1, 5} {
			sameBits(t, fmt.Sprintf("batch %d", batch), m.Score(x, batch), want)
		}
	})
}

// BenchmarkScoreSequences is the detector's inner loop at the pipeline's
// flush size on a 2-CPU host (b4) and at a large batch (b64).
func BenchmarkScoreSequences(b *testing.B) {
	det := randomDetector(11, 200)
	for _, n := range []int{4, 64} {
		seqs := randomWindows(rand.New(rand.NewSource(12)), n, 10, 200)
		b.Run(fmt.Sprintf("b%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				det.ScoreSequences(seqs)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}
