package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"logsynergy/internal/tensor"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestInferenceGraphMatchesTape runs an encoder on a tape and, twice, on one
// recycled inference graph: same bits every time, and the second pass takes
// nothing from the heap.
func TestInferenceGraphMatchesTape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := NewParamSet()
	enc := NewTransformerEncoder(ps, "enc", rng, 6, 8, 2, 12, 2, 0.1)
	x := tensor.Randn(rng, 1, 3, 5, 6)

	tape := NewGraph()
	want := enc.EncodePooled(tape, tape.Const(x), rng, false).Value

	g := NewInferenceGraph()
	for pass := 0; pass < 2; pass++ {
		g.Reset()
		got := enc.EncodePooled(g, g.Const(x), rng, false).Value
		if !got.SameShape(want) {
			t.Fatalf("pass %d: shape %v, want %v", pass, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("pass %d: [%d] = %v, tape has %v", pass, i, got.Data[i], want.Data[i])
			}
		}
	}
	if g.NumNodes() != 0 {
		t.Fatalf("inference graph recorded %d tape nodes", g.NumNodes())
	}
	allocs := testing.AllocsPerRun(20, func() {
		g.Reset()
		enc.EncodePooled(g, g.Const(x), rng, false)
	})
	if allocs != 0 {
		t.Fatalf("a warm inference forward allocated %.0f times", allocs)
	}
}

// TestAddBiasInPlaceOnlyOnFreshOutput: the bias goes into x's buffer only
// when x is the operation output the graph produced last; any other x —
// a constant, or a node something else was computed after — is copied.
func TestAddBiasInPlaceOnlyOnFreshOutput(t *testing.T) {
	g := NewInferenceGraph()
	bias := g.Const(tensor.FromSlice([]float64{10, 20}, 2))
	in := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)

	if out := g.AddBias(g.Const(in), bias); out.Value == in || in.Data[0] != 1 {
		t.Fatal("AddBias wrote into a constant input")
	}
	a := g.Scale(g.Const(in), 1)
	g.Scale(g.Const(in), 2) // a is no longer the last output
	if out := g.AddBias(a, bias); out.Value == a.Value || a.Value.Data[0] != 1 {
		t.Fatal("AddBias wrote into an output that was not the last one")
	}
	// The shape of Linear.Forward: the bias is lifted after the product.
	w := NewParam("w", tensor.FromSlice([]float64{1, 0, 0, 1}, 2, 2))
	b := g.MatMul(g.Const(in), g.Param(w))
	out := g.AddBias(b, g.Param(NewParam("b", bias.Value)))
	if out.Value != b.Value {
		t.Fatal("AddBias copied the graph's last output instead of adding in place")
	}
	if g.AddBias(g.Reshape(g.Scale(g.Const(in), 1), 4, 1), g.Const(tensor.New(1))).Value.Data[0] != 1 {
		t.Fatal("AddBias through a view")
	}
	for i, want := range []float64{11, 22, 13, 24} {
		if out.Value.Data[i] != want {
			t.Fatalf("AddBias[%d] = %v, want %v", i, out.Value.Data[i], want)
		}
	}
}

func TestInferenceGraphRefusesTapeOnlyWork(t *testing.T) {
	g := NewInferenceGraph()
	x := g.Const(tensor.FromSlice([]float64{1, 2}, 2))
	mustPanic(t, "an operation without a tape-free form", func() { g.Sigmoid(x) })
	mustPanic(t, "Backward", func() { g.Backward(g.Scale(x, 2)) })
}

// TestPositionalColdCacheConcurrent: many workers miss the positional cache
// at once, on one length and on several (run under -race).
func TestPositionalColdCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	enc := NewTransformerEncoder(NewParamSet(), "enc", rng, 4, 8, 2, 8, 1, 0)
	tables := make([]*tensor.Tensor, 16)
	var wg sync.WaitGroup
	for w := range tables {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := NewInferenceGraph()
			length := 3 + w%4
			enc.Forward(g, g.Const(tensor.New(2, length, 4)), nil, false)
			tables[w] = enc.positional(length)
		}(w)
	}
	wg.Wait()
	for w, pe := range tables {
		if pe != enc.positional(3+w%4) || pe.Shape[0] != 3+w%4 {
			t.Fatalf("worker %d saw a positional table that was not the published one", w)
		}
	}
}
