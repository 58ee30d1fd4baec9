package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// matMulPlain is the kernel's specification: for each output element, add
// a[i,p]*b[p,j] in ascending p, one product at a time, skipping a[i,p] == 0.
func matMulPlain(out, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i*n+j] += av * b[p*n+j]
			}
		}
	}
}

// leftOperand fills an [m,k] operand with normal samples, each entry zero
// with probability zeros.
func leftOperand(rng *rand.Rand, m, k int, zeros float64) []float64 {
	a := make([]float64, m*k)
	for i := range a {
		if rng.Float64() >= zeros {
			a[i] = rng.NormFloat64()
		}
	}
	return a
}

// TestMatMulRowsMatchesPlainLoop pins the register-blocked kernel to the
// plain loop bit for bit: blocking must not reorder an addition or drop
// (or add) a skipped product.
func TestMatMulRowsMatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := [][3]int{
		{1, 1, 1}, {3, 2, 5}, {4, 3, 1}, {5, 4, 7}, {2, 5, 9}, {7, 7, 3}, {3, 13, 6},
		{10, 16, 10}, {10, 10, 16}, {40, 32, 32}, {40, 32, 64}, {40, 64, 32},
		{2, nzTile - 1, 5}, {2, nzTile, 5}, {2, nzTile + 1, 5}, {3, 2*nzTile + 3, 11},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		for _, zeros := range []float64{0, 0.5, 0.9, 1} {
			a := leftOperand(rng, m, k, zeros)
			b := leftOperand(rng, k, n, 0)
			if m > 1 {
				clear(a[k : 2*k]) // an all-zero row among the others
			}
			a[0] = math.Copysign(0, -1) // -0.0 is skipped like +0.0
			// ±Inf in b opposite a zero in a: the skip is what keeps 0*Inf
			// from poisoning the row with NaN.
			a[k-1] = 0
			b[(k-1)*n] = math.Inf(1)
			b[(k-1)*n+n-1] = math.Inf(-1)

			seed := leftOperand(rng, m, n, 0) // the kernel accumulates into out
			want := append([]float64(nil), seed...)
			got := append([]float64(nil), seed...)
			matMulPlain(want, a, b, m, k, n)
			matMulRows(got, a, b, 0, m, k, n)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("[%d,%d]x[%d,%d] zeros=%.1f: out[%d] = %v, plain loop has %v",
						m, k, k, n, zeros, i, got[i], want[i])
				}
			}
			if math.IsNaN(got[0]) {
				t.Fatalf("[%d,%d]x[%d,%d]: 0*Inf leaked a NaN", m, k, k, n)
			}
		}
	}
}

// TestArenaMatchesHeapKernels: the arena's serial kernels and the pooled
// package-level ones produce the same tensors, pass after pass.
func TestArenaMatchesHeapKernels(t *testing.T) {
	forceParallel(t, 3)
	rng := rand.New(rand.NewSource(18))
	a2, b2 := Randn(rng, 1, 7, 5), Randn(rng, 1, 5, 9)
	a3, b3 := Randn(rng, 1, 4, 6, 5), Randn(rng, 1, 4, 5, 3)
	var ar Arena
	same := func(what string, got, want *Tensor) {
		t.Helper()
		if !got.SameShape(want) {
			t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: [%d] = %v, want %v", what, i, got.Data[i], want.Data[i])
			}
		}
	}
	for pass := 0; pass < 3; pass++ {
		ar.Reset()
		same("MatMul", ar.MatMul(a2, b2), MatMul(a2, b2))
		same("BMM", ar.BMM(a3, b3), BMM(a3, b3))
		same("TransposeLast2", ar.TransposeLast2(a3), TransposeLast2(a3))
		same("SoftmaxLastDim", ar.SoftmaxLastDim(a3), SoftmaxLastDim(a3))
		same("Reshape", ar.Reshape(a3, 8, -1), a3.Reshape(8, -1))
		z := ar.New(3, 4)
		same("New", z, New(3, 4)) // zero-filled even over a used slab
		z.Fill(7)
	}
	before := ar.New(2, 2)
	before.Fill(1)
	ar.New(1 << 16) // outgrows the slab; earlier tensors stay intact
	if before.Data[3] != 1 {
		t.Fatal("growing the arena clobbered a live tensor")
	}
	ar.Reset()
	if allocs := testing.AllocsPerRun(10, func() {
		ar.Reset()
		ar.BMM(a3, b3)
		ar.New(1 << 16)
	}); allocs != 0 {
		t.Fatalf("a warm arena allocated %.0f times per pass", allocs)
	}

	// One pass is all the warm-up: a cold arena that grew several times
	// inside its first pass is sized for the whole of it by Reset.
	var cold Arena
	pass := func() {
		for i := 0; i < 40; i++ {
			cold.BMM(a3, b3)
			cold.Reshape(a3, 8, -1)
		}
		cold.Reset()
	}
	pass()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pass()
	runtime.ReadMemStats(&m1)
	if allocs := m1.Mallocs - m0.Mallocs; allocs != 0 {
		t.Fatalf("the second pass of an arena allocated %d times", allocs)
	}
}

// BenchmarkMatMulRows times the row kernel on the three shapes one window's
// forward runs (forty rows: four windows of ten events), with a dense left
// operand and with a ReLU-like half-zero one.
func BenchmarkMatMulRows(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	for _, s := range [][3]int{{40, 32, 32}, {40, 32, 64}, {40, 64, 32}} {
		m, k, n := s[0], s[1], s[2]
		for _, zeros := range []float64{0, 0.5} {
			a := leftOperand(rng, m, k, zeros)
			w := leftOperand(rng, k, n, 0)
			out := make([]float64, m*n)
			kind := "dense"
			if zeros > 0 {
				kind = "half_zero"
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", m, k, n, kind), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					clear(out)
					matMulRows(out, a, w, 0, m, k, n)
				}
			})
		}
	}
}
