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

// rowKernel is one of matMulRows' kernels, by the useAVX2 value that
// selects it.
type rowKernel struct {
	name string
	avx2 bool
}

// hostKernels are the row kernels this host runs: the Go loop, and the
// AVX2 one where the CPU has it (useAVX2 as package init set it).
var hostKernels = func() []rowKernel {
	ks := []rowKernel{{"go", false}}
	if useAVX2 {
		ks = append(ks, rowKernel{"avx2", true})
	}
	return ks
}()

// sameAsPlain runs each row kernel the host has over a copy of seed (a
// kernel accumulates into out) and fails unless every output has the plain
// loop's bits.
func sameAsPlain(t *testing.T, what string, seed, a, b []float64, m, k, n int) []float64 {
	t.Helper()
	want := append([]float64(nil), seed...)
	matMulPlain(want, a, b, m, k, n)
	defer func(host bool) { useAVX2 = host }(useAVX2)
	for _, kern := range hostKernels {
		useAVX2 = kern.avx2
		got := append([]float64(nil), seed...)
		matMulRows(got, a, b, 0, m, k, n)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s kernel, %s [%d,%d]x[%d,%d]: out[%d] = %v (%#x), plain loop has %v (%#x)",
					kern.name, what, m, k, k, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	return want
}

// TestMatMulRowsMatchesPlainLoop pins every row kernel the host has to the
// plain loop bit for bit: blocking, vector strips and the gather must not
// reorder an addition, fuse a multiply into it, or drop (or add) a skipped
// product.
func TestMatMulRowsMatchesPlainLoop(t *testing.T) {
	t.Logf("row kernels on this host: %v", hostKernels)
	rng := rand.New(rand.NewSource(17))
	shapes := [][3]int{
		{1, 1, 1}, {3, 2, 5}, {4, 3, 1}, {5, 4, 7}, {2, 5, 9}, {7, 7, 3}, {3, 13, 6},
		{10, 16, 10}, {10, 10, 16}, {40, 32, 32}, {40, 32, 64}, {40, 64, 32},
		{2, nzTile - 1, 5}, {2, nzTile, 5}, {2, nzTile + 1, 5}, {3, 2*nzTile + 3, 11},
	}
	// Every column strip boundary of a kernel that takes a row 16, then 4,
	// then 1 column at a time, each with k short of, on and past a tile.
	for _, n := range []int{1, 3, 4, 5, 15, 16, 17, 20, 31, 33, 64} {
		for _, k := range []int{1, 6, nzTile - 1, nzTile, nzTile + 1, 2*nzTile + 3} {
			shapes = append(shapes, [3]int{3, k, n})
		}
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		for _, zeros := range []float64{0, 0.5, 0.9, 1} {
			a := leftOperand(rng, m, k, zeros)
			b := leftOperand(rng, k, n, 0)
			seed := leftOperand(rng, m, n, 0) // the kernel accumulates into out
			if m > 1 {
				clear(a[k : 2*k]) // an all-zero row among the others
			}
			if m > 2 {
				// Subnormals: a row of a and its row of out scaled down to
				// them, so products and sums underflow and round there.
				for p := 2 * k; p < 3*k; p++ {
					a[p] *= 0x1p-1060
				}
				for j := 2 * n; j < 3*n; j++ {
					seed[j] *= 0x1p-1060
				}
			}
			b[n-1] = 5e-324             // the smallest subnormal, times every other row
			a[0] = math.Copysign(0, -1) // -0.0 is skipped like +0.0
			// ±Inf in b opposite a zero in a: the skip is what keeps 0*Inf
			// from poisoning the row with NaN.
			a[k-1] = 0
			b[(k-1)*n] = math.Inf(1)
			b[(k-1)*n+n-1] = math.Inf(-1)

			got := sameAsPlain(t, fmt.Sprintf("zeros=%.1f", zeros), seed, a, b, m, k, n)
			if math.IsNaN(got[0]) {
				t.Fatalf("[%d,%d]x[%d,%d]: 0*Inf leaked a NaN", m, k, k, n)
			}
		}
	}
}

// FuzzMatMulRows checks the row kernel against the plain loop bit for bit
// over random shapes, shares of zeros and shares of special values: -0,
// ±Inf, subnormals and values whose products overflow, so that sums of
// opposite infinities make NaNs mid-row. NaN is not an input: where both
// operands of an addition are NaN, x86 keeps the first one's payload, and
// the compiler does not promise which operand of a commutative op comes
// first; every NaN an Inf-Inf makes has the one default payload.
func FuzzMatMulRows(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(31), uint8(31), uint8(0), uint8(0))
	f.Add(int64(2), uint8(9), uint8(15), uint8(9), uint8(128), uint8(16))
	f.Add(int64(3), uint8(1), uint8(nzTile), uint8(16), uint8(200), uint8(64))
	f.Add(int64(4), uint8(0), uint8(4), uint8(0), uint8(255), uint8(255))
	f.Add(int64(5), uint8(39), uint8(63), uint8(32), uint8(40), uint8(8))
	specials := []float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		5e-324, -0x1p-1060, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
	}
	f.Fuzz(func(t *testing.T, seed int64, m, k, n, zeros, special uint8) {
		mm, kk, nn := 1+int(m%48), 1+int(k), 1+int(n%80)
		rng := rand.New(rand.NewSource(seed))
		fill := func(x []float64, zeroShare float64) []float64 {
			for i := range x {
				switch r := rng.Float64(); {
				case r < zeroShare:
					x[i] = 0
				case r < zeroShare+float64(special)/512:
					x[i] = specials[rng.Intn(len(specials))]
				default:
					x[i] = rng.NormFloat64()
				}
			}
			return x
		}
		a := fill(make([]float64, mm*kk), float64(zeros)/256)
		b := fill(make([]float64, kk*nn), 0)
		out := fill(make([]float64, mm*nn), 0)
		sameAsPlain(t, fmt.Sprintf("seed=%d", seed), out, a, b, mm, kk, nn)
	})
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

// BenchmarkMatMulRows times the row kernel on the shapes a batch of four
// ten-event windows runs through the default model, with a dense left
// operand and with a ReLU-like half-zero one: the three projections over
// forty rows, one head's attention scores and mix (10x16x10, 10x10x16),
// and the anomaly readout's single column (40x16x1).
func BenchmarkMatMulRows(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	for _, s := range [][3]int{{40, 32, 32}, {40, 32, 64}, {40, 64, 32}, {10, 16, 10}, {10, 10, 16}, {40, 16, 1}} {
		m, k, n := s[0], s[1], s[2]
		for _, zeros := range []float64{0, 0.5} {
			a := leftOperand(rng, m, k, zeros)
			w := leftOperand(rng, k, n, 0)
			out := make([]float64, m*n)
			kind := "dense"
			if zeros > 0 {
				kind = "half_zero"
			}
			for _, kern := range hostKernels {
				b.Run(fmt.Sprintf("%dx%dx%d/%s/%s", m, k, n, kind, kern.name), func(b *testing.B) {
					defer func(host bool) { useAVX2 = host }(useAVX2)
					useAVX2 = kern.avx2
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						clear(out)
						matMulRows(out, a, w, 0, m, k, n)
					}
				})
			}
		}
	}
}
