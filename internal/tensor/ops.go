package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b element-wise. Shapes must match exactly.
func Add(a, b *Tensor) *Tensor {
	mustSameShape("Add", a, b)
	out := New(a.Shape...)
	ParallelRange(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
	})
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	mustSameShape("Sub", a, b)
	out := New(a.Shape...)
	ParallelRange(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] - b.Data[i]
		}
	})
	return out
}

// Mul returns the element-wise (Hadamard) product.
func Mul(a, b *Tensor) *Tensor {
	mustSameShape("Mul", a, b)
	out := New(a.Shape...)
	ParallelRange(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] * b.Data[i]
		}
	})
	return out
}

// Scale returns a*s.
func Scale(a *Tensor, s float64) *Tensor {
	out := New(a.Shape...)
	ParallelRange(len(a.Data), len(a.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Data[i] = a.Data[i] * s
		}
	})
	return out
}

// AddInPlace accumulates src into dst (dst += src).
func AddInPlace(dst, src *Tensor) {
	mustSameShape("AddInPlace", dst, src)
	ParallelRange(len(dst.Data), len(dst.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Data[i] += src.Data[i]
		}
	})
}

// AddScaledInPlace accumulates s*src into dst.
func AddScaledInPlace(dst *Tensor, src *Tensor, s float64) {
	mustSameShape("AddScaledInPlace", dst, src)
	ParallelRange(len(dst.Data), len(dst.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst.Data[i] += s * src.Data[i]
		}
	})
}

// MatMul returns the matrix product of 2-D tensors a [m,k] and b [k,n].
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b)
	out := New(m, n)
	// Fresh buffers are already zero; accumulate into them directly.
	matMulInto(out.Data, a.Data, b.Data, m, k, n, true)
	return out
}

// matMulDims checks a [m,k] against b [k,n].
func matMulDims(a, b *Tensor) (m, k, n int) {
	a.mustDims(2)
	b.mustDims(2)
	if a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

// MatMulInto computes out += a@b when accumulate, else out = a@b, reusing
// out's storage. All operands are 2-D with compatible shapes.
func MatMulInto(out, a, b *Tensor, accumulate bool) {
	a.mustDims(2)
	b.mustDims(2)
	out.mustDims(2)
	m, k := a.Shape[0], a.Shape[1]
	if b.Shape[0] != k || out.Shape[0] != m || out.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch out=%v a=%v b=%v", out.Shape, a.Shape, b.Shape))
	}
	matMulInto(out.Data, a.Data, b.Data, m, k, b.Shape[1], accumulate)
}

// matMulInto dispatches between the serial kernel and the row-sharded
// parallel path. Both produce bit-identical results: each output row is
// always computed by matMulRows in the same per-row order, the parallel
// path merely assigns disjoint row spans to different workers.
func matMulInto(out, a, b []float64, m, k, n int, accumulate bool) {
	if !accumulate {
		clear(out[:m*n])
	}
	ParallelRange(m, 2*m*k*n, func(lo, hi int) {
		matMulRows(out, a, b, lo, hi, k, n)
	})
}

// nzTile is how many entries of a row of a matMulRows scans for nonzeros
// at a time (the index scratch lives on the stack).
const nzTile = 64

// matMulRows accumulates rows [i0,i1) of a@b into out, on the calling
// goroutine: a is [·,k], b is [k,n], out is [·,n], all row-major. It is
// the single source of truth for matrix multiplication — MatMul,
// MatMulInto and BMM, sharded onto the pool or serial over an Arena, all
// land here.
//
// Per output element it adds the products a[i,p]*b[p,j] in ascending p and
// skips every p with a[i,p] == 0 (real work saved behind a ReLU, and what
// keeps 0*Inf from becoming NaN). A row is taken a tile of nzTile entries
// at a time by one of two kernels, which gather the tile's nonzero p and
// then do the same additions in the same order, each a multiply rounded
// before its add, so the result does not depend on which one runs:
//   - addRowsAVX2 (kernel_amd64.s), where the CPU has AVX2: it gathers
//     without a branch, holds the output row in YMM registers and adds one
//     broadcast a[i,p] times b's row p at a time;
//   - the Go loop below, everywhere else and the reference: it takes the
//     gathered p four at a time with the running sum held in a register
//     between the four additions.
func matMulRows(out, a, b []float64, i0, i1, k, n int) {
	var nz [nzTile]int32
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		o := out[i*n : i*n+n]
		for base := 0; base < k; base += nzTile {
			end := min(base+nzTile, k)
			if useAVX2 {
				addRowsAVX2(o, arow[base:end], b[base*n:end*n], &nz)
				continue
			}
			c := 0
			for p := base; p < end; p++ {
				if arow[p] != 0 {
					nz[c] = int32(p)
					c++
				}
			}
			q := 0
			for ; q+4 <= c; q += 4 {
				p0, p1, p2, p3 := int(nz[q]), int(nz[q+1]), int(nz[q+2]), int(nz[q+3])
				a0, a1, a2, a3 := arow[p0], arow[p1], arow[p2], arow[p3]
				b0 := b[p0*n : p0*n+n][:len(o)]
				b1 := b[p1*n : p1*n+n][:len(o)]
				b2 := b[p2*n : p2*n+n][:len(o)]
				b3 := b[p3*n : p3*n+n][:len(o)]
				for j := range o {
					t := o[j]
					t += a0 * b0[j]
					t += a1 * b1[j]
					t += a2 * b2[j]
					t += a3 * b3[j]
					o[j] = t
				}
			}
			for ; q < c; q++ {
				p0 := int(nz[q])
				a0 := arow[p0]
				b0 := b[p0*n : p0*n+n][:len(o)]
				for j := range o {
					o[j] += a0 * b0[j]
				}
			}
		}
	}
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	a.mustDims(2)
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	ParallelRange(m, m*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				out.Data[j*m+i] = a.Data[i*n+j]
			}
		}
	})
	return out
}

// BMM returns the batched matrix product of 3-D tensors a [b,m,k] and
// b [b,k,n], producing [b,m,n]. The parallel path shards the flattened
// batch×row space, so small batches of tall matrices and large batches of
// small matrices both spread across all workers.
func BMM(a, b *Tensor) *Tensor {
	bs, m, k, n := bmmDims(a, b)
	out := New(bs, m, n)
	// Fresh buffer: accumulate to skip redundant zeroing.
	ParallelRange(bs*m, 2*bs*m*k*n, func(lo, hi int) {
		bmmRows(out.Data, a.Data, b.Data, lo, hi, m, k, n)
	})
	return out
}

// bmmDims checks a [bs,m,k] against b [bs,k,n].
func bmmDims(a, b *Tensor) (bs, m, k, n int) {
	a.mustDims(3)
	b.mustDims(3)
	if b.Shape[0] != a.Shape[0] || b.Shape[1] != a.Shape[2] {
		panic(fmt.Sprintf("tensor: BMM shape mismatch %v x %v", a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], a.Shape[2], b.Shape[2]
}

// bmmRows accumulates rows [lo,hi) of the flattened batch×row space: row r
// is row r%m of batch entry r/m.
func bmmRows(out, a, b []float64, lo, hi, m, k, n int) {
	for r := lo; r < hi; {
		q, i := r/m, r%m
		end := min(m, i+hi-r) // the rest of this batch entry, or of the span
		matMulRows(out[q*m*n:(q+1)*m*n], a[q*m*k:(q+1)*m*k], b[q*k*n:(q+1)*k*n], i, end, k, n)
		r += end - i
	}
}

// TransposeLast2 swaps the last two dimensions of a 3-D tensor.
func TransposeLast2(a *Tensor) *Tensor {
	a.mustDims(3)
	bs, m, n := a.Shape[0], a.Shape[1], a.Shape[2]
	out := New(bs, n, m)
	ParallelRange(bs, bs*m*n, func(lo, hi int) {
		transposeLast2(out.Data, a.Data, lo, hi, m, n)
	})
	return out
}

// transposeLast2 transposes the [m,n] matrices of batch entries [lo,hi).
func transposeLast2(out, a []float64, lo, hi, m, n int) {
	for b := lo; b < hi; b++ {
		src := a[b*m*n:]
		dst := out[b*m*n:]
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				dst[j*m+i] = src[i*n+j]
			}
		}
	}
}

// SoftmaxLastDim applies a numerically stable softmax along the final
// dimension, treating all leading dimensions as independent rows.
func SoftmaxLastDim(a *Tensor) *Tensor {
	if len(a.Shape) == 0 {
		return Scalar(1)
	}
	n := a.Shape[len(a.Shape)-1]
	out := New(a.Shape...)
	if n == 0 {
		return out
	}
	rows := a.Size() / n
	// ~4 scalar ops per element (max, exp, sum, divide); exp dominates.
	ParallelRange(rows, 4*rows*n, func(lo, hi int) {
		softmaxRows(out.Data, a.Data, lo, hi, n)
	})
	return out
}

// softmaxRows applies softmaxRow to rows [lo,hi) of length n.
func softmaxRows(out, a []float64, lo, hi, n int) {
	for r := lo; r < hi; r++ {
		softmaxRow(out[r*n:(r+1)*n], a[r*n:(r+1)*n])
	}
}

func softmaxRow(dst, src []float64) {
	maxv := math.Inf(-1)
	for _, v := range src {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range src {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Sum returns the sum of all elements. Above the parallel threshold the sum
// is computed over fixed 4096-element blocks whose partials combine in
// block order — deterministic for a given length, within reassociation
// error of the serial left-to-right sum.
func Sum(a *Tensor) float64 {
	return parallelReduce(len(a.Data), 1, func(lo, hi int) float64 {
		s := 0.0
		for _, v := range a.Data[lo:hi] {
			s += v
		}
		return s
	})
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func Mean(a *Tensor) float64 {
	if a.Size() == 0 {
		return 0
	}
	return Sum(a) / float64(a.Size())
}

// Dot returns the inner product of two tensors of identical shape, using
// the same deterministic blocked reduction as Sum.
func Dot(a, b *Tensor) float64 {
	mustSameShape("Dot", a, b)
	return parallelReduce(len(a.Data), 2, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += a.Data[i] * b.Data[i]
		}
		return s
	})
}

func mustSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}
