package tensor

// Arena is a bump allocator for the tensors of one tape-free forward pass:
// headers, shapes and float64 data come out of three slabs that Reset
// rewinds, so a warm arena serves a whole forward without touching the
// heap. Its methods mirror the package-level kernels of the same name and
// produce the same bits, but take their output from the arena and run on
// the calling goroutine — the caller has already spent its one level of
// parallelism deciding which goroutine owns this arena.
//
// An Arena is not safe for concurrent use. Everything it handed out is
// invalid after Reset: copy results out first.
type Arena struct {
	headers slab[Tensor]
	dims    slab[int]
	data    slab[float64]
}

// slab hands out consecutive pieces of one backing slice. When the slice
// runs out mid-pass it is replaced by one at least twice as large; pieces of
// the old one stay valid (their holders keep it alive) until they are
// dropped. reset then sizes the slice for everything the pass took, so one
// pass is all the warm-up a given forward needs.
type slab[T any] struct {
	buf   []T
	used  int // of buf
	taken int // since the last reset, over every buf of the pass
}

func (s *slab[T]) take(n int) []T {
	if s.used+n > len(s.buf) {
		s.buf = make([]T, max(2*len(s.buf), n, 64))
		s.used = 0
	}
	p := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	s.taken += n
	return p
}

func (s *slab[T]) reset() {
	if s.taken > len(s.buf) {
		s.buf = make([]T, s.taken)
	}
	s.used, s.taken = 0, 0
}

// Reset makes the arena's whole capacity available again.
func (ar *Arena) Reset() {
	ar.headers.reset()
	ar.dims.reset()
	ar.data.reset()
}

// New returns a zero-filled tensor with the given shape, like New.
func (ar *Arena) New(shape ...int) *Tensor {
	t := ar.header(nil, shape)
	t.Data = ar.data.take(t.mustSize())
	clear(t.Data)
	return t
}

// Reshape returns a view of t's data with a new shape, like Tensor.Reshape;
// only the header comes from the arena.
func (ar *Arena) Reshape(t *Tensor, shape ...int) *Tensor {
	v := ar.header(t.Data, shape)
	resolveShape(v.Shape, t)
	return v
}

// header builds a tensor header over data with a copy of shape.
func (ar *Arena) header(data []float64, shape []int) *Tensor {
	t := &ar.headers.take(1)[0]
	t.Shape = ar.dims.take(len(shape))
	copy(t.Shape, shape)
	t.Data = data
	return t
}

// MatMul is the package-level MatMul over the arena.
func (ar *Arena) MatMul(a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b)
	out := ar.New(m, n)
	matMulRows(out.Data, a.Data, b.Data, 0, m, k, n)
	return out
}

// BMM is the package-level BMM over the arena.
func (ar *Arena) BMM(a, b *Tensor) *Tensor {
	bs, m, k, n := bmmDims(a, b)
	out := ar.New(bs, m, n)
	bmmRows(out.Data, a.Data, b.Data, 0, bs*m, m, k, n)
	return out
}

// TransposeLast2 is the package-level TransposeLast2 over the arena.
func (ar *Arena) TransposeLast2(a *Tensor) *Tensor {
	a.mustDims(3)
	bs, m, n := a.Shape[0], a.Shape[1], a.Shape[2]
	out := ar.New(bs, n, m)
	transposeLast2(out.Data, a.Data, 0, bs, m, n)
	return out
}

// SoftmaxLastDim is the package-level SoftmaxLastDim over the arena, for
// tensors of at least one dimension.
func (ar *Arena) SoftmaxLastDim(a *Tensor) *Tensor {
	n := a.Shape[len(a.Shape)-1]
	out := ar.New(a.Shape...)
	if n > 0 {
		softmaxRows(out.Data, a.Data, 0, a.Size()/n, n)
	}
	return out
}
