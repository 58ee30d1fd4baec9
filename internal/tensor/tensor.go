// Package tensor provides dense, row-major float64 tensors and the raw
// numeric kernels the rest of the project builds on. It is deliberately
// small: shapes, element-wise arithmetic, matrix multiplication, batched
// matrix multiplication, reductions, and row softmax. Automatic
// differentiation lives one level up in internal/nn.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float64 array with an explicit shape.
// A Tensor with an empty shape is a scalar holding one element.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...)}
	t.Data = make([]float64, t.mustSize())
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied; len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.mustSize() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), t.Shape))
	}
	return t
}

// mustSize is Size for a shape a caller just supplied: it rejects negative
// dimensions. Constructors format t.Shape, their own copy, in panics —
// formatting the variadic parameter would move every caller's shape
// argument to the heap.
func (t *Tensor) mustSize() int {
	for _, d := range t.Shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, t.Shape))
		}
	}
	return t.Size()
}

// Scalar returns a 0-dimensional tensor holding v.
func Scalar(v float64) *Tensor {
	return &Tensor{Shape: []int{}, Data: []float64{v}}
}

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.Shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rows returns the first dimension of a matrix (panics unless 2-D).
func (t *Tensor) Rows() int {
	t.mustDims(2)
	return t.Shape[0]
}

// Cols returns the second dimension of a matrix (panics unless 2-D).
func (t *Tensor) Cols() int {
	t.mustDims(2)
	return t.Shape[1]
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

func (t *Tensor) mustDims(n int) {
	if len(t.Shape) != n {
		panic(fmt.Sprintf("tensor: want %d dims, have shape %v", n, t.Shape))
	}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the same data with a new shape. One dimension
// may be -1, in which case it is inferred from the element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	v := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	resolveShape(v.Shape, t)
	return v
}

// resolveShape fills in shape's -1 dimension (at most one) from t's element
// count, in place, and checks that shape then holds exactly t's elements.
func resolveShape(shape []int, t *Tensor) {
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: at most one -1 dimension allowed in Reshape")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || t.Size()%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.Shape, shape))
		}
		shape[infer] = t.Size() / known
		known *= shape[infer]
	}
	if known != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to zero.
func (t *Tensor) Zero() { t.Fill(0) }

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if t.Size() <= 16 {
		var b strings.Builder
		fmt.Fprintf(&b, "Tensor%v%v", t.Shape, t.Data)
		return b.String()
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.Shape, t.Size())
}
