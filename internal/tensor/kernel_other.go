//go:build !amd64

package tensor

// useAVX2 is false off amd64: matMulRows' Go loop is the only row kernel.
var useAVX2 = false

func addRowsAVX2(o, arow, b []float64, nz *[nzTile]int32) {
	panic("tensor: the AVX2 row kernel exists only on amd64")
}
