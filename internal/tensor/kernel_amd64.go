package tensor

// useAVX2 selects the AVX2 row kernel in matMulRows. It is set once, at
// package init, from what the CPU and the OS report; only tests change it,
// to run each kernel the host has.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX and AVX2 and the OS saves the
// YMM registers across context switches.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const sse, ymm = 1 << 1, 1 << 2 // XCR0: the OS saves XMM and YMM state
	if xcr0, _ := xgetbv(); xcr0&(sse|ymm) != sse|ymm {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// addRowsAVX2 adds arow[p]*b[p*n+j] into o[j] for every column j < n =
// len(o) and every p with arow[p] != 0, in ascending p: a separate
// multiply and add per p, as matMulRows' Go loop does. It gathers those p
// into nz first; len(arow) <= nzTile, and the caller guarantees
// len(b) >= len(arow)*n.
//
//go:noescape
func addRowsAVX2(o, arow, b []float64, nz *[nzTile]int32)
