#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// gather<>+16*m lists, as four int32, the lanes of a four-lane mask m that
// are set, in ascending order, padded with zeros; gather<>+256+m is how
// many there are.
DATA gather<>+0(SB)/8, $0x0000000000000000
DATA gather<>+8(SB)/8, $0x0000000000000000
DATA gather<>+16(SB)/8, $0x0000000000000000
DATA gather<>+24(SB)/8, $0x0000000000000000
DATA gather<>+32(SB)/8, $0x0000000000000001
DATA gather<>+40(SB)/8, $0x0000000000000000
DATA gather<>+48(SB)/8, $0x0000000100000000
DATA gather<>+56(SB)/8, $0x0000000000000000
DATA gather<>+64(SB)/8, $0x0000000000000002
DATA gather<>+72(SB)/8, $0x0000000000000000
DATA gather<>+80(SB)/8, $0x0000000200000000
DATA gather<>+88(SB)/8, $0x0000000000000000
DATA gather<>+96(SB)/8, $0x0000000200000001
DATA gather<>+104(SB)/8, $0x0000000000000000
DATA gather<>+112(SB)/8, $0x0000000100000000
DATA gather<>+120(SB)/8, $0x0000000000000002
DATA gather<>+128(SB)/8, $0x0000000000000003
DATA gather<>+136(SB)/8, $0x0000000000000000
DATA gather<>+144(SB)/8, $0x0000000300000000
DATA gather<>+152(SB)/8, $0x0000000000000000
DATA gather<>+160(SB)/8, $0x0000000300000001
DATA gather<>+168(SB)/8, $0x0000000000000000
DATA gather<>+176(SB)/8, $0x0000000100000000
DATA gather<>+184(SB)/8, $0x0000000000000003
DATA gather<>+192(SB)/8, $0x0000000300000002
DATA gather<>+200(SB)/8, $0x0000000000000000
DATA gather<>+208(SB)/8, $0x0000000200000000
DATA gather<>+216(SB)/8, $0x0000000000000003
DATA gather<>+224(SB)/8, $0x0000000200000001
DATA gather<>+232(SB)/8, $0x0000000000000003
DATA gather<>+240(SB)/8, $0x0000000100000000
DATA gather<>+248(SB)/8, $0x0000000300000002
DATA gather<>+256(SB)/8, $0x0302020102010100
DATA gather<>+264(SB)/8, $0x0403030203020201
GLOBL gather<>(SB), RODATA|NOPTR, $272

// func addRowsAVX2(o, arow, b []float64, nz *[nzTile]int32)
//
// First the gather: four entries of arow at a time are compared with zero
// (VCMPPD NEQ_UQ, so -0 is skipped and NaN is not, as Go's != has it), the
// mask picks the set lanes' indices from gather<>, and all four are stored
// at nz[c] while c advances by the mask's count, so the next store
// overwrites the padding; the last len(arow)%4 entries go one at a time.
// No store reaches past nz[len(arow)-1].
//
// Then the output row is held in YMM accumulators, 16 columns (four
// registers) at a time, then 4, then one in a scalar VEX tail. For each
// gathered p in order, a[p] is broadcast, multiplied by the strip of b's
// row p and added to the accumulators: VMULPD then VADDPD, never a fused
// multiply-add, which would round once and change bits.
//
// DI: o, R8: n = len(o), SI: arow, R13: len(arow), DX: b, R9: nz,
// R14: gather<>, R10: c = the number gathered, R11: n*8 (the byte stride
// of b's rows), BX: the strip's first column, R12: &b[0, BX], CX: p while
// gathering, then the index into nz, AX: scratch, then p, then p*n*8.
TEXT ·addRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), R8
	MOVQ arow_base+24(FP), SI
	MOVQ arow_len+32(FP), R13
	MOVQ b_base+48(FP), DX
	MOVQ nz+72(FP), R9
	LEAQ gather<>(SB), R14
	VXORPD Y15, Y15, Y15
	XORQ CX, CX
	XORQ R10, R10

gather4:
	LEAQ 4(CX), AX
	CMPQ AX, R13
	JGT  gather1
	VCMPPD $4, (SI)(CX*8), Y15, Y0
	VMOVMSKPD Y0, AX
	MOVQ AX, R12
	SHLQ $4, R12
	VMOVD CX, X1
	VPBROADCASTD X1, X1
	VPADDD (R14)(R12*1), X1, X1
	VMOVDQU X1, (R9)(R10*4)
	MOVBQZX 256(R14)(AX*1), AX
	ADDQ AX, R10
	ADDQ $4, CX
	JMP  gather4

gather1:
	CMPQ CX, R13
	JGE  gathered
	VCMPSD $4, (SI)(CX*8), X15, X0
	VMOVMSKPD X0, AX
	ANDQ $1, AX
	MOVL CX, (R9)(R10*4)
	ADDQ AX, R10
	INCQ CX
	JMP  gather1

gathered:
	TESTQ R10, R10
	JEQ   done
	MOVQ R8, R11
	SHLQ $3, R11
	XORQ BX, BX

strip16:
	LEAQ 16(BX), AX
	CMPQ AX, R8
	JGT  strip4
	VMOVUPD 0(DI)(BX*8), Y0
	VMOVUPD 32(DI)(BX*8), Y1
	VMOVUPD 64(DI)(BX*8), Y2
	VMOVUPD 96(DI)(BX*8), Y3
	LEAQ (DX)(BX*8), R12
	XORQ CX, CX

loop16:
	CMPQ CX, R10
	JGE  store16
	MOVLQSX (R9)(CX*4), AX
	VBROADCASTSD (SI)(AX*8), Y4
	IMULQ R11, AX
	VMULPD 0(R12)(AX*1), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R12)(AX*1), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R12)(AX*1), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R12)(AX*1), Y4, Y8
	VADDPD Y8, Y3, Y3
	INCQ CX
	JMP  loop16

store16:
	VMOVUPD Y0, 0(DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	ADDQ $16, BX
	JMP  strip16

strip4:
	LEAQ 4(BX), AX
	CMPQ AX, R8
	JGT  strip1
	VMOVUPD (DI)(BX*8), Y0
	LEAQ (DX)(BX*8), R12
	XORQ CX, CX

loop4:
	CMPQ CX, R10
	JGE  store4
	MOVLQSX (R9)(CX*4), AX
	VBROADCASTSD (SI)(AX*8), Y4
	IMULQ R11, AX
	VMULPD (R12)(AX*1), Y4, Y5
	VADDPD Y5, Y0, Y0
	INCQ CX
	JMP  loop4

store4:
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	JMP  strip4

strip1:
	CMPQ BX, R8
	JGE  done
	VMOVSD (DI)(BX*8), X0
	LEAQ (DX)(BX*8), R12
	XORQ CX, CX

loop1:
	CMPQ CX, R10
	JGE  store1
	MOVLQSX (R9)(CX*4), AX
	VMOVSD (SI)(AX*8), X4
	IMULQ R11, AX
	VMULSD (R12)(AX*1), X4, X5
	VADDSD X5, X0, X0
	INCQ CX
	JMP  loop1

store1:
	VMOVSD X0, (DI)(BX*8)
	INCQ BX
	JMP  strip1

done:
	VZEROUPPER
	RET
