#include "textflag.h"

// AVX2 and AVX-512 micro-kernels for the two dense inner loops of
// matmul.go. One SIMD lane is one output element with its single
// accumulator; terms are added in strictly increasing k, each as a
// rounded VMULPS followed by a VADDPS — the operation sequence of the
// Go loops (MULSS, ADDSS) per lane, so results are bit-identical. No
// fused multiply-add, no reduction across lanes. The accumulator is
// always the first source of the add, as in `s += a*b`. Every exit runs
// VZEROUPPER.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmRowK(or *float32, n int, a *float32, k int, b *float32, bw int)
//
// or[j] += Σ_kk a[kk] * b[kk*bw+j] for j in [0, n), kk in [0, k)
// increasing. n is a positive multiple of 8 and k > 0. Each block of
// output columns is loaded once, carried in registers across the whole
// k-panel and stored once.
TEXT ·gemmRowK(SB), NOSPLIT, $0-48
	MOVQ or+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ k+24(FP), R8
	MOVQ b+32(FP), DX
	MOVQ bw+40(FP), R9
	SHLQ $2, R9            // B row stride in bytes

gemm_c32:
	CMPQ CX, $32
	JLT  gemm_c8
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ SI, R10           // &a[kk]
	MOVQ DX, R11           // &b[kk*bw + j]
	MOVQ R8, R12           // k - kk

gemm_k32:
	VBROADCASTSS (R10), Y4
	VMULPS  0(R11), Y4, Y5
	VMULPS  32(R11), Y4, Y6
	VMULPS  64(R11), Y4, Y7
	VMULPS  96(R11), Y4, Y8
	VADDPS  Y5, Y0, Y0
	VADDPS  Y6, Y1, Y1
	VADDPS  Y7, Y2, Y2
	VADDPS  Y8, Y3, Y3
	ADDQ    $4, R10
	ADDQ    R9, R11
	DECQ    R12
	JNZ     gemm_k32

	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $32, CX
	JMP     gemm_c32

gemm_c8:
	CMPQ CX, $8
	JLT  gemm_done
	VMOVUPS (DI), Y0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12

gemm_k8:
	VBROADCASTSS (R10), Y4
	VMULPS  (R11), Y4, Y5
	VADDPS  Y5, Y0, Y0
	ADDQ    $4, R10
	ADDQ    R9, R11
	DECQ    R12
	JNZ     gemm_k8

	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $8, CX
	JMP     gemm_c8

gemm_done:
	VZEROUPPER
	RET

// QLOAD / QSTORE move output row r's 16 columns at byte offset off+DI
// between memory and accumulator zr (row pointers from the array at SI,
// R13 as scratch).
#define QLOAD(r, off, zr) \
	MOVQ r*8(SI), R13; \
	VMOVUPS off(R13)(DI*1), zr

#define QSTORE(r, off, zr) \
	MOVQ r*8(SI), R13; \
	VMOVUPS zr, off(R13)(DI*1)

// func gemmQuadK(or *[4]*float32, n int, a *[4]*float32, k int, b *float32, bw int)
//
// gemmRowK for four output rows at once: or[r][j] += Σ_kk a[r][kk] *
// b[kk*bw+j] for r in [0, 4), j in [0, n), kk in [0, k) increasing. n
// is a positive multiple of 16 and k > 0. Each k loads the B row's
// block once and broadcasts the four rows' coefficients against it; a
// block of 4 rows × 32 columns keeps eight ZMM accumulators (eight
// independent add chains), a last block of 16 columns four. Per lane it
// is gemmRowK's sequence: VMULPS with the coefficient as first source,
// then VADDPS with the accumulator as first source.
TEXT ·gemmQuadK(SB), NOSPLIT, $0-48
	MOVQ or+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ k+24(FP), R12
	MOVQ b+32(FP), DX
	MOVQ bw+40(FP), BX
	SHLQ $2, BX            // B row stride in bytes
	XORQ DI, DI            // column byte offset j*4

quad_c32:
	CMPQ CX, $32
	JLT  quad_c16
	QLOAD(0, 0, Z0)
	QLOAD(0, 64, Z1)
	QLOAD(1, 0, Z2)
	QLOAD(1, 64, Z3)
	QLOAD(2, 0, Z4)
	QLOAD(2, 64, Z5)
	QLOAD(3, 0, Z6)
	QLOAD(3, 64, Z7)
	LEAQ (DX)(DI*1), AX    // &b[kk*bw + j]
	XORQ R13, R13          // kk

quad_k32:
	VMOVUPS      0(AX), Z8
	VMOVUPS      64(AX), Z9
	VBROADCASTSS (R8)(R13*4), Z10
	VBROADCASTSS (R9)(R13*4), Z11
	VBROADCASTSS (R10)(R13*4), Z12
	VBROADCASTSS (R11)(R13*4), Z13
	VMULPS       Z8, Z10, Z14
	VMULPS       Z9, Z10, Z15
	VMULPS       Z8, Z11, Z16
	VMULPS       Z9, Z11, Z17
	VMULPS       Z8, Z12, Z18
	VMULPS       Z9, Z12, Z19
	VMULPS       Z8, Z13, Z20
	VMULPS       Z9, Z13, Z21
	VADDPS       Z14, Z0, Z0
	VADDPS       Z15, Z1, Z1
	VADDPS       Z16, Z2, Z2
	VADDPS       Z17, Z3, Z3
	VADDPS       Z18, Z4, Z4
	VADDPS       Z19, Z5, Z5
	VADDPS       Z20, Z6, Z6
	VADDPS       Z21, Z7, Z7
	ADDQ         BX, AX
	INCQ         R13
	CMPQ         R13, R12
	JLT          quad_k32

	QSTORE(0, 0, Z0)
	QSTORE(0, 64, Z1)
	QSTORE(1, 0, Z2)
	QSTORE(1, 64, Z3)
	QSTORE(2, 0, Z4)
	QSTORE(2, 64, Z5)
	QSTORE(3, 0, Z6)
	QSTORE(3, 64, Z7)
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  quad_c32

quad_c16:
	CMPQ CX, $16
	JLT  quad_done
	QLOAD(0, 0, Z0)
	QLOAD(1, 0, Z1)
	QLOAD(2, 0, Z2)
	QLOAD(3, 0, Z3)
	LEAQ (DX)(DI*1), AX
	XORQ R13, R13

quad_k16:
	VMOVUPS      (AX), Z8
	VBROADCASTSS (R8)(R13*4), Z10
	VBROADCASTSS (R9)(R13*4), Z11
	VBROADCASTSS (R10)(R13*4), Z12
	VBROADCASTSS (R11)(R13*4), Z13
	VMULPS       Z8, Z10, Z14
	VMULPS       Z8, Z11, Z15
	VMULPS       Z8, Z12, Z16
	VMULPS       Z8, Z13, Z17
	VADDPS       Z14, Z0, Z0
	VADDPS       Z15, Z1, Z1
	VADDPS       Z16, Z2, Z2
	VADDPS       Z17, Z3, Z3
	ADDQ         BX, AX
	INCQ         R13
	CMPQ         R13, R12
	JLT          quad_k16

	QSTORE(0, 0, Z0)
	QSTORE(1, 0, Z1)
	QSTORE(2, 0, Z2)
	QSTORE(3, 0, Z3)
	ADDQ $64, DI
	SUBQ $16, CX
	JMP  quad_c16

quad_done:
	VZEROUPPER
	RET

// LIVE loads coefficient r of row AX (ap[r][AX]) and leaves the kernel
// if it is ±0 (its bits shifted left by one are zero — the integer form
// of the Go loop's `a != 0`, true for NaN); otherwise broadcasts it.
#define LIVE(r, coef) \
	MOVQ r*8(SI), R10; \
	MOVL (R10)(AX*4), R11; \
	SHLL $1, R11; \
	JZ   tacc_done; \
	VBROADCASTSS (R10)(AX*4), coef

// STEP32 / STEP8 / STEP1 add one k term to the accumulators of a 32-,
// 8- or 1-column block and advance R13 to the next b row.
#define STEP32(coef) \
	VMULPS 0(R13), coef, Y4; \
	VMULPS 32(R13), coef, Y5; \
	VMULPS 64(R13), coef, Y6; \
	VMULPS 96(R13), coef, Y7; \
	VADDPS Y4, Y0, Y0; \
	VADDPS Y5, Y1, Y1; \
	VADDPS Y6, Y2, Y2; \
	VADDPS Y7, Y3, Y3; \
	ADDQ   R8, R13

#define STEP8(coef) \
	VMULPS (R13), coef, Y4; \
	VADDPS Y4, Y0, Y0; \
	ADDQ   R8, R13

#define STEP1(coef) \
	VMULSS (R13), coef, X4; \
	VADDSS X4, X0, X0; \
	ADDQ   R8, R13

// func tmatmulAcc8(dst *float32, i, m, n int, ap *[8]*float32, b *float32, bw int) int
//
// For output rows i, i+1, … < m whose eight coefficients ap[r][i] are
// all nonzero: dst[i*n+j] += Σ_r ap[r][i] * b[r*bw+j] for j in [0, n),
// r = 0..7 increasing. Returns the first row not processed: m, or the
// first row with a ±0 coefficient, which is left untouched so that the
// caller's zero-skipping code decides about it exactly as it always
// has. Columns past the last multiple of 8 use the scalar forms of the
// same two instructions.
TEXT ·tmatmulAcc8(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ i+8(FP), AX
	MOVQ m+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ ap+32(FP), SI
	MOVQ b+40(FP), DX
	MOVQ bw+48(FP), R8
	SHLQ $2, R8            // b row stride in bytes
	MOVQ CX, R9
	SHLQ $2, R9            // dst row stride in bytes
	MOVQ AX, R10
	IMULQ R9, R10
	ADDQ R10, DI           // &dst[i*n]

tacc_row:
	CMPQ AX, BX
	JGE  tacc_done
	LIVE(0, Y8)
	LIVE(1, Y9)
	LIVE(2, Y10)
	LIVE(3, Y11)
	LIVE(4, Y12)
	LIVE(5, Y13)
	LIVE(6, Y14)
	LIVE(7, Y15)
	MOVQ DI, R10           // &dst[i*n + j]
	MOVQ DX, R11           // &b[j]
	MOVQ CX, R12           // n - j

tacc_c32:
	CMPQ R12, $32
	JLT  tacc_c8
	VMOVUPS 0(R10), Y0
	VMOVUPS 32(R10), Y1
	VMOVUPS 64(R10), Y2
	VMOVUPS 96(R10), Y3
	MOVQ R11, R13
	STEP32(Y8)
	STEP32(Y9)
	STEP32(Y10)
	STEP32(Y11)
	STEP32(Y12)
	STEP32(Y13)
	STEP32(Y14)
	STEP32(Y15)
	VMOVUPS Y0, 0(R10)
	VMOVUPS Y1, 32(R10)
	VMOVUPS Y2, 64(R10)
	VMOVUPS Y3, 96(R10)
	ADDQ $128, R10
	ADDQ $128, R11
	SUBQ $32, R12
	JMP  tacc_c32

tacc_c8:
	CMPQ R12, $8
	JLT  tacc_c1
	VMOVUPS (R10), Y0
	MOVQ R11, R13
	STEP8(Y8)
	STEP8(Y9)
	STEP8(Y10)
	STEP8(Y11)
	STEP8(Y12)
	STEP8(Y13)
	STEP8(Y14)
	STEP8(Y15)
	VMOVUPS Y0, (R10)
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $8, R12
	JMP  tacc_c8

tacc_c1:
	TESTQ R12, R12
	JZ   tacc_next
	VMOVSS (R10), X0
	MOVQ R11, R13
	STEP1(X8)
	STEP1(X9)
	STEP1(X10)
	STEP1(X11)
	STEP1(X12)
	STEP1(X13)
	STEP1(X14)
	STEP1(X15)
	VMOVSS X0, (R10)
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ R12
	JMP  tacc_c1

tacc_next:
	ADDQ R9, DI
	INCQ AX
	JMP  tacc_row

tacc_done:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET
