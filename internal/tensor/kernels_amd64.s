#include "textflag.h"

// AVX2 and AVX-512 micro-kernels for the two dense inner loops of
// matmul.go and for the row accumulation under the segment and
// attention kernels (fused.go, attention.go). One SIMD lane is one
// output element with its single accumulator; terms are added in
// strictly increasing k (edge), each as a rounded VMULPS followed by a
// VADDPS — the operation sequence of the Go loops (MULSS, ADDSS) per
// lane, so results are bit-identical. No fused multiply-add, no
// reduction across lanes. In the GEMMs the accumulator is always the
// first source of the add, as in `s += a*b`; where the Go loop skips a
// zero coefficient's term, the add is merge-masked off. Every exit
// runs VZEROUPPER.

// Row accumulation: the edge loops that add a block's source rows onto
// one output row — SAGE's segment sum, GAT's weighted sums and gathers.
// It comes first in the file because its macros name rowAcc's
// arguments, and vet's asmdecl would check a macro defined after
// another function's TEXT line against that function's frame.
//
// A pass holds P ∈ {8, 4, 2, 1} sixteen-column blocks of the row in
// Z0–Z7 while every edge of the row streams through them, so the row is
// loaded and stored once per pass; the widest pass that fits goes first.
// Per lane the operations are those of the Go loops as compiled: the
// weighted step `dst[j] += w·x` is a VMULPS with x as first source and
// the weight (an embedded broadcast) as second, then a VADDPS with the
// product as first source and the accumulator as second; the plain step
// `dst[j] += x` is a VADDPS with the accumulator as first source. Two
// NaNs of different payloads are the only inputs that tell operand
// orders apart, and with this order they come out as the Go loop's.
//
// Frame: 0(SP) the pass's first column in bytes, 8(SP) the columns
// left, 16(SP) the head of the pass's first column and 24(SP) how many
// blocks of that head are left from it.
//
// During a pass's edge loop: CX the edge, AX idx (0 when nil), BX wi
// (0 when nil), DX the source at the pass's column, SI the weights at
// the pass's first head, R9 the edge's source row, R10 its weight row,
// and DI, R8, R11–R15 the weight byte offsets of blocks 1–7 from R10.

// RADVANCE moves (R9, R10) = (head from the pass's first, blocks left
// in it) one block on: at a head's last block the head grows by one and
// the count restarts at hb (in DX). CX is scratch; LEAQ and CMOV leave
// the flags.
#define RADVANCE \
	LEAQ    1(R9), CX; \
	DECQ    R10; \
	CMOVQEQ CX, R9; \
	CMOVQEQ DX, R10

// ROFF advances one block and puts its weight byte offset into reg.
#define ROFF(reg) \
	RADVANCE; \
	LEAQ (R9*4), reg

// RWSETUP starts a weighted pass: SI at the pass's first head's weight,
// (R9, R10) at its first block, DX = hb until REDGES.
#define RWSETUP \
	MOVQ hb+72(FP), DX; \
	MOVQ 16(SP), SI; \
	MOVQ w+48(FP), R9; \
	LEAQ (R9)(SI*4), SI; \
	XORQ R9, R9; \
	MOVQ 24(SP), R10

// RWSAVE advances past the pass's last block and keeps the head state
// for the next pass.
#define RWSAVE \
	RADVANCE; \
	ADDQ R9, 16(SP); \
	MOVQ R10, 24(SP)

// REDGES starts a pass's edge loop.
#define REDGES \
	XORQ CX, CX; \
	MOVQ idx+32(FP), AX; \
	MOVQ wi+56(FP), BX; \
	MOVQ src+16(FP), DX; \
	ADDQ 0(SP), DX

// RROW points R9 at edge CX's source row, at the pass's column:
// row(e) = idx[e], or e when idx is nil.
#define RROW \
	MOVQ    CX, R9; \
	TESTQ   AX, AX; \
	JZ      2(PC); \
	MOVLQSX (AX)(CX*4), R9; \
	IMULQ   ss+24(FP), R9; \
	LEAQ    (DX)(R9*4), R9

// RWROW points R10 at edge CX's weight row, at the pass's first head:
// wi[e], or e when wi is nil, times ws.
#define RWROW \
	MOVQ    CX, R10; \
	TESTQ   BX, BX; \
	JZ      2(PC); \
	MOVLQSX (BX)(CX*4), R10; \
	IMULQ   ws+64(FP), R10; \
	LEAQ    (SI)(R10*4), R10

// RDST points R9 at the pass's first column of dst.
#define RDST \
	MOVQ dst+0(FP), R9; \
	ADDQ 0(SP), R9

// RNEXT ends a pass of cols columns.
#define RNEXT(cols) \
	ADDQ $(cols*4), 0(SP); \
	SUBQ $cols, 8(SP)

// RW0 / RW add one edge's weighted term to block acc (at byte offset
// off of the row, weight at R10 plus roff; block 0's offset is 0).
#define RW0(acc, zx) \
	VMOVUPS     (R9), zx; \
	VMULPS.BCST (R10), zx, zx; \
	VADDPS      acc, zx, acc

#define RW(off, roff, acc, zx) \
	VMOVUPS     off(R9), zx; \
	VMULPS.BCST (R10)(roff*1), zx, zx; \
	VADDPS      acc, zx, acc

// func rowAcc(dst *float32, n int, src *float32, ss int, idx *int32, m int, w *float32, wi *int32, ws, hb int)
//
// For edges e in [0, m), increasing: dst[j] += w[we(e)*ws + j/(16*hb)] *
// src[row(e)*ss + j] for j in [0, n), where row(e) = idx[e] (e when idx
// is nil) and we(e) = wi[e] (e when wi is nil); with w nil, dst[j] +=
// src[row(e)*ss + j]. n is a positive multiple of 16, m > 0, hb > 0
// when w is set; every index is checked by the caller.
TEXT ·rowAcc(SB), NOSPLIT, $32-80
	MOVQ $0, 0(SP)
	MOVQ n+8(FP), AX
	MOVQ AX, 8(SP)
	MOVQ $0, 16(SP)
	MOVQ hb+72(FP), AX
	MOVQ AX, 24(SP)
	MOVQ w+48(FP), AX
	TESTQ AX, AX
	JZ   rsum

rw:
	MOVQ 8(SP), AX
	CMPQ AX, $128
	JGE  rw8
	CMPQ AX, $64
	JGE  rw4
	CMPQ AX, $32
	JGE  rw2
	CMPQ AX, $16
	JGE  rw1
	JMP  rdone

rw8:
	RWSETUP
	ROFF(DI)
	ROFF(R8)
	ROFF(R11)
	ROFF(R12)
	ROFF(R13)
	ROFF(R14)
	ROFF(R15)
	RWSAVE
	RDST
	VMOVUPS 0(R9), Z0
	VMOVUPS 64(R9), Z1
	VMOVUPS 128(R9), Z2
	VMOVUPS 192(R9), Z3
	VMOVUPS 256(R9), Z4
	VMOVUPS 320(R9), Z5
	VMOVUPS 384(R9), Z6
	VMOVUPS 448(R9), Z7
	REDGES

rw8_edge:
	CMPQ CX, m+40(FP)
	JGE  rw8_store
	RROW
	RWROW
	RW0(Z0, Z8)
	RW(64, DI, Z1, Z9)
	RW(128, R8, Z2, Z10)
	RW(192, R11, Z3, Z11)
	RW(256, R12, Z4, Z12)
	RW(320, R13, Z5, Z13)
	RW(384, R14, Z6, Z14)
	RW(448, R15, Z7, Z15)
	INCQ CX
	JMP  rw8_edge

rw8_store:
	RDST
	VMOVUPS Z0, 0(R9)
	VMOVUPS Z1, 64(R9)
	VMOVUPS Z2, 128(R9)
	VMOVUPS Z3, 192(R9)
	VMOVUPS Z4, 256(R9)
	VMOVUPS Z5, 320(R9)
	VMOVUPS Z6, 384(R9)
	VMOVUPS Z7, 448(R9)
	RNEXT(128)
	JMP  rw

rw4:
	RWSETUP
	ROFF(DI)
	ROFF(R8)
	ROFF(R11)
	RWSAVE
	RDST
	VMOVUPS 0(R9), Z0
	VMOVUPS 64(R9), Z1
	VMOVUPS 128(R9), Z2
	VMOVUPS 192(R9), Z3
	REDGES

rw4_edge:
	CMPQ CX, m+40(FP)
	JGE  rw4_store
	RROW
	RWROW
	RW0(Z0, Z8)
	RW(64, DI, Z1, Z9)
	RW(128, R8, Z2, Z10)
	RW(192, R11, Z3, Z11)
	INCQ CX
	JMP  rw4_edge

rw4_store:
	RDST
	VMOVUPS Z0, 0(R9)
	VMOVUPS Z1, 64(R9)
	VMOVUPS Z2, 128(R9)
	VMOVUPS Z3, 192(R9)
	RNEXT(64)
	JMP  rw

rw2:
	RWSETUP
	ROFF(DI)
	RWSAVE
	RDST
	VMOVUPS 0(R9), Z0
	VMOVUPS 64(R9), Z1
	REDGES

rw2_edge:
	CMPQ CX, m+40(FP)
	JGE  rw2_store
	RROW
	RWROW
	RW0(Z0, Z8)
	RW(64, DI, Z1, Z9)
	INCQ CX
	JMP  rw2_edge

rw2_store:
	RDST
	VMOVUPS Z0, 0(R9)
	VMOVUPS Z1, 64(R9)
	RNEXT(32)
	JMP  rw

rw1:
	RWSETUP
	RWSAVE
	RDST
	VMOVUPS 0(R9), Z0
	REDGES

rw1_edge:
	CMPQ CX, m+40(FP)
	JGE  rw1_store
	RROW
	RWROW
	RW0(Z0, Z8)
	INCQ CX
	JMP  rw1_edge

rw1_store:
	RDST
	VMOVUPS Z0, 0(R9)
	RNEXT(16)
	JMP  rw

rsum:
	MOVQ 8(SP), AX
	CMPQ AX, $128
	JGE  rs8
	CMPQ AX, $64
	JGE  rs4
	CMPQ AX, $32
	JGE  rs2
	CMPQ AX, $16
	JGE  rs1
	JMP  rdone

rs8:
	RDST
	VMOVUPS 0(R9), Z0
	VMOVUPS 64(R9), Z1
	VMOVUPS 128(R9), Z2
	VMOVUPS 192(R9), Z3
	VMOVUPS 256(R9), Z4
	VMOVUPS 320(R9), Z5
	VMOVUPS 384(R9), Z6
	VMOVUPS 448(R9), Z7
	REDGES

rs8_edge:
	CMPQ CX, m+40(FP)
	JGE  rs8_store
	RROW
	VADDPS 0(R9), Z0, Z0
	VADDPS 64(R9), Z1, Z1
	VADDPS 128(R9), Z2, Z2
	VADDPS 192(R9), Z3, Z3
	VADDPS 256(R9), Z4, Z4
	VADDPS 320(R9), Z5, Z5
	VADDPS 384(R9), Z6, Z6
	VADDPS 448(R9), Z7, Z7
	INCQ CX
	JMP  rs8_edge

rs8_store:
	RDST
	VMOVUPS Z0, 0(R9)
	VMOVUPS Z1, 64(R9)
	VMOVUPS Z2, 128(R9)
	VMOVUPS Z3, 192(R9)
	VMOVUPS Z4, 256(R9)
	VMOVUPS Z5, 320(R9)
	VMOVUPS Z6, 384(R9)
	VMOVUPS Z7, 448(R9)
	RNEXT(128)
	JMP  rsum

rs4:
	RDST
	VMOVUPS 0(R9), Z0
	VMOVUPS 64(R9), Z1
	VMOVUPS 128(R9), Z2
	VMOVUPS 192(R9), Z3
	REDGES

rs4_edge:
	CMPQ CX, m+40(FP)
	JGE  rs4_store
	RROW
	VADDPS 0(R9), Z0, Z0
	VADDPS 64(R9), Z1, Z1
	VADDPS 128(R9), Z2, Z2
	VADDPS 192(R9), Z3, Z3
	INCQ CX
	JMP  rs4_edge

rs4_store:
	RDST
	VMOVUPS Z0, 0(R9)
	VMOVUPS Z1, 64(R9)
	VMOVUPS Z2, 128(R9)
	VMOVUPS Z3, 192(R9)
	RNEXT(64)
	JMP  rsum

rs2:
	RDST
	VMOVUPS 0(R9), Z0
	VMOVUPS 64(R9), Z1
	REDGES

rs2_edge:
	CMPQ CX, m+40(FP)
	JGE  rs2_store
	RROW
	VADDPS 0(R9), Z0, Z0
	VADDPS 64(R9), Z1, Z1
	INCQ CX
	JMP  rs2_edge

rs2_store:
	RDST
	VMOVUPS Z0, 0(R9)
	VMOVUPS Z1, 64(R9)
	RNEXT(32)
	JMP  rsum

rs1:
	RDST
	VMOVUPS 0(R9), Z0
	REDGES

rs1_edge:
	CMPQ CX, m+40(FP)
	JGE  rs1_store
	RROW
	VADDPS 0(R9), Z0, Z0
	INCQ CX
	JMP  rs1_edge

rs1_store:
	RDST
	VMOVUPS Z0, 0(R9)
	RNEXT(16)
	JMP  rsum

rdone:
	VZEROUPPER
	RET

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

// QPF prefetches the look-ahead line of row r at byte offset kk*4
// (R13 = kk) from the span table at R14 — starts at 0–24, ends at
// 32–56 — unless the line lies at or past the span's end (R15 scratch).
#define QPF(r) \
	MOVQ       r*8(R14), R15; \
	LEAQ       (R15)(R13*4), R15; \
	CMPQ       R15, 32+r*8(R14); \
	JAE        2(PC); \
	PREFETCHT0 (R15)

// QAHEAD runs QPF for the four look-ahead rows at every sixteenth kk —
// one 64-byte line of an fp32 row per sixteen k — and falls through to
// label skip otherwise.
#define QAHEAD(skip) \
	TESTQ $15, R13; \
	JNZ   skip; \
	QPF(0); \
	QPF(1); \
	QPF(2); \
	QPF(3)

// func gemmQuadK(or *[4]*float32, n int, a *[4]*float32, k int, b *float32, bw int, pf *quadAhead)
//
// gemmRowK for four output rows at once: or[r][j] += Σ_kk a[r][kk] *
// b[kk*bw+j] for r in [0, 4), j in [0, n), kk in [0, k) increasing. n
// is a positive multiple of 16 and k > 0. Each k loads the B row's
// block once and broadcasts the four rows' coefficients against it; a
// block of 4 rows × 32 columns keeps eight ZMM accumulators (eight
// independent add chains), a last block of 16 columns four. Per lane it
// is gemmRowK's sequence: VMULPS with the coefficient as first source,
// then VADDPS with the accumulator as first source.
//
// While it computes, it prefetches the rows the caller will hand it
// next: pf holds four byte spans [start, end), start at a line
// boundary, and the lines at start + 4·kk for every sixteenth kk below
// k that lie inside their span are prefetched. A prefetch reads no
// operand and faults on no address, so it moves no bit.
TEXT ·gemmQuadK(SB), NOSPLIT, $0-56
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
	MOVQ pf+48(FP), R14
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
	QAHEAD(quad_k32_mul)

quad_k32_mul:
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
	QAHEAD(quad_k16_mul)

quad_k16_mul:
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

// func tmatmulAcc8(dst *float32, i, m, n, ds int, ap *[8]*float32, b *float32, bw int) int
//
// For output rows i, i+1, … < m whose eight coefficients ap[r][i] are
// all nonzero: dst[i*ds+j] += Σ_r ap[r][i] * b[r*bw+j] for j in [0, n),
// r = 0..7 increasing. Returns the first row not processed: m, or the
// first row with a ±0 coefficient, which is left untouched so that the
// caller's zero-skipping code decides about it exactly as it always
// has. Columns past the last multiple of 8 use the scalar forms of the
// same two instructions.
TEXT ·tmatmulAcc8(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ i+8(FP), AX
	MOVQ m+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ ds+32(FP), R9
	SHLQ $2, R9            // dst row stride in bytes
	MOVQ ap+40(FP), SI
	MOVQ b+48(FP), DX
	MOVQ bw+56(FP), R8
	SHLQ $2, R8            // b row stride in bytes
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
	MOVQ AX, ret+64(FP)
	VZEROUPPER
	RET

// OCTPF is how many k rows ahead tmatmulAccOct prefetches the tile's
// coefficients; the Go wrapper's octPrefetch must equal it.
#define OCTPF 16

// OROWS points R14 at tile row 4 and puts 3·ds in R15, so that OLOAD and
// OSTORE reach rows 0–3 from R12 and rows 4–7 from R14 (R8 = ds bytes).
#define OROWS \
	LEAQ (R8)(R8*2), R15; \
	LEAQ (R12)(R8*4), R14

// OLOAD / OSTORE move the tile's eight rows of one 16-column block at
// byte offset off between dst and accumulators z0..z7.
#define OLOAD(off, z0, z1, z2, z3, z4, z5, z6, z7) \
	VMOVUPS off(R12), z0; \
	VMOVUPS off(R12)(R8*1), z1; \
	VMOVUPS off(R12)(R8*2), z2; \
	VMOVUPS off(R12)(R15*1), z3; \
	VMOVUPS off(R14), z4; \
	VMOVUPS off(R14)(R8*1), z5; \
	VMOVUPS off(R14)(R8*2), z6; \
	VMOVUPS off(R14)(R15*1), z7

#define OSTORE(off, z0, z1, z2, z3, z4, z5, z6, z7) \
	VMOVUPS z0, off(R12); \
	VMOVUPS z1, off(R12)(R8*1); \
	VMOVUPS z2, off(R12)(R8*2); \
	VMOVUPS z3, off(R12)(R15*1); \
	VMOVUPS z4, off(R14); \
	VMOVUPS z5, off(R14)(R8*1); \
	VMOVUPS z6, off(R14)(R8*2); \
	VMOVUPS z7, off(R14)(R15*1)

// OSTEP32 / OSTEP16 add tile row r's term of one k to its accumulators
// of a 32- or 16-column block (the b row's block in Z16, Z17). The
// coefficient, tbl[kk][i0+r] at R15 + R9 + 4r, is broadcast and
// compared not-equal (unordered: NaN is live) against the zero in Z31
// into opmask kr; the add is merge-masked by it, so a ±0 coefficient
// leaves every lane of the row as it was — the Go loop's `if a != 0`.
#define OSTEP32(r, acc0, acc1, zc, zp0, zp1, kr) \
	VBROADCASTSS r*4(R15)(R9*1), zc; \
	VCMPPS       $4, Z31, zc, kr; \
	VMULPS       Z16, zc, zp0; \
	VMULPS       Z17, zc, zp1; \
	VADDPS       zp0, acc0, kr, acc0; \
	VADDPS       zp1, acc1, kr, acc1

#define OSTEP16(r, acc, zc, zp, kr) \
	VBROADCASTSS r*4(R15)(R9*1), zc; \
	VCMPPS       $4, Z31, zc, kr; \
	VMULPS       Z16, zc, zp; \
	VADDPS       zp, acc, kr, acc

// OKROW prefetches the tile's coefficients OCTPF rows ahead and loads
// this k's coefficient row pointer (the table entry at AX) into R15.
#define OKROW \
	MOVQ       OCTPF*8(AX), R15; \
	PREFETCHT0 (R15)(R9*1); \
	MOVQ       (AX), R15

// func tmatmulAccOct(dst *float32, m, n, ds int, tbl **float32, k int, b *float32, bw int)
//
// dst[i*ds+j] += tbl[kk][i] * b[kk*bw+j] for every kk in [0, k),
// increasing, whose tbl[kk][i] is not ±0 — i in [0, m), j in [0, n); m
// is a positive multiple of 8, n of 16, k > 0, and tbl holds at least
// k+OCTPF row pointers (those past k are only prefetched). A tile of
// 8 rows × 32 columns lives in sixteen ZMM accumulators (then a tile of
// 8 × 16 in eight) while all k rows stream through it, so dst is loaded
// and stored once per tile. Column blocks are the outer loop, so the
// tiles of one block share its b columns in cache. Per k the b row's
// block is loaded once and each tile row does a VMULPS (coefficient
// first) and a merge-masked VADDPS (accumulator first): one lane is one
// output element with its single accumulator, and a skipped term
// leaves it bit for bit untouched, −0 and 0·Inf included.
TEXT ·tmatmulAccOct(SB), NOSPLIT, $0-64
	MOVQ   dst+0(FP), DI   // &dst[j], the block's first column
	MOVQ   m+8(FP), R10
	SHLQ   $2, R10         // end of the coefficient byte offsets
	MOVQ   n+16(FP), R11   // columns left
	MOVQ   ds+24(FP), R8
	SHLQ   $2, R8          // dst row stride in bytes
	MOVQ   tbl+32(FP), SI
	MOVQ   k+40(FP), CX
	LEAQ   (SI)(CX*8), CX  // end of the table's k live entries
	MOVQ   b+48(FP), DX    // &b[j]
	MOVQ   bw+56(FP), BX
	SHLQ   $2, BX          // b row stride in bytes
	VPXORD Z31, Z31, Z31

oct_c32:
	CMPQ R11, $32
	JLT  oct_c16
	XORQ R9, R9            // tile's first row i0, as a byte offset i0*4
	MOVQ DI, R12           // &dst[i0*ds + j]

oct_r32:
	OROWS
	OLOAD(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	OLOAD(64, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	MOVQ SI, AX            // &tbl[kk]
	MOVQ DX, R14           // &b[kk*bw + j]

oct_k32:
	OKROW
	VMOVUPS 0(R14), Z16
	VMOVUPS 64(R14), Z17
	OSTEP32(0, Z0, Z8, Z18, Z19, Z20, K1)
	OSTEP32(1, Z1, Z9, Z21, Z22, Z23, K2)
	OSTEP32(2, Z2, Z10, Z24, Z25, Z26, K3)
	OSTEP32(3, Z3, Z11, Z27, Z28, Z29, K4)
	OSTEP32(4, Z4, Z12, Z18, Z19, Z20, K1)
	OSTEP32(5, Z5, Z13, Z21, Z22, Z23, K2)
	OSTEP32(6, Z6, Z14, Z24, Z25, Z26, K3)
	OSTEP32(7, Z7, Z15, Z27, Z28, Z29, K4)
	ADDQ    $8, AX
	ADDQ    BX, R14
	CMPQ    AX, CX
	JLT     oct_k32

	OROWS
	OSTORE(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	OSTORE(64, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	LEAQ (R12)(R8*8), R12  // next tile: eight dst rows down
	ADDQ $32, R9           // and eight coefficients along
	CMPQ R9, R10
	JLT  oct_r32
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, R11
	JMP  oct_c32

oct_c16:
	CMPQ R11, $16
	JLT  oct_done
	XORQ R9, R9
	MOVQ DI, R12

oct_r16:
	OROWS
	OLOAD(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	MOVQ SI, AX
	MOVQ DX, R14

oct_k16:
	OKROW
	VMOVUPS (R14), Z16
	OSTEP16(0, Z0, Z18, Z19, K1)
	OSTEP16(1, Z1, Z21, Z22, K2)
	OSTEP16(2, Z2, Z24, Z25, K3)
	OSTEP16(3, Z3, Z27, Z28, K4)
	OSTEP16(4, Z4, Z18, Z19, K1)
	OSTEP16(5, Z5, Z21, Z22, K2)
	OSTEP16(6, Z6, Z24, Z25, K3)
	OSTEP16(7, Z7, Z27, Z28, K4)
	ADDQ    $8, AX
	ADDQ    BX, R14
	CMPQ    AX, CX
	JLT     oct_k16

	OROWS
	OSTORE(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	LEAQ (R12)(R8*8), R12
	ADDQ $32, R9
	CMPQ R9, R10
	JLT  oct_r16
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, R11
	JMP  oct_c16

oct_done:
	VZEROUPPER
	RET
