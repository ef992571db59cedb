//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 kernels of the SIMD backend, for both kernel tiers. The fast tier's
// two kernels, denseMarginsAVX2 and denseAccumAVX2 (AVX2+FMA), are the
// assembly twins of the dense Go loops in fast.go: reassociated,
// FMA-contracted, tolerance-bounded. The exact-tier kernels are the twins
// of exact Go loops and compute the same bits: denseMarginsExactAVX2,
// csrMarginsExactAVX2 and denseAccumExactAVX2 (block.go), where each lane
// is one row's (or one gradient slot's) single running sum in index order,
// and the gradient-step kernels stepL1AVX2, stepL1LambdaAVX2, stepL2SqAVX2
// and stepL2SqLambdaAVX2 (step.go), where each lane is one model component
// and the lanes' delta terms enter one running sum in index order. Every
// step is a multiply then an add — they contain no FMA opcode, and a test
// holds them to that. The exponential twin's kernels, expVecExactAVX2 and
// logisticCoeffsAVX2 (exp.go), are the one exception: they return
// math.Exp's bits by fusing exactly where its amd64 body does. Dispatch
// (runtime CPU detection) lives in simd_amd64.go, and the Go loops remain
// both the portable fallback and the oracle the equivalence tests compare
// against.
// Calling convention is ABI0 with bare pointers + lengths — the Go wrappers
// own every bounds/emptiness check, the assembly assumes validated
// arguments. All kernels are NOSPLIT leaves, end in VZEROUPPER, and clobber
// no callee-saved state. They use VEX-encoded instructions only on X and Y
// registers: a legacy SSE instruction (MOVQ r, Xn, MOVSD, ADDSD, …) after a
// 256-bit one pays an AVX–SSE state transition, and a test fails on one.

// func denseMarginsAVX2(vals *float64, stride int, w *float64, out *float64, rows int)
//
// out[j] = <vals[j*stride:(j+1)*stride], w> for j in [0, rows), one row at
// a time: 16 columns per step into four 4-lane FMA accumulators (the asm
// analogue of the Go loop's FastAccumulators = 4 chains, each now carrying
// 4 lanes), then one 4-wide step into the first, the reduction, and scalar
// FMAs into the reduced sum. The row loop runs inside the call, so one asm
// transition covers a whole 512-row block.
TEXT ·denseMarginsAVX2(SB), NOSPLIT, $0-40
	MOVQ vals+0(FP), SI
	MOVQ stride+8(FP), R8
	MOVQ w+16(FP), DI
	MOVQ out+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ R8, R11
	SHLQ $3, R11             // stride in bytes
	TESTQ R10, R10
	JZ   dm_done
dm_row:
	MOVQ SI, R12             // a = row
	MOVQ DI, R13             // b = w
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R8, AX
	SHRQ $4, AX
	JZ   dm_tail4
dm_loop16:
	VMOVUPD (R12), Y4
	VMOVUPD 32(R12), Y5
	VMOVUPD 64(R12), Y6
	VMOVUPD 96(R12), Y7
	VFMADD231PD (R13), Y4, Y0
	VFMADD231PD 32(R13), Y5, Y1
	VFMADD231PD 64(R13), Y6, Y2
	VFMADD231PD 96(R13), Y7, Y3
	ADDQ $128, R12
	ADDQ $128, R13
	DECQ AX
	JNZ  dm_loop16
dm_tail4:
	MOVQ R8, AX
	ANDQ $15, AX
	MOVQ AX, DX
	SHRQ $2, DX
	JZ   dm_reduce
dm_loop4:
	VMOVUPD (R12), Y4
	VFMADD231PD (R13), Y4, Y0
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ DX
	JNZ  dm_loop4
dm_reduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	ANDQ $3, AX
	JZ   dm_store
dm_loop1:
	VMOVSD (R12), X2
	VFMADD231SD (R13), X2, X0
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ AX
	JNZ  dm_loop1
dm_store:
	VMOVSD X0, (R9)
	ADDQ $8, R9
	ADDQ R11, SI             // next row
	DECQ R10
	JNZ  dm_row
dm_done:
	VZEROUPPER
	RET

// DX_COLS4(ra, rc, sum, xa, ya, xb, yb, yc, yd) adds four columns of four
// rows into sum, one column at a time in index order. The rows are at ra,
// ra+stride, rc and rc+stride (R11 = stride in bytes), and Y12–Y15 hold the
// four columns' broadcast weights. The 4×4 tile is transposed in two
// halves of two columns: a 128-bit load of rows a and b and a VINSERTF128
// from memory of rows c and d give (a0 a1 c0 c1) and (b0 b1 d0 d1), and one
// VUNPCKLPD or VUNPCKHPD per column yields (a0 b0 c0 d0) and (a1 b1 c1 d1).
// That is one shuffle-port instruction per column; the insert from memory
// runs on the load and vector-ALU ports.
#define DX_COLS4(ra, rc, sum, xa, ya, xb, yb, yc, yd) \
	VMOVUPD (ra), xa; \
	VINSERTF128 $1, (rc), ya, ya; \
	VMOVUPD (ra)(R11*1), xb; \
	VINSERTF128 $1, (rc)(R11*1), yb, yb; \
	VUNPCKLPD yb, ya, yc; \
	VUNPCKHPD yb, ya, yd; \
	VMULPD Y12, yc, yc; \
	VADDPD yc, sum, sum; \
	VMULPD Y13, yd, yd; \
	VADDPD yd, sum, sum; \
	VMOVUPD 16(ra), xa; \
	VINSERTF128 $1, 16(rc), ya, ya; \
	VMOVUPD 16(ra)(R11*1), xb; \
	VINSERTF128 $1, 16(rc)(R11*1), yb, yb; \
	VUNPCKLPD yb, ya, yc; \
	VUNPCKHPD yb, ya, yd; \
	VMULPD Y14, yc, yc; \
	VADDPD yc, sum, sum; \
	VMULPD Y15, yd, yd; \
	VADDPD yd, sum, sum

// DX_COL1(ra, rc, sum, xa, ya, xb) adds one column of the same four rows,
// gathered element by element into a lane-per-row register, weighted by the
// broadcast in Y12.
#define DX_COL1(ra, rc, sum, xa, ya, xb) \
	VMOVSD (ra), xa; \
	VMOVHPD (ra)(R11*1), xa, xa; \
	VMOVSD (rc), xb; \
	VMOVHPD (rc)(R11*1), xb, xb; \
	VINSERTF128 $1, xb, ya, ya; \
	VMULPD Y12, ya, ya; \
	VADDPD ya, sum, sum

// func denseMarginsExactAVX2(vals *float64, stride int, w *float64, out *float64, rows int)
//
// The exact tier's margins, rows as lanes: a register carries four rows'
// running sums, one per lane, and each column's product is added into it —
// a multiply then an add, never an FMA, column by column in index order.
// Every lane is thus the single-accumulator loop of dotContig, bit for bit.
// Two groups of four rows are in flight (Y0 and Y5), so two add chains
// overlap and share the weight broadcasts; a last group of four runs alone.
// The eight rows are read as eight interleaved streams, which the hardware
// prefetchers follow poorly when a block comes from L3 or memory, so each
// step also prefetches the next 256 bytes of the next eight rows: the
// following group's whole span arrives over this group's walk.
// Columns past the last multiple of four go one at a time (DX_COL1). rows
// must be a positive multiple of 4 and stride > 0 (wrapper-enforced).
TEXT ·denseMarginsExactAVX2(SB), NOSPLIT, $0-40
	MOVQ vals+0(FP), SI
	MOVQ stride+8(FP), R8
	MOVQ w+16(FP), DI
	MOVQ out+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ R8, R11
	SHLQ $3, R11             // stride in bytes
dx_pair:
	CMPQ R10, $8
	JLT  dx_quad
	MOVQ SI, R12             // rows 0 and 1 at (R12), (R12)(R11*1)
	LEAQ (SI)(R11*2), R13    // rows 2 and 3
	LEAQ (R13)(R11*2), R14   // rows 4 and 5
	LEAQ (R14)(R11*2), R15   // rows 6 and 7
	MOVQ DI, BX              // w
	LEAQ (SI)(R11*8), DX     // the next eight rows, for the prefetches
	VXORPD Y0, Y0, Y0
	VXORPD Y5, Y5, Y5
	MOVQ R8, AX
	SHRQ $2, AX
	JZ   dx_pair_tail
dx_pair4:
	PREFETCHT0 (DX)
	PREFETCHT0 64(DX)
	PREFETCHT0 128(DX)
	PREFETCHT0 192(DX)
	ADDQ $256, DX
	VBROADCASTSD (BX), Y12
	VBROADCASTSD 8(BX), Y13
	VBROADCASTSD 16(BX), Y14
	VBROADCASTSD 24(BX), Y15
	DX_COLS4(R12, R13, Y0, X1, Y1, X2, Y2, Y3, Y4)
	DX_COLS4(R14, R15, Y5, X6, Y6, X7, Y7, Y8, Y9)
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, R15
	ADDQ $32, BX
	DECQ AX
	JNZ  dx_pair4
dx_pair_tail:
	MOVQ R8, AX
	ANDQ $3, AX
	JZ   dx_pair_store
dx_pair1:
	VBROADCASTSD (BX), Y12
	DX_COL1(R12, R13, Y0, X1, Y1, X2)
	DX_COL1(R14, R15, Y5, X6, Y6, X7)
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, R15
	ADDQ $8, BX
	DECQ AX
	JNZ  dx_pair1
dx_pair_store:
	VMOVUPD Y0, (R9)
	VMOVUPD Y5, 32(R9)
	ADDQ $64, R9
	LEAQ (SI)(R11*8), SI     // next eight rows
	SUBQ $8, R10
	JMP  dx_pair
dx_quad:
	TESTQ R10, R10
	JZ   dx_done
	MOVQ SI, R12
	LEAQ (SI)(R11*2), R13
	MOVQ DI, BX
	VXORPD Y0, Y0, Y0
	MOVQ R8, AX
	SHRQ $2, AX
	JZ   dx_quad_tail
dx_quad4:
	VBROADCASTSD (BX), Y12
	VBROADCASTSD 8(BX), Y13
	VBROADCASTSD 16(BX), Y14
	VBROADCASTSD 24(BX), Y15
	DX_COLS4(R12, R13, Y0, X1, Y1, X2, Y2, Y3, Y4)
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, BX
	DECQ AX
	JNZ  dx_quad4
dx_quad_tail:
	MOVQ R8, AX
	ANDQ $3, AX
	JZ   dx_quad_store
dx_quad1:
	VBROADCASTSD (BX), Y12
	DX_COL1(R12, R13, Y0, X1, Y1, X2)
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, BX
	DECQ AX
	JNZ  dx_quad1
dx_quad_store:
	VMOVUPD Y0, (R9)
dx_done:
	VZEROUPPER
	RET

// Multiply-add steps of the accumulate body below: acc += c·x. The fast
// tier contracts them into one FMA (one rounding); the exact tier rounds
// the product and then the sum, which is what the Go loop `v[i] += a*w[i]`
// compiles to on amd64 at every GOAMD64 level — so a lane computes the
// scalar loop's bits. The exact steps clobber x, which the body never reads
// again.
#define FMA_PD(c, x, acc) VFMADD231PD c, x, acc
#define FMA_SD(c, x, acc) VFMADD231SD c, x, acc
#define MULADD_PD(c, x, acc) VMULPD c, x, x; VADDPD x, acc, acc
#define MULADD_SD(c, x, acc) VMULSD c, x, x; VADDSD x, acc, acc

// DENSE_ACCUM is the body of both block accumulates,
// grad[i] += sum_j coeffs[j]*vals[j*d+i]: four rows fused per gradient walk
// (each grad element loaded and stored once per four rows, the four terms
// added in row order), remaining rows one at a time. The coefficient
// broadcasts hoist out of the element loop. MADDPD/MADDSD name the
// multiply-add step. Expects DI = grad, CX = d, SI = vals, BX = coeffs,
// R10 = rows.
#define DENSE_ACCUM(MADDPD, MADDSD) \
	MOVQ CX, R11; \
	SHLQ $3, R11; \
da_quad: \
	CMPQ R10, $4; \
	JLT  da_rows; \
	VBROADCASTSD (BX), Y12; \
	VBROADCASTSD 8(BX), Y13; \
	VBROADCASTSD 16(BX), Y14; \
	VBROADCASTSD 24(BX), Y15; \
	MOVQ SI, R12; \
	LEAQ (SI)(R11*1), R13; \
	LEAQ (R13)(R11*1), R14; \
	LEAQ (R14)(R11*1), R15; \
	MOVQ DI, DX; \
	MOVQ CX, AX; \
	SHRQ $2, AX; \
	JZ   da_quad_tail; \
da_quad4: \
	VMOVUPD (DX), Y0; \
	VMOVUPD (R12), Y1; \
	MADDPD(Y12, Y1, Y0); \
	VMOVUPD (R13), Y2; \
	MADDPD(Y13, Y2, Y0); \
	VMOVUPD (R14), Y3; \
	MADDPD(Y14, Y3, Y0); \
	VMOVUPD (R15), Y4; \
	MADDPD(Y15, Y4, Y0); \
	VMOVUPD Y0, (DX); \
	ADDQ $32, DX; \
	ADDQ $32, R12; \
	ADDQ $32, R13; \
	ADDQ $32, R14; \
	ADDQ $32, R15; \
	DECQ AX; \
	JNZ  da_quad4; \
da_quad_tail: \
	MOVQ CX, AX; \
	ANDQ $3, AX; \
	JZ   da_quad_next; \
da_quad1: \
	VMOVSD (DX), X0; \
	VMOVSD (R12), X1; \
	MADDSD(X12, X1, X0); \
	VMOVSD (R13), X2; \
	MADDSD(X13, X2, X0); \
	VMOVSD (R14), X3; \
	MADDSD(X14, X3, X0); \
	VMOVSD (R15), X4; \
	MADDSD(X15, X4, X0); \
	VMOVSD X0, (DX); \
	ADDQ $8, DX; \
	ADDQ $8, R12; \
	ADDQ $8, R13; \
	ADDQ $8, R14; \
	ADDQ $8, R15; \
	DECQ AX; \
	JNZ  da_quad1; \
da_quad_next: \
	LEAQ (SI)(R11*4), SI; \
	ADDQ $32, BX; \
	SUBQ $4, R10; \
	JMP  da_quad; \
da_rows: \
	TESTQ R10, R10; \
	JZ   da_done; \
	VBROADCASTSD (BX), Y12; \
	MOVQ DI, DX; \
	MOVQ SI, R12; \
	MOVQ CX, AX; \
	SHRQ $2, AX; \
	JZ   da_row_tail; \
da_row4: \
	VMOVUPD (DX), Y0; \
	VMOVUPD (R12), Y1; \
	MADDPD(Y12, Y1, Y0); \
	VMOVUPD Y0, (DX); \
	ADDQ $32, DX; \
	ADDQ $32, R12; \
	DECQ AX; \
	JNZ  da_row4; \
da_row_tail: \
	MOVQ CX, AX; \
	ANDQ $3, AX; \
	JZ   da_row_next; \
da_row1: \
	VMOVSD (DX), X0; \
	VMOVSD (R12), X1; \
	MADDSD(X12, X1, X0); \
	VMOVSD X0, (DX); \
	ADDQ $8, DX; \
	ADDQ $8, R12; \
	DECQ AX; \
	JNZ  da_row1; \
da_row_next: \
	ADDQ R11, SI; \
	ADDQ $8, BX; \
	DECQ R10; \
	JNZ  da_rows; \
da_done: \
	VZEROUPPER

// func denseAccumAVX2(grad *float64, d int, vals *float64, coeffs *float64, rows int)
//
// The fast tier's accumulate: DENSE_ACCUM with FMA steps.
TEXT ·denseAccumAVX2(SB), NOSPLIT, $0-40
	MOVQ grad+0(FP), DI
	MOVQ d+8(FP), CX
	MOVQ vals+16(FP), SI
	MOVQ coeffs+24(FP), BX
	MOVQ rows+32(FP), R10
	DENSE_ACCUM(FMA_PD, FMA_SD)
	RET

// func denseAccumExactAVX2(grad *float64, d int, vals *float64, coeffs *float64, rows int)
//
// The exact tier's accumulate: DENSE_ACCUM with a multiply then an add. A
// grad slot receives its rows' terms in row order, one rounding per product
// and per sum, so the result is bitwise that of one AddScaled per row.
TEXT ·denseAccumExactAVX2(SB), NOSPLIT, $0-40
	MOVQ grad+0(FP), DI
	MOVQ d+8(FP), CX
	MOVQ vals+16(FP), SI
	MOVQ coeffs+24(FP), BX
	MOVQ rows+32(FP), R10
	DENSE_ACCUM(MULADD_PD, MULADD_SD)
	RET

// Per-lane steps of the gradient step body below. STEP_LAMBDA adds the
// regularizer term, g = g + λ·o, and STEP_NO_LAMBDA leaves g as it is (a
// zero λ must add nothing: 0·Inf is NaN and −0 + +0 is +0). DIFF_ABS clears
// the sign bit, as math.Abs does, and DIFF_SQ squares.
#define STEP_LAMBDA(o, g) VMULPD o, Y13, Y4; VADDPD Y4, g, g
#define STEP_NO_LAMBDA(o, g)
#define DIFF_ABS(x) VANDPD Y15, x, x
#define DIFF_SQ(x) VMULPD x, x, x

// GRAD_STEP is the body of the four gradient-step kernels, over n/4 groups
// of four components, lanes as components. Each lane computes
// g = acc·inv, LAMBDA(o, g), x = o + (−step)·g, stores x into w and +0 into
// acc, and forms TERM(x − o); the four terms are then added to the running
// delta (X10) one at a time in index order with scalar adds. Every step is a
// multiply then an add, in the Go loop's operand order, so the result is the
// bits of StepL1 / StepL2Sq's loop. Expects DI = w, SI = old, DX = acc,
// CX = n (a positive multiple of 4), Y11 = −step, Y12 = inv and, for
// STEP_LAMBDA, Y13 = λ; leaves the delta in X10.
#define GRAD_STEP(LAMBDA, TERM) \
	SHRQ $2, CX; \
	VXORPD Y14, Y14, Y14; \
	VPCMPEQQ Y15, Y15, Y15; \
	VPSRLQ $1, Y15, Y15; \
	VXORPD X10, X10, X10; \
gs_loop: \
	VMOVUPD (DX), Y0; \
	VMOVUPD (SI), Y1; \
	VMULPD Y12, Y0, Y0; \
	VMOVUPD Y14, (DX); \
	LAMBDA(Y1, Y0); \
	VMULPD Y0, Y11, Y0; \
	VADDPD Y0, Y1, Y2; \
	VMOVUPD Y2, (DI); \
	VSUBPD Y1, Y2, Y2; \
	TERM(Y2); \
	VADDSD X2, X10, X10; \
	VUNPCKHPD X2, X2, X3; \
	VADDSD X3, X10, X10; \
	VEXTRACTF128 $1, Y2, X2; \
	VADDSD X2, X10, X10; \
	VUNPCKHPD X2, X2, X3; \
	VADDSD X3, X10, X10; \
	ADDQ $32, DX; \
	ADDQ $32, SI; \
	ADDQ $32, DI; \
	DECQ CX; \
	JNZ  gs_loop; \
	VZEROUPPER

// func stepL1AVX2(w, old, acc *float64, n int, inv, lambda, negStep float64) float64
//
// StepL1 with λ = 0: GRAD_STEP without the regularizer term, |x − o| as the
// delta term.
TEXT ·stepL1AVX2(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), DI
	MOVQ old+8(FP), SI
	MOVQ acc+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD inv+32(FP), Y12
	VBROADCASTSD negStep+48(FP), Y11
	GRAD_STEP(STEP_NO_LAMBDA, DIFF_ABS)
	VMOVSD X10, ret+56(FP)
	RET

// func stepL1LambdaAVX2(w, old, acc *float64, n int, inv, lambda, negStep float64) float64
//
// StepL1 with λ ≠ 0.
TEXT ·stepL1LambdaAVX2(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), DI
	MOVQ old+8(FP), SI
	MOVQ acc+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD inv+32(FP), Y12
	VBROADCASTSD lambda+40(FP), Y13
	VBROADCASTSD negStep+48(FP), Y11
	GRAD_STEP(STEP_LAMBDA, DIFF_ABS)
	VMOVSD X10, ret+56(FP)
	RET

// func stepL2SqAVX2(w, old, acc *float64, n int, inv, lambda, negStep float64) float64
//
// StepL2Sq with λ = 0: (x − o)² as the delta term.
TEXT ·stepL2SqAVX2(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), DI
	MOVQ old+8(FP), SI
	MOVQ acc+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD inv+32(FP), Y12
	VBROADCASTSD negStep+48(FP), Y11
	GRAD_STEP(STEP_NO_LAMBDA, DIFF_SQ)
	VMOVSD X10, ret+56(FP)
	RET

// func stepL2SqLambdaAVX2(w, old, acc *float64, n int, inv, lambda, negStep float64) float64
//
// StepL2Sq with λ ≠ 0.
TEXT ·stepL2SqLambdaAVX2(SB), NOSPLIT, $0-64
	MOVQ w+0(FP), DI
	MOVQ old+8(FP), SI
	MOVQ acc+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD inv+32(FP), Y12
	VBROADCASTSD lambda+40(FP), Y13
	VBROADCASTSD negStep+48(FP), Y11
	GRAD_STEP(STEP_LAMBDA, DIFF_SQ)
	VMOVSD X10, ret+56(FP)
	RET

// CSR_ROW_LEN(lo, hiOff, trim, trimmed, empty) reads a row's end offset at
// hiOff(R8), trims the index tail ≥ d (R11) off it — rows are sorted, so
// the tail is exactly what SparseDot's break skips — and lowers CX to the
// trimmed length if it is shorter. It jumps to cm_bail on an end below lo
// or a negative first index, where the Go loop must take the row (and
// panic as SparseDot does). Clobbers AX, BX.
#define CSR_ROW_LEN(lo, hiOff, trim, trimmed, empty) \
	MOVQ hiOff(R8), BX; \
	CMPQ BX, lo; \
	JLT  cm_bail; \
trim: \
	CMPQ BX, lo; \
	JLE  trimmed; \
	MOVLQSX -4(SI)(BX*4), AX; \
	CMPQ AX, R11; \
	JLT  trimmed; \
	DECQ BX; \
	JMP  trim; \
trimmed: \
	CMPQ BX, lo; \
	JLE  empty; \
	MOVLQSX (SI)(lo*4), AX; \
	TESTQ AX, AX; \
	JS   cm_bail; \
empty: \
	SUBQ lo, BX; \
	CMPQ BX, CX; \
	CMOVQLT BX, CX

// CSR_ROW_TAIL(e, hiOff, sum, outOff, trim, loop, done) finishes one row
// past the quad's packed columns: from position e to the row's trimmed end
// it adds vals·w[idx] into the row's own running sum (the low lane of sum),
// a multiply then an add per entry, and stores the margin at outOff(R9).
// Trimming from the end again stops at the same place, since every packed
// position is below the trimmed end. Clobbers AX, BX, X13.
#define CSR_ROW_TAIL(e, hiOff, sum, outOff, trim, loop, done) \
	MOVQ hiOff(R8), BX; \
trim: \
	CMPQ BX, e; \
	JLE  loop; \
	MOVLQSX -4(SI)(BX*4), AX; \
	CMPQ AX, R11; \
	JLT  loop; \
	DECQ BX; \
	JMP  trim; \
loop: \
	CMPQ e, BX; \
	JGE  done; \
	MOVLQSX (SI)(e*4), AX; \
	VMOVSD (DX)(e*8), X13; \
	VMULSD (DI)(AX*8), X13, X13; \
	VADDSD X13, sum, sum; \
	INCQ e; \
	JMP  loop; \
done: \
	VMOVSD sum, outOff(R9)

// CSR_PAIR_PRODUCTS(ea, ec, xi, xt, ym, yw, xv, yv) leaves in yv the
// products vals·w[idx] of two consecutive entries of rows a and c, at
// positions ea and ec: (a0 a1 c0 c1). The four indices are loaded as two
// 64-bit halves and blended, w is gathered by them, and the values come
// in by a 128-bit load and a VINSERTF128 from memory.
#define CSR_PAIR_PRODUCTS(ea, ec, xi, xt, ym, yw, xv, yv) \
	VMOVQ (SI)(ea*4), xi; \
	VPBROADCASTQ (SI)(ec*4), xt; \
	VPBLENDD $0x0C, xt, xi, xi; \
	VPCMPEQD ym, ym, ym; \
	VGATHERDPD ym, (DI)(xi*8), yw; \
	VMOVUPD (DX)(ea*8), xv; \
	VINSERTF128 $1, (DX)(ec*8), yv, yv; \
	VMULPD yw, yv, yv

// func csrMarginsExactAVX2(offs *int64, idx *int32, vals *float64, w *float64, d int, out *float64, rows int) int
//
// The exact tier's CSR margins, rows as lanes: out[j] = SparseDot(row j)
// bit for bit, four rows at a time. A quad's rows are first trimmed of
// their index tail ≥ d; up to the shortest trimmed row's last even
// position, each step takes two entries of every row (CSR_PAIR_PRODUCTS
// for rows a, c and b, d), transposes the products into one column per
// position, (a0 b0 c0 d0) and (a1 b1 c1 d1), and adds the columns into Y0
// in order — each lane one row's single running sum in index order, a
// multiply then an add. Each row then continues its lane's sum in scalar
// code to its own end (CSR_ROW_TAIL). Each step also prefetches the next
// eight entries past the quad, as the dense kernel does its next rows. rows
// must be a positive multiple of 4 and offs[0] ≥ 0 with offs[rows] within
// both arenas (wrapper-enforced); the kernel returns the rows it computed,
// short of rows only when a quad has a decreasing offset or a negative
// index, which the Go loop then takes.
TEXT ·csrMarginsExactAVX2(SB), NOSPLIT, $0-64
	MOVQ offs+0(FP), R8
	MOVQ idx+8(FP), SI
	MOVQ vals+16(FP), DX
	MOVQ w+24(FP), DI
	MOVQ d+32(FP), R11
	MOVQ out+40(FP), R9
	MOVQ rows+48(FP), R10
	SHRQ $2, R10             // quads
cm_quad:
	MOVQ 0(R8), R12          // row starts, then each row's position
	MOVQ 8(R8), R13
	MOVQ 16(R8), R14
	MOVQ 24(R8), R15
	MOVQ $0x7FFFFFFFFFFFFFFF, CX
	CSR_ROW_LEN(R12, 8, cm_trim0, cm_trimmed0, cm_empty0)
	CSR_ROW_LEN(R13, 16, cm_trim1, cm_trimmed1, cm_empty1)
	CSR_ROW_LEN(R14, 24, cm_trim2, cm_trimmed2, cm_empty2)
	CSR_ROW_LEN(R15, 32, cm_trim3, cm_trimmed3, cm_empty3)
	VXORPD Y0, Y0, Y0
	SHRQ $1, CX              // position pairs all four rows have
	JZ   cm_tails
	MOVQ 32(R8), BX          // the next quad's first entry
cm_pair:
	PREFETCHT0 (DX)(BX*8)
	PREFETCHT0 (SI)(BX*4)
	ADDQ $8, BX
	CSR_PAIR_PRODUCTS(R12, R14, X1, X2, Y3, Y4, X5, Y5)
	CSR_PAIR_PRODUCTS(R13, R15, X6, X7, Y8, Y9, X10, Y10)
	VUNPCKLPD Y10, Y5, Y11   // a0 b0 c0 d0
	VUNPCKHPD Y10, Y5, Y12   // a1 b1 c1 d1
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y0, Y0
	ADDQ $2, R12
	ADDQ $2, R13
	ADDQ $2, R14
	ADDQ $2, R15
	DECQ CX
	JNZ  cm_pair
cm_tails:
	VEXTRACTF128 $1, Y0, X2  // c d
	VUNPCKHPD X0, X0, X1     // b
	VUNPCKHPD X2, X2, X3     // d
	CSR_ROW_TAIL(R12, 8, X0, 0, cm_tt0, cm_tl0, cm_td0)
	CSR_ROW_TAIL(R13, 16, X1, 8, cm_tt1, cm_tl1, cm_td1)
	CSR_ROW_TAIL(R14, 24, X2, 16, cm_tt2, cm_tl2, cm_td2)
	CSR_ROW_TAIL(R15, 32, X3, 24, cm_tt3, cm_tl3, cm_td3)
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ R10
	JNZ  cm_quad
cm_bail:
	SHLQ $2, R10
	MOVQ rows+48(FP), AX
	SUBQ R10, AX
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// Constants of the exact exponential: math.Exp's own (exp_amd64.s), with
// the same decimal literals, so the assembler rounds them to the same bits.
DATA expxconst<>+0(SB)/8, $1.4426950408889634073599246810018920      // LOG2E
DATA expxconst<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA expxconst<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expxconst<>+24(SB)/8, $0.0625
DATA expxconst<>+32(SB)/8, $2.0
DATA expxconst<>+40(SB)/8, $1.0
DATA expxconst<>+48(SB)/8, $2.4801587301587301587e-5 // 1/8!
DATA expxconst<>+56(SB)/8, $0x8000000000000000       // sign bit
GLOBL expxconst<>(SB), RODATA, $64

// The Taylor coefficients of the Horner chain after 1/8!, replicated to 256
// bits for the FMA memory operands: 1/7!, 1/6!, 1/5!, 1/4!, 1/3!, 1/2.
DATA expxpoly<>+0(SB)/8, $1.9841269841269841270e-4
DATA expxpoly<>+8(SB)/8, $1.9841269841269841270e-4
DATA expxpoly<>+16(SB)/8, $1.9841269841269841270e-4
DATA expxpoly<>+24(SB)/8, $1.9841269841269841270e-4
DATA expxpoly<>+32(SB)/8, $1.3888888888888888889e-3
DATA expxpoly<>+40(SB)/8, $1.3888888888888888889e-3
DATA expxpoly<>+48(SB)/8, $1.3888888888888888889e-3
DATA expxpoly<>+56(SB)/8, $1.3888888888888888889e-3
DATA expxpoly<>+64(SB)/8, $8.3333333333333333333e-3
DATA expxpoly<>+72(SB)/8, $8.3333333333333333333e-3
DATA expxpoly<>+80(SB)/8, $8.3333333333333333333e-3
DATA expxpoly<>+88(SB)/8, $8.3333333333333333333e-3
DATA expxpoly<>+96(SB)/8, $4.1666666666666666667e-2
DATA expxpoly<>+104(SB)/8, $4.1666666666666666667e-2
DATA expxpoly<>+112(SB)/8, $4.1666666666666666667e-2
DATA expxpoly<>+120(SB)/8, $4.1666666666666666667e-2
DATA expxpoly<>+128(SB)/8, $1.6666666666666666667e-1
DATA expxpoly<>+136(SB)/8, $1.6666666666666666667e-1
DATA expxpoly<>+144(SB)/8, $1.6666666666666666667e-1
DATA expxpoly<>+152(SB)/8, $1.6666666666666666667e-1
DATA expxpoly<>+160(SB)/8, $0.5
DATA expxpoly<>+168(SB)/8, $0.5
DATA expxpoly<>+176(SB)/8, $0.5
DATA expxpoly<>+184(SB)/8, $0.5
GLOBL expxpoly<>(SB), RODATA, $192

// int32 lanes of the exponent checks: the bias 1023, and 2046, the largest
// biased exponent math.Exp scales by on its main path.
DATA expxbias<>+0(SB)/4, $1023
DATA expxbias<>+4(SB)/4, $1023
DATA expxbias<>+8(SB)/4, $1023
DATA expxbias<>+12(SB)/4, $1023
DATA expxbias<>+16(SB)/4, $2046
DATA expxbias<>+20(SB)/4, $2046
DATA expxbias<>+24(SB)/4, $2046
DATA expxbias<>+28(SB)/4, $2046
GLOBL expxbias<>(SB), RODATA, $32

// EXP_CONSTS broadcasts the scalar constants of EXP_EXACT: Y8 = LOG2E,
// Y9 = LN2U, Y10 = LN2L, Y11 = 1/16, Y12 = 2, Y13 = 1, Y14 = 1/8! and
// Y15 = the sign bit.
#define EXP_CONSTS \
	VBROADCASTSD expxconst<>+0(SB), Y8; \
	VBROADCASTSD expxconst<>+8(SB), Y9; \
	VBROADCASTSD expxconst<>+16(SB), Y10; \
	VBROADCASTSD expxconst<>+24(SB), Y11; \
	VBROADCASTSD expxconst<>+32(SB), Y12; \
	VBROADCASTSD expxconst<>+40(SB), Y13; \
	VBROADCASTSD expxconst<>+48(SB), Y14; \
	VBROADCASTSD expxconst<>+56(SB), Y15

// EXP_EXACT(bail) sets Y4 = math.Exp(Y1) lane by lane: the avxfma path of
// math.Exp's amd64 body (archExp) with each scalar instruction issued in
// packed form, in the same order and with the same operands — CVTSD2SL as
// VCVTPD2DQ, each VFNMADD231SD, VFMADD213SD, MULSD and ADDSD as its PD
// twin, and the exponent shift in 64-bit lanes — so each lane rounds as the
// scalar code does, FMA where it fuses and nowhere else. archExp leaves
// that path for a NaN or infinite x, for x above its overflow threshold and
// for a biased exponent k+1023 outside [1, 2046] (its overflow and
// denormal exits). All of those show in k: CVTSD2SL of a NaN, an infinity
// or an out-of-range product is 0x80000000, and x above the threshold
// rounds to k ≥ 1024. So when any lane's k+1023 is outside [1, 2046] the
// macro jumps to bail before Y4 is used, and the caller's scalar loop
// takes the group. Expects EXP_CONSTS; clobbers AX, Y2–Y7.
#define EXP_EXACT(bail) \
	VMULPD Y8, Y1, Y3; \
	VCVTPD2DQY Y3, X2; \
	VCVTDQ2PD X2, Y3; \
	VPADDD expxbias<>+0(SB), X2, X2; \
	VPCMPGTD expxbias<>+16(SB), X2, X6; \
	VPCMPEQD X7, X7, X7; \
	VPADDD X7, X2, X7; \
	VPOR X7, X6, X6; \
	VMOVMSKPS X6, AX; \
	TESTL AX, AX; \
	JNZ  bail; \
	VMOVAPD Y1, Y4; \
	VFNMADD231PD Y9, Y3, Y4; \
	VFNMADD231PD Y10, Y3, Y4; \
	VMULPD Y11, Y4, Y4; \
	VMOVAPD Y14, Y5; \
	VFMADD213PD expxpoly<>+0(SB), Y4, Y5; \
	VFMADD213PD expxpoly<>+32(SB), Y4, Y5; \
	VFMADD213PD expxpoly<>+64(SB), Y4, Y5; \
	VFMADD213PD expxpoly<>+96(SB), Y4, Y5; \
	VFMADD213PD expxpoly<>+128(SB), Y4, Y5; \
	VFMADD213PD expxpoly<>+160(SB), Y4, Y5; \
	VFMADD213PD Y13, Y4, Y5; \
	VMULPD Y5, Y4, Y4; \
	VADDPD Y12, Y4, Y5; \
	VMULPD Y5, Y4, Y4; \
	VADDPD Y12, Y4, Y5; \
	VMULPD Y5, Y4, Y4; \
	VADDPD Y12, Y4, Y5; \
	VMULPD Y5, Y4, Y4; \
	VADDPD Y12, Y4, Y5; \
	VFMADD213PD Y13, Y5, Y4; \
	VPMOVZXDQ X2, Y2; \
	VPSLLQ $52, Y2, Y2; \
	VMULPD Y2, Y4, Y4

// func expVecExactAVX2(dst, src *float64, n int) int
//
// dst[i] = math.Exp(src[i]) bit for bit over whole groups of four, stopping
// at the first group with a lane EXP_EXACT leaves to scalar code. Returns
// the elements written: a multiple of 4, at most n.
TEXT ·expVecExactAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	ANDQ $~3, CX
	EXP_CONSTS
	XORQ DX, DX
	CMPQ DX, CX
	JGE  xe_done
xe_loop:
	VMOVUPD (SI)(DX*8), Y1
	EXP_EXACT(xe_done)
	VMOVUPD Y4, (DI)(DX*8)
	ADDQ $4, DX
	CMPQ DX, CX
	JLT  xe_loop
xe_done:
	MOVQ DX, ret+24(FP)
	VZEROUPPER
	RET

// func logisticCoeffsAVX2(y, m *float64, n int) int
//
// m[j] = -y[j] / (1 + math.Exp(y[j]·m[j])) bit for bit over whole groups
// of four: y·m, EXP_EXACT, 1 + e, the sign flip and the divide, each in
// the scalar expression's operand order. Stops, like expVecExactAVX2, at
// the first group EXP_EXACT leaves to scalar code, and returns the
// elements written.
TEXT ·logisticCoeffsAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), SI
	MOVQ m+8(FP), DI
	MOVQ n+16(FP), CX
	ANDQ $~3, CX
	EXP_CONSTS
	XORQ DX, DX
	CMPQ DX, CX
	JGE  lc_done
lc_loop:
	VMOVUPD (SI)(DX*8), Y0   // y
	VMULPD (DI)(DX*8), Y0, Y1 // y·m
	EXP_EXACT(lc_done)
	VADDPD Y13, Y4, Y4       // 1 + e
	VXORPD Y15, Y0, Y0       // -y
	VDIVPD Y4, Y0, Y0        // -y / (1 + e)
	VMOVUPD Y0, (DI)(DX*8)
	ADDQ $4, DX
	CMPQ DX, CX
	JLT  lc_loop
lc_done:
	MOVQ DX, ret+24(FP)
	VZEROUPPER
	RET
