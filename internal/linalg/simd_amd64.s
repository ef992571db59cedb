//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 kernels of the SIMD backend, for both kernel tiers. The fast-tier
// kernels (AVX2+FMA) are the assembly twins of the pure-Go fast kernels in
// fast.go: reassociated, FMA-contracted, tolerance-bounded. The exact-tier
// kernels (denseMarginsExactAVX2, denseAccumExactAVX2) are the twins of the
// exact Go loops in block.go and compute the same bits: each lane is one
// row's (or one gradient slot's) single running sum in index order, every
// step a multiply then an add — they contain no FMA opcode, and a test
// holds them to that. Dispatch (runtime CPU detection, per-call size
// thresholds) lives in simd_amd64.go, and the Go loops remain both the
// portable fallback and the oracle the equivalence tests compare against.
// Calling convention is ABI0 with bare pointers + lengths — the Go wrappers
// own every bounds/emptiness check, the assembly assumes validated
// arguments. All kernels are NOSPLIT leaves, end in VZEROUPPER, and clobber
// no callee-saved state.

// func dotAVX2(a, b *float64, n int) float64
//
// 16-wide: four 4-lane FMA accumulators (the asm analogue of the Go tier's
// FastAccumulators=4 chains, each now carrying 4 lanes). Tail: one 4-wide
// block, then scalar FMAs into the reduced sum.
TEXT ·dotAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, AX
	SHRQ $4, AX
	JZ   dot_tail4
dot_loop16:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  dot_loop16
dot_tail4:
	MOVQ CX, AX
	ANDQ $15, AX
	MOVQ AX, DX
	SHRQ $2, DX
	JZ   dot_reduce
dot_loop4:
	VMOVUPD (SI), Y4
	VFMADD231PD (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  dot_loop4
dot_reduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	ANDQ $3, AX
	JZ   dot_done
dot_loop1:
	VMOVSD (SI), X2
	VFMADD231SD (DI), X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ AX
	JNZ  dot_loop1
dot_done:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func denseMarginsAVX2(vals *float64, stride int, w *float64, out *float64, rows int)
//
// out[j] = <vals[j*stride:(j+1)*stride], w> for j in [0, rows): the dotAVX2
// body with the row loop folded into the same call, so one asm transition
// covers a whole 512-row block.
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

// func denseMarginsExactAVX2(vals *float64, stride int, w *float64, out *float64, rows int)
//
// The exact tier's margins, rows as lanes: Y0 carries four rows' running
// sums, one per lane. Each step loads a 4x4 tile (four rows, four columns),
// transposes it so a register holds one column across the four rows,
// broadcasts that column's w, and adds the product into the sums — a
// multiply then an add, never an FMA, column by column in index order.
// Every lane is thus the single-accumulator loop of dotContig, bit for bit.
// Columns past the last multiple of four are gathered one at a time into a
// lane-per-row register. rows must be a positive multiple of 4 and
// stride > 0 (wrapper-enforced).
TEXT ·denseMarginsExactAVX2(SB), NOSPLIT, $0-40
	MOVQ vals+0(FP), SI
	MOVQ stride+8(FP), R8
	MOVQ w+16(FP), DI
	MOVQ out+24(FP), R9
	MOVQ rows+32(FP), R10
	SHRQ $2, R10             // row groups
	MOVQ R8, R11
	SHLQ $3, R11             // stride in bytes
dx_group:
	MOVQ SI, R12             // rows 0 and 1 at (R12), (R12)(R11*1)
	LEAQ (SI)(R11*2), R13    // rows 2 and 3 at (R13), (R13)(R11*1)
	MOVQ DI, BX              // w
	VXORPD Y0, Y0, Y0
	MOVQ R8, AX
	SHRQ $2, AX
	JZ   dx_tail
dx_loop4:
	VMOVUPD (R12), Y1        // a0 a1 a2 a3
	VMOVUPD (R12)(R11*1), Y2 // b0 b1 b2 b3
	VMOVUPD (R13), Y3        // c0 c1 c2 c3
	VMOVUPD (R13)(R11*1), Y4 // d0 d1 d2 d3
	VUNPCKLPD Y2, Y1, Y5     // a0 b0 a2 b2
	VUNPCKHPD Y2, Y1, Y6     // a1 b1 a3 b3
	VUNPCKLPD Y4, Y3, Y7     // c0 d0 c2 d2
	VUNPCKHPD Y4, Y3, Y8     // c1 d1 c3 d3
	VPERM2F128 $0x20, Y7, Y5, Y1 // a0 b0 c0 d0
	VPERM2F128 $0x20, Y8, Y6, Y2 // a1 b1 c1 d1
	VPERM2F128 $0x31, Y7, Y5, Y3 // a2 b2 c2 d2
	VPERM2F128 $0x31, Y8, Y6, Y4 // a3 b3 c3 d3
	VBROADCASTSD (BX), Y9
	VBROADCASTSD 8(BX), Y10
	VBROADCASTSD 16(BX), Y11
	VBROADCASTSD 24(BX), Y12
	VMULPD Y9, Y1, Y1
	VADDPD Y1, Y0, Y0
	VMULPD Y10, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMULPD Y11, Y3, Y3
	VADDPD Y3, Y0, Y0
	VMULPD Y12, Y4, Y4
	VADDPD Y4, Y0, Y0
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, BX
	DECQ AX
	JNZ  dx_loop4
dx_tail:
	MOVQ R8, AX
	ANDQ $3, AX
	JZ   dx_store
dx_loop1:
	VMOVSD (R12), X1
	VMOVHPD (R12)(R11*1), X1, X1 // a b
	VMOVSD (R13), X2
	VMOVHPD (R13)(R11*1), X2, X2 // c d
	VINSERTF128 $1, X2, Y1, Y1   // a b c d
	VBROADCASTSD (BX), Y9
	VMULPD Y9, Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, BX
	DECQ AX
	JNZ  dx_loop1
dx_store:
	VMOVUPD Y0, (R9)
	ADDQ $32, R9
	LEAQ (SI)(R11*4), SI     // next four rows
	DECQ R10
	JNZ  dx_group
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

// func sparseDotAVX2(idx *int32, vals *float64, n int, w *float64) float64
//
// Gathered sparse dot: two 4-lane FMA chains fed by VGATHERDPD (dword
// indices selecting qword elements of w). The caller has already trimmed the
// sorted index tail at len(w) and verified non-negativity, so every gathered
// lane is in bounds. The gather mask is all-ones and must be rebuilt per
// gather — the instruction consumes it.
TEXT ·sparseDotAVX2(SB), NOSPLIT, $0-40
	MOVQ idx+0(FP), SI
	MOVQ vals+8(FP), DX
	MOVQ n+16(FP), CX
	MOVQ w+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VPCMPEQD Y15, Y15, Y15   // all-ones mask template
	MOVQ CX, AX
	SHRQ $3, AX
	JZ   sp_tail4
sp_loop8:
	VMOVDQU (SI), X2
	VMOVDQU 16(SI), X3
	VMOVDQA Y15, Y4
	VGATHERDPD Y4, (DI)(X2*8), Y5
	VMOVDQA Y15, Y6
	VGATHERDPD Y6, (DI)(X3*8), Y7
	VFMADD231PD (DX), Y5, Y0
	VFMADD231PD 32(DX), Y7, Y1
	ADDQ $32, SI
	ADDQ $64, DX
	DECQ AX
	JNZ  sp_loop8
sp_tail4:
	MOVQ CX, AX
	ANDQ $7, AX
	CMPQ AX, $4
	JLT  sp_reduce
	VMOVDQU (SI), X2
	VMOVDQA Y15, Y4
	VGATHERDPD Y4, (DI)(X2*8), Y5
	VFMADD231PD (DX), Y5, Y0
	ADDQ $16, SI
	ADDQ $32, DX
	SUBQ $4, AX
sp_reduce:
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	TESTQ AX, AX
	JZ   sp_done
sp_loop1:
	MOVLQSX (SI), R9
	VMOVSD (DI)(R9*8), X2
	VFMADD231SD (DX), X2, X0
	ADDQ $4, SI
	ADDQ $8, DX
	DECQ AX
	JNZ  sp_loop1
sp_done:
	VMOVSD X0, ret+32(FP)
	VZEROUPPER
	RET

// Constants of expVecAVX2. Scalars (broadcast at entry):
DATA expconst<>+0(SB)/8, $0x3FF71547652B82FE   // 1/ln2
DATA expconst<>+8(SB)/8, $0x4338000000000000   // shifter 1.5*2^52
DATA expconst<>+16(SB)/8, $0x3FE62E42FEE00000  // ln2hi
DATA expconst<>+24(SB)/8, $0x3DEA39EF35793C76  // ln2lo
DATA expconst<>+32(SB)/8, $0x40862E42FEFA39EF  // overflow threshold
DATA expconst<>+40(SB)/8, $0xC086232BDD7ABCD1  // underflow threshold
DATA expconst<>+48(SB)/8, $0x00000000000003FF  // exponent bias 1023
GLOBL expconst<>(SB), RODATA, $56

// 256-bit replicated constants (memory operands of FMA/blend):
DATA exppoly<>+0(SB)/8, $0x3F2A01A01A01A01A   // 1/5040
DATA exppoly<>+8(SB)/8, $0x3F2A01A01A01A01A
DATA exppoly<>+16(SB)/8, $0x3F2A01A01A01A01A
DATA exppoly<>+24(SB)/8, $0x3F2A01A01A01A01A
DATA exppoly<>+32(SB)/8, $0x3F56C16C16C16C17  // 1/720
DATA exppoly<>+40(SB)/8, $0x3F56C16C16C16C17
DATA exppoly<>+48(SB)/8, $0x3F56C16C16C16C17
DATA exppoly<>+56(SB)/8, $0x3F56C16C16C16C17
DATA exppoly<>+64(SB)/8, $0x3F81111111111111  // 1/120
DATA exppoly<>+72(SB)/8, $0x3F81111111111111
DATA exppoly<>+80(SB)/8, $0x3F81111111111111
DATA exppoly<>+88(SB)/8, $0x3F81111111111111
DATA exppoly<>+96(SB)/8, $0x3FA5555555555555  // 1/24
DATA exppoly<>+104(SB)/8, $0x3FA5555555555555
DATA exppoly<>+112(SB)/8, $0x3FA5555555555555
DATA exppoly<>+120(SB)/8, $0x3FA5555555555555
DATA exppoly<>+128(SB)/8, $0x3FC5555555555555 // 1/6
DATA exppoly<>+136(SB)/8, $0x3FC5555555555555
DATA exppoly<>+144(SB)/8, $0x3FC5555555555555
DATA exppoly<>+152(SB)/8, $0x3FC5555555555555
DATA exppoly<>+160(SB)/8, $0x3FE0000000000000 // 1/2
DATA exppoly<>+168(SB)/8, $0x3FE0000000000000
DATA exppoly<>+176(SB)/8, $0x3FE0000000000000
DATA exppoly<>+184(SB)/8, $0x3FE0000000000000
DATA exppoly<>+192(SB)/8, $0x3FF0000000000000 // 1
DATA exppoly<>+200(SB)/8, $0x3FF0000000000000
DATA exppoly<>+208(SB)/8, $0x3FF0000000000000
DATA exppoly<>+216(SB)/8, $0x3FF0000000000000
DATA exppoly<>+224(SB)/8, $0x7FF0000000000000 // +Inf
DATA exppoly<>+232(SB)/8, $0x7FF0000000000000
DATA exppoly<>+240(SB)/8, $0x7FF0000000000000
DATA exppoly<>+248(SB)/8, $0x7FF0000000000000
GLOBL exppoly<>(SB), RODATA, $256

// func expVecAVX2(dst, src *float64, n int)
//
// Four lanes of ExpFast per iteration: Cody–Waite range reduction with the
// shifter trick (k both as rounded double and, via the mantissa bits of
// t = x/ln2 + 1.5*2^52, as int64 without a float->int conversion), the same
// degree-7 polynomial as the scalar (FMA-contracted), and a branch-free
// 2^k: k clamps to 1023 with the single overflowing step (k=1024, reachable
// just below the overflow threshold) folded into a second normal scale
// factor 2^(k-1023). Out-of-range and NaN lanes compute garbage harmlessly
// and are blended to the scalar tier's contractual results (+Inf / 0 / x)
// at the end. n must be a positive multiple of 4 (wrapper-enforced).
TEXT ·expVecAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DX
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	VBROADCASTSD expconst<>+0(SB), Y8    // 1/ln2
	VBROADCASTSD expconst<>+8(SB), Y9    // shifter
	VBROADCASTSD expconst<>+16(SB), Y10  // ln2hi
	VBROADCASTSD expconst<>+24(SB), Y11  // ln2lo
	VBROADCASTSD expconst<>+32(SB), Y12  // overflow
	VBROADCASTSD expconst<>+40(SB), Y13  // underflow
	VBROADCASTSD expconst<>+48(SB), Y15  // bias 1023 (int64 lanes)
	VMOVAPD Y9, Y14                      // shifter bits (int64 lanes)
exp_loop:
	VMOVUPD (SI), Y0                     // x
	VMOVAPD Y9, Y1
	VFMADD231PD Y8, Y0, Y1               // t = shifter + x/ln2
	VSUBPD Y9, Y1, Y2                    // k = t - shifter (round-to-nearest)
	VMOVAPD Y0, Y3
	VFNMADD231PD Y10, Y2, Y3             // r = x - k*ln2hi
	VFNMADD231PD Y11, Y2, Y3             // r -= k*ln2lo
	VMOVUPD exppoly<>+0(SB), Y4          // p = 1/5040
	VFMADD213PD exppoly<>+32(SB), Y3, Y4 // p = p*r + 1/720
	VFMADD213PD exppoly<>+64(SB), Y3, Y4 // p = p*r + 1/120
	VFMADD213PD exppoly<>+96(SB), Y3, Y4 // p = p*r + 1/24
	VFMADD213PD exppoly<>+128(SB), Y3, Y4 // p = p*r + 1/6
	VFMADD213PD exppoly<>+160(SB), Y3, Y4 // p = p*r + 1/2
	VFMADD213PD exppoly<>+192(SB), Y3, Y4 // p = p*r + 1
	VFMADD213PD exppoly<>+192(SB), Y3, Y4 // p = p*r + 1 = e^r
	VPSUBQ Y14, Y1, Y5                   // ki = int64(k) from t's mantissa bits
	VPCMPGTQ Y15, Y5, Y6                 // lanes with ki > 1023
	VPSRLQ $63, Y6, Y6                   // excess = 0 or 1
	VPSUBQ Y6, Y5, Y5                    // ki -= excess
	VPADDQ Y15, Y5, Y5
	VPSLLQ $52, Y5, Y5                   // scale1 = 2^ki as bits
	VPADDQ Y15, Y6, Y6
	VPSLLQ $52, Y6, Y6                   // scale2 = 2^excess as bits
	VMULPD Y5, Y4, Y4                    // p *= scale1
	VMULPD Y6, Y4, Y4                    // p *= scale2
	VCMPPD $0x1E, Y12, Y0, Y7            // x > overflow (GT_OQ)
	VBLENDVPD Y7, exppoly<>+224(SB), Y4, Y4 // -> +Inf
	VCMPPD $0x11, Y13, Y0, Y7            // x < underflow (LT_OQ)
	VANDNPD Y4, Y7, Y4                   // -> 0
	VCMPPD $0x3, Y0, Y0, Y7              // unordered: NaN lanes
	VBLENDVPD Y7, Y0, Y4, Y4             // -> x (NaN passthrough)
	VMOVUPD Y4, (DX)
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  exp_loop
	VZEROUPPER
	RET
