//go:build !purego

#include "textflag.h"

// Four-lane versions of Go's amd64 archLog, archExp (FMA path) and
// archHypot, and of the complex Abs and the division built on them.
// Each lane performs the scalar routine's operations in the same order
// and rounding, so it yields the same bits. A group of four whose
// lanes include an input the scalar routine branches away on stops the
// loop before anything of that group is stored; see vecmath.go.

// CONST4 lays out a float64 or int64 constant four times, for use as a
// 256-bit memory operand.
#define CONST4(name, val) \
	DATA name<>+0(SB)/8, val; \
	DATA name<>+8(SB)/8, val; \
	DATA name<>+16(SB)/8, val; \
	DATA name<>+24(SB)/8, val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// Shared.
CONST4(one, $1.0)
CONST4(two, $2.0)
CONST4(half, $0.5)
CONST4(absMask, $0x7FFFFFFFFFFFFFFF)
CONST4(posInf, $0x7FF0000000000000)

// Log (math/log_amd64.s).
CONST4(logMant, $0x000FFFFFFFFFFFFF)
CONST4(logMagic, $0x4330000000000000)   // 2^52
CONST4(logExpBias, $4503599627371518.0) // 2^52 + 0x3FE
CONST4(logHSqrt2, $7.07106781186547524401e-01)
CONST4(logLn2Hi, $6.93147180369123816490e-01)
CONST4(logLn2Lo, $1.90821492927058770002e-10)
CONST4(logL1, $6.666666666666735130e-01)
CONST4(logL2, $3.999999999940941908e-01)
CONST4(logL3, $2.857142874366239149e-01)
CONST4(logL4, $2.222219843214978396e-01)
CONST4(logL5, $1.818357216161805012e-01)
CONST4(logL6, $1.531383769920937332e-01)
CONST4(logL7, $1.479819860511658591e-01)

// Exp (math/exp_amd64.s).
CONST4(expLog2E, $1.4426950408889634073599246810018920)
CONST4(expLn2U, $0.69314718055966295651160180568695068359375)
CONST4(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(expOverflow, $7.09782712893384e+02)
CONST4(expSixteenth, $0.0625)
CONST4(expC3, $1.6666666666666666667e-1)
CONST4(expC4, $4.1666666666666666667e-2)
CONST4(expC5, $8.3333333333333333333e-3)
CONST4(expC6, $1.3888888888888888889e-3)
CONST4(expC7, $1.9841269841269841270e-4)
CONST4(expC8, $2.4801587301587301587e-5)
// Four int32 lanes each, for the biased exponent k+0x3FF: it must lie
// in [1, 0x7FE] for 2^k to be a normal float64.
DATA expBias<>+0(SB)/8, $0x000003FF000003FF
DATA expBias<>+8(SB)/8, $0x000003FF000003FF
GLOBL expBias<>(SB), RODATA|NOPTR, $16
DATA expMaxBiased<>+0(SB)/8, $0x000007FE000007FE
DATA expMaxBiased<>+8(SB)/8, $0x000007FE000007FE
GLOBL expMaxBiased<>(SB), RODATA|NOPTR, $16

// func logAVX2(dst, x []float64) int
TEXT ·logAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX
	VXORPD Y15, Y15, Y15

logLoop:
	CMPQ AX, CX
	JGE  logDone
	VMOVUPD (SI)(AX*8), Y0

	// special lanes: x not in (0, +Inf)
	VCMPPD    $0x1e, Y15, Y0, Y1         // x > 0
	VCMPPD    $0x11, posInf<>(SB), Y0, Y2 // x < +Inf
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPL      BX, $15
	JNE       logDone

	// f1, k := Frexp(x) by bits: f1 = mantissa | 0.5, k = exponent - 0x3FE
	VANDPD logMant<>(SB), Y0, Y2
	VORPD  half<>(SB), Y2, Y2     // y2 = f1
	VPSRLQ $52, Y0, Y1
	VPOR   logMagic<>(SB), Y1, Y1
	VSUBPD logExpBias<>(SB), Y1, Y1 // y1 = k

	// if Sqrt2/2 >= f1 { k -= 1; f1 *= 2 } (archLog's CMPSD predicate 5)
	VCMPPD $0x12, logHSqrt2<>(SB), Y2, Y3 // f1 <= Sqrt2/2
	VANDPD one<>(SB), Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD one<>(SB), Y3, Y3
	VMULPD Y3, Y2, Y2

	// f := f1 - 1; s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VSUBPD one<>(SB), Y2, Y2
	VADDPD two<>(SB), Y2, Y0
	VDIVPD Y0, Y2, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4

	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4

	// hfsq := 0.5 * f * f
	VMULPD half<>(SB), Y2, Y0
	VMULPD Y2, Y0, Y0

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD logLn2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	VMULPD logLn2Hi<>(SB), Y1, Y1
	VSUBPD Y0, Y1, Y1

	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     logLoop

logDone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func expAVX2(dst, x []float64) int
TEXT ·expAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX
	VPXOR X15, X15, X15

expLoop:
	CMPQ AX, CX
	JGE  expDone
	VMOVUPD (SI)(AX*8), Y0

	// k := round(x * Log2E), as CVTSD2SL rounds
	VMULPD     expLog2E<>(SB), Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD  X2, Y1

	// special lanes: x NaN or above Overflow; k+0x3FF outside [1, 0x7FE]
	VCMPPD    $0x12, expOverflow<>(SB), Y0, Y5 // x <= Overflow
	VPADDD    expBias<>(SB), X2, X3            // k + 0x3FF
	VPCMPGTD  X15, X3, X4                      // > 0
	VPCMPGTD  expMaxBiased<>(SB), X3, X6       // > 0x7FE
	VPANDN    X4, X6, X4
	VMOVMSKPS X4, BX
	VMOVMSKPD Y5, DX
	ANDL      DX, BX
	CMPL      BX, $15
	JNE       expDone

	// x -= k*LN2U; x -= k*LN2L (fused); x *= 1/16
	VFNMADD231PD expLn2U<>(SB), Y1, Y0
	VFNMADD231PD expLn2L<>(SB), Y1, Y0
	VMULPD       expSixteenth<>(SB), Y0, Y0

	// Taylor series, Horner with FMA
	VMOVUPD     expC8<>(SB), Y1
	VFMADD213PD expC7<>(SB), Y0, Y1
	VFMADD213PD expC6<>(SB), Y0, Y1
	VFMADD213PD expC5<>(SB), Y0, Y1
	VFMADD213PD expC4<>(SB), Y0, Y1
	VFMADD213PD expC3<>(SB), Y0, Y1
	VFMADD213PD half<>(SB), Y0, Y1
	VFMADD213PD one<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0

	// undo the 1/16 by squaring four times: y = y*(y+2), last one fused
	VADDPD      two<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      two<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      two<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      two<>(SB), Y0, Y1
	VFMADD213PD one<>(SB), Y1, Y0

	// * 2^k
	VPMOVZXDQ X3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0

	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     expLoop

expDone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// HYPOT sets out = hypot(p, q) lane by lane for finite p and q, as
// archHypot: max * sqrt(1 + (min/max)^2) on |p| and |q|, and +0 when
// both are zero. Clobbers p, q and Y4; Y15 must be zero.
#define HYPOT(p, q, out) \
	VANDPD  absMask<>(SB), p, p; \
	VANDPD  absMask<>(SB), q, q; \
	VMAXPD  q, p, out;           \
	VMINPD  q, p, q;             \
	VDIVPD  out, q, q;           \
	VCMPPD  $0, Y15, out, Y4;    \
	VANDNPD q, Y4, q;            \
	VMULPD  q, q, q;             \
	VADDPD  one<>(SB), q, q;     \
	VSQRTPD q, q;                \
	VMULPD  q, out, out

// FINITE2 sets BX to 15 when every lane of p and q is finite. Clobbers
// Y4 and Y5.
#define FINITE2(p, q) \
	VANDPD    absMask<>(SB), p, Y4;    \
	VCMPPD    $0x11, posInf<>(SB), Y4, Y4; \
	VANDPD    absMask<>(SB), q, Y5;    \
	VCMPPD    $0x11, posInf<>(SB), Y5, Y5; \
	VANDPD    Y5, Y4, Y4;              \
	VMOVMSKPD Y4, BX

// func hypotAVX2(dst, p, q []float64) int
TEXT ·hypotAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ p_base+24(FP), SI
	MOVQ p_len+32(FP), CX
	MOVQ q_base+48(FP), DX
	ANDQ $~3, CX
	XORQ AX, AX
	VXORPD Y15, Y15, Y15

hypotLoop:
	CMPQ AX, CX
	JGE  hypotDone
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DX)(AX*8), Y1
	FINITE2(Y0, Y1)
	CMPL    BX, $15
	JNE     hypotDone
	HYPOT(Y0, Y1, Y2)
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     hypotLoop

hypotDone:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET

// func absAVX2(dst []float64, x []complex128) int
TEXT ·absAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX
	VXORPD Y15, Y15, Y15

absLoop:
	CMPQ AX, CX
	JGE  absDone
	MOVQ AX, DX
	SHLQ $4, DX
	VMOVUPD (SI)(DX*1), Y0  // re0 im0 re1 im1
	VMOVUPD 32(SI)(DX*1), Y1 // re2 im2 re3 im3
	VUNPCKLPD Y1, Y0, Y2    // re0 re2 re1 re3
	VUNPCKHPD Y1, Y0, Y3    // im0 im2 im1 im3
	FINITE2(Y2, Y3)
	CMPL    BX, $15
	JNE     absDone
	HYPOT(Y2, Y3, Y0)
	VPERMPD $0xd8, Y0, Y0   // lanes 0 2 1 3 back to 0 1 2 3
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     absLoop

absDone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func divAVX2(dst, x, y []float64, floor float64) int
TEXT ·divAVX2(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	MOVQ         y_base+48(FP), DX
	VBROADCASTSD floor+72(FP), Y15
	ANDQ         $~3, CX
	XORQ         AX, AX

divLoop:
	CMPQ AX, CX
	JGE  divDone
	VMOVUPD   (DX)(AX*8), Y1
	VCMPPD    $0x15, Y15, Y1, Y2 // !(y < floor)
	VMOVMSKPD Y2, BX
	CMPL      BX, $15
	JNE       divDone
	VMOVUPD   (SI)(AX*8), Y0
	VDIVPD    Y1, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       divLoop

divDone:
	MOVQ AX, ret+80(FP)
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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
