package vecmath

import "math"

// Erfc is the one branchy kernel: math.Erfc picks one of six branches
// by |x|, and a lane-by-lane loop over mixed inputs mispredicts most
// of them. The grouped body classifies each lane first, compacts the
// lanes of each branch, and evaluates every branch as a straight loop
// over its own lanes. The two tail branches share one pass that sends
// both of their Exps through the Exp kernel.
//
// math.Erfc is pure Go on amd64 (no archErfc), and gc on amd64 fuses
// no multiply-add, so the branch bodies below, written as erf.go writes
// them (the same constants, the same operations in the same order),
// round exactly as math.Erfc does. Elsewhere the compiler may fuse the
// two copies differently, so the grouped body runs only where useErfc
// is set: on amd64 outside the purego build.

// Erfc sets dst[k] = math.Erfc(x[k]) over the leading groups of four
// and returns how many elements it wrote. It has no special lanes: it
// writes every whole group, so only a last partial group is left.
func Erfc(dst, x []float64) int {
	n := len(x) &^ 3
	dst, x = dst[:n], x[:n]
	if useErfc {
		for k := 0; k < n; k += erfcBlock {
			end := min(k+erfcBlock, n)
			erfcGrouped(dst[k:end], x[k:end])
		}
		return n
	}
	for k, v := range x {
		dst[k] = math.Erfc(v)
	}
	return n
}

// erfcBlock is the number of lanes erfcGrouped classifies at once: its
// per-branch index lists and Exp scratch live on the stack.
const erfcBlock = 64

// The branches of math.Erfc, in order of |x|.
const (
	erfcTiny  = iota // |x| < 2^-56
	erfcSmall        // |x| < 1/4
	erfcQuart        // |x| < 0.84375
	erfcMid          // |x| < 1.25
	erfcTailA        // |x| < 1/0.35
	erfcTailB        // |x| < 28, but not x < -6
	erfcRest         // NaN, ±Inf, |x| >= 28 and x < -6: a constant
	erfcClasses
)

// math.Erfc's constants (math/erf.go), spelled as it spells them.
const (
	erx = 8.45062911510467529297e-01 // 0x3FEB0AC160000000
	// Coefficients for approximation to  erf in [0, 0.84375]
	pp0 = 1.28379167095512558561e-01  // 0x3FC06EBA8214DB68
	pp1 = -3.25042107247001499370e-01 // 0xBFD4CD7D691CB913
	pp2 = -2.84817495755985104766e-02 // 0xBF9D2A51DBD7194F
	pp3 = -5.77027029648944159157e-03 // 0xBF77A291236668E4
	pp4 = -2.37630166566501626084e-05 // 0xBEF8EAD6120016AC
	qq1 = 3.97917223959155352819e-01  // 0x3FD97779CDDADC09
	qq2 = 6.50222499887672944485e-02  // 0x3FB0A54C5536CEBA
	qq3 = 5.08130628187576562776e-03  // 0x3F74D022C4D36B0F
	qq4 = 1.32494738004321644526e-04  // 0x3F215DC9221C1A10
	qq5 = -3.96022827877536812320e-06 // 0xBED09C4342A26120
	// Coefficients for approximation to  erf  in [0.84375, 1.25]
	pa0 = -2.36211856075265944077e-03 // 0xBF6359B8BEF77538
	pa1 = 4.14856118683748331666e-01  // 0x3FDA8D00AD92B34D
	pa2 = -3.72207876035701323847e-01 // 0xBFD7D240FBB8C3F1
	pa3 = 3.18346619901161753674e-01  // 0x3FD45FCA805120E4
	pa4 = -1.10894694282396677476e-01 // 0xBFBC63983D3E28EC
	pa5 = 3.54783043256182359371e-02  // 0x3FA22A36599795EB
	pa6 = -2.16637559486879084300e-03 // 0xBF61BF380A96073F
	qa1 = 1.06420880400844228286e-01  // 0x3FBB3E6618EEE323
	qa2 = 5.40397917702171048937e-01  // 0x3FE14AF092EB6F33
	qa3 = 7.18286544141962662868e-02  // 0x3FB2635CD99FE9A7
	qa4 = 1.26171219808761642112e-01  // 0x3FC02660E763351F
	qa5 = 1.36370839120290507362e-02  // 0x3F8BEDC26B51DD1C
	qa6 = 1.19844998467991074170e-02  // 0x3F888B545735151D
	// Coefficients for approximation to  erfc in [1.25, 1/0.35]
	ra0 = -9.86494403484714822705e-03 // 0xBF843412600D6435
	ra1 = -6.93858572707181764372e-01 // 0xBFE63416E4BA7360
	ra2 = -1.05586262253232909814e+01 // 0xC0251E0441B0E726
	ra3 = -6.23753324503260060396e+01 // 0xC04F300AE4CBA38D
	ra4 = -1.62396669462573470355e+02 // 0xC0644CB184282266
	ra5 = -1.84605092906711035994e+02 // 0xC067135CEBCCABB2
	ra6 = -8.12874355063065934246e+01 // 0xC054526557E4D2F2
	ra7 = -9.81432934416914548592e+00 // 0xC023A0EFC69AC25C
	sa1 = 1.96512716674392571292e+01  // 0x4033A6B9BD707687
	sa2 = 1.37657754143519042600e+02  // 0x4061350C526AE721
	sa3 = 4.34565877475229228821e+02  // 0x407B290DD58A1A71
	sa4 = 6.45387271733267880336e+02  // 0x40842B1921EC2868
	sa5 = 4.29008140027567833386e+02  // 0x407AD02157700314
	sa6 = 1.08635005541779435134e+02  // 0x405B28A3EE48AE2C
	sa7 = 6.57024977031928170135e+00  // 0x401A47EF8E484A93
	sa8 = -6.04244152148580987438e-02 // 0xBFAEEFF2EE749A62
	// Coefficients for approximation to  erfc in [1/.35, 28]
	rb0 = -9.86494292470009928597e-03 // 0xBF84341239E86F4A
	rb1 = -7.99283237680523006574e-01 // 0xBFE993BA70C285DE
	rb2 = -1.77579549177547519889e+01 // 0xC031C209555F995A
	rb3 = -1.60636384855821916062e+02 // 0xC064145D43C5ED98
	rb4 = -6.37566443368389627722e+02 // 0xC083EC881375F228
	rb5 = -1.02509513161107724954e+03 // 0xC09004616A2E5992
	rb6 = -4.83519191608651397019e+02 // 0xC07E384E9BDC383F
	sb1 = 3.03380607434824582924e+01  // 0x403E568B261D5190
	sb2 = 3.25792512996573918826e+02  // 0x40745CAE221B9F0A
	sb3 = 1.53672958608443695994e+03  // 0x409802EB189D5118
	sb4 = 3.19985821950859553908e+03  // 0x40A8FFB7688C246A
	sb5 = 2.55305040643316442583e+03  // 0x40A3F219CEDF3BE6
	sb6 = 4.74528541206955367215e+02  // 0x407DA874E79FE763
	sb7 = -2.24409524465858183362e+01 // 0xC03670E242712D62
)

// The bits of erfc's branch edges: for a non-negative float64 the bit
// pattern orders like the value.
const (
	bitsTiny  = 0x3c70000000000000 // 2^-56
	bitsQuart = 0x3fd0000000000000 // 1/4
	bitsSmall = 0x3feb000000000000 // 0.84375
	bitsMid   = 0x3ff4000000000000 // 1.25
	bitsTailA = 0x4006db6db6db6db7 // 1/0.35
	bitsTailB = 0x403c000000000000 // 28
	bitsSix   = 0x4018000000000000 // 6
)

// erfcClass returns v's branch of math.Erfc without a branch of its
// own: each edge test is the sign bit of a difference of bit patterns.
// NaN's bits exceed +Inf's, so NaN lands in erfcRest.
func erfcClass(v float64) int {
	b := math.Float64bits(v)
	a := b &^ (1 << 63) // |v|
	c := above(a, bitsTiny-1) + above(a, bitsQuart-1) + above(a, bitsSmall-1) + above(a, bitsMid-1) + above(a, bitsTailA-1)
	// x < -6 returns 2 from erfc's tail branch: a constant, like |x| >= 28.
	c += above(a, bitsTailB-1) | (b >> 63 & above(a, bitsSix))
	return int(c)
}

// above is 1 when a > t, for a and t below 2^63.
func above(a, t uint64) uint64 { return (t - a) >> 63 }

// erfcGrouped evaluates math.Erfc over at most erfcBlock lanes, branch
// by branch. dst may be x itself: each lane is read before it is
// written, and no lane reads another.
func erfcGrouped(dst, x []float64) {
	var idx [erfcClasses][erfcBlock]uint8
	var cnt [erfcClasses]int
	for k, v := range x {
		c := erfcClass(v)
		idx[c][cnt[c]] = uint8(k)
		cnt[c]++
	}
	for _, k := range idx[erfcRest][:cnt[erfcRest]] {
		dst[k] = math.Erfc(x[k])
	}
	for _, k := range idx[erfcTiny][:cnt[erfcTiny]] {
		v := x[k]
		if v < 0 {
			dst[k] = 1 + -v
		} else {
			dst[k] = 1 - v
		}
	}
	// |x| < 0.84375 splits at erfc's own 1/4 test, so each loop takes
	// one side of it.
	for _, k := range idx[erfcSmall][:cnt[erfcSmall]] {
		v := x[k]
		sign := v < 0
		if sign {
			v = -v
		}
		temp := v + v*erfcSmallY(v)
		if sign {
			dst[k] = 1 + temp
		} else {
			dst[k] = 1 - temp
		}
	}
	for _, k := range idx[erfcQuart][:cnt[erfcQuart]] {
		v := x[k]
		sign := v < 0
		if sign {
			v = -v
		}
		temp := 0.5 + (v*erfcSmallY(v) + (v - 0.5))
		if sign {
			dst[k] = 1 + temp
		} else {
			dst[k] = 1 - temp
		}
	}
	for _, k := range idx[erfcMid][:cnt[erfcMid]] {
		v := x[k]
		sign := v < 0
		if sign {
			v = -v
		}
		s := v - 1
		P := pa0 + s*(pa1+s*(pa2+s*(pa3+s*(pa4+s*(pa5+s*pa6)))))
		Q := 1 + s*(qa1+s*(qa2+s*(qa3+s*(qa4+s*(qa5+s*qa6)))))
		if sign {
			dst[k] = 1 + erx + P/Q
		} else {
			dst[k] = 1 - erx - P/Q
		}
	}

	// The tails: R/S per branch, then both Exp arguments of every tail
	// lane, in one list, through the Exp kernel.
	var tail [erfcBlock]uint8
	var ea, eb [erfcBlock]float64
	nt := 0
	for _, k := range idx[erfcTailA][:cnt[erfcTailA]] {
		v := math.Abs(x[k])
		s := 1 / (v * v)
		R := ra0 + s*(ra1+s*(ra2+s*(ra3+s*(ra4+s*(ra5+s*(ra6+s*ra7))))))
		S := 1 + s*(sa1+s*(sa2+s*(sa3+s*(sa4+s*(sa5+s*(sa6+s*(sa7+s*sa8)))))))
		tail[nt], eb[nt] = k, R/S
		nt++
	}
	for _, k := range idx[erfcTailB][:cnt[erfcTailB]] {
		v := math.Abs(x[k])
		s := 1 / (v * v)
		R := rb0 + s*(rb1+s*(rb2+s*(rb3+s*(rb4+s*(rb5+s*rb6)))))
		S := 1 + s*(sb1+s*(sb2+s*(sb3+s*(sb4+s*(sb5+s*(sb6+s*sb7))))))
		tail[nt], eb[nt] = k, R/S
		nt++
	}
	for j, k := range tail[:nt] {
		v := math.Abs(x[k])
		z := math.Float64frombits(math.Float64bits(v) & 0xffffffff00000000) // pseudo-single (20-bit) precision x
		ea[j] = -z*z - 0.5625
		eb[j] = (z-v)*(z+v) + eb[j]
	}
	expInPlace(ea[:nt])
	expInPlace(eb[:nt])
	for j, k := range tail[:nt] {
		v := x[k]
		r := ea[j] * eb[j]
		if v < 0 {
			dst[k] = 2 - r/-v
		} else {
			dst[k] = r / v
		}
	}
}

// expInPlace sets v[k] = math.Exp(v[k]) through the Exp kernel,
// finishing each group it stops at with math.Exp.
func expInPlace(v []float64) {
	for k := 0; k < len(v); {
		k += Exp(v[k:], v[k:])
		for end := min(k+4, len(v)); k < end; k++ {
			v[k] = math.Exp(v[k])
		}
	}
}

// erfcSmallY is erfc's r/s for 2^-56 <= |x| < 0.84375, given |x|.
func erfcSmallY(x float64) float64 {
	z := x * x
	r := pp0 + z*(pp1+z*(pp2+z*(pp3+z*pp4)))
	s := 1 + z*(qq1+z*(qq2+z*(qq3+z*(qq4+z*qq5))))
	return r / s
}
