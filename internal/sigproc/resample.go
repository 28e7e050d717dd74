package sigproc

import "math"

// FractionalDelay delays a buffer by a possibly non-integer number of
// samples using linear interpolation, writing into dst (allocated if nil
// or short). Samples shifted in from before the start of x are zero.
// Negative delays advance the signal. The output has the same length as
// the input.
func FractionalDelay(x IQ, delay float64, dst IQ) IQ {
	if cap(dst) < len(x) {
		dst = make(IQ, len(x))
	}
	dst = dst[:len(x)]
	for i := range dst {
		pos := float64(i) - delay
		lo := math.Floor(pos)
		frac := pos - lo
		ilo := int(lo)
		var a, b complex128
		if ilo >= 0 && ilo < len(x) {
			a = x[ilo]
		}
		if ilo+1 >= 0 && ilo+1 < len(x) {
			b = x[ilo+1]
		}
		dst[i] = a*complex(1-frac, 0) + b*complex(frac, 0)
	}
	return dst
}
