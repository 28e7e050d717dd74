package sigproc

// Bit utilities. Frames travel through the PHY as []byte; line codes and
// modulators work on individual bits in MSB-first order, matching the
// on-air order of most backscatter links.

// BytesToBits expands data into one byte per bit (0 or 1), MSB first,
// appending to dst and returning it.
func BytesToBits(data []byte, dst []byte) []byte {
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			dst = append(dst, (b>>uint(i))&1)
		}
	}
	return dst
}

// BitsToBytes packs a bit-per-byte slice (MSB first) into bytes, appending
// to dst and returning it. Trailing bits that do not fill a byte are
// dropped.
func BitsToBytes(bits []byte, dst []byte) []byte {
	for len(bits) >= 8 {
		var b byte
		for i := 0; i < 8; i++ {
			b = b<<1 | (bits[i] & 1)
		}
		dst = append(dst, b)
		bits = bits[8:]
	}
	return dst
}

// CountBitErrors returns the number of positions where a and b differ,
// comparing up to the shorter length, plus the length difference (missing
// bits count as errors).
func CountBitErrors(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	errs := 0
	for i := 0; i < n; i++ {
		if a[i]&1 != b[i]&1 {
			errs++
		}
	}
	if len(a) > n {
		errs += len(a) - n
	}
	if len(b) > n {
		errs += len(b) - n
	}
	return errs
}
