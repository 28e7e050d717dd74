//go:build !amd64 || purego

package vecmath

// Without the assembly the dispatch switches stay false, so these are
// never called.

func logAVX2(dst, x []float64) int                   { panic("vecmath: no assembly") }
func expAVX2(dst, x []float64) int                   { panic("vecmath: no assembly") }
func hypotAVX2(dst, p, q []float64) int              { panic("vecmath: no assembly") }
func absAVX2(dst []float64, x []complex128) int      { panic("vecmath: no assembly") }
func divAVX2(dst, x, y []float64, floor float64) int { panic("vecmath: no assembly") }

func hasFMA() bool { return false }
