package sigproc

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestBytesToBits(t *testing.T) {
	bits := BytesToBits([]byte{0xA5}, nil)
	want := []byte{1, 0, 1, 0, 0, 1, 0, 1}
	if !bytes.Equal(bits, want) {
		t.Fatalf("got %v, want %v", bits, want)
	}
}

func TestBitsToBytesDropsTail(t *testing.T) {
	bits := []byte{1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1} // 8 + 3 bits
	out := BitsToBytes(bits, nil)
	if len(out) != 1 || out[0] != 0xF0 {
		t.Fatalf("got %v, want [0xF0]", out)
	}
}

func TestBitsRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		bits := BytesToBits(data, nil)
		back := BitsToBytes(bits, nil)
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesToBitsAppends(t *testing.T) {
	dst := []byte{9}
	out := BytesToBits([]byte{0x80}, dst)
	if out[0] != 9 || out[1] != 1 || len(out) != 9 {
		t.Fatalf("append semantics broken: %v", out)
	}
}

func TestCountBitErrors(t *testing.T) {
	a := []byte{0, 1, 1, 0}
	b := []byte{0, 1, 0, 0}
	if got := CountBitErrors(a, b); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
	if got := CountBitErrors(a, a); got != 0 {
		t.Fatalf("identical slices: got %d errors", got)
	}
	// Length mismatch counts missing bits as errors.
	if got := CountBitErrors([]byte{1, 1, 1}, []byte{1}); got != 2 {
		t.Fatalf("length mismatch: got %d, want 2", got)
	}
	if got := CountBitErrors([]byte{1}, []byte{1, 1, 1}); got != 2 {
		t.Fatalf("length mismatch (other side): got %d, want 2", got)
	}
}
