// Package alloctest is the noalloc corpus: heap escapes the compiler
// reports inside annotated functions, the three AST rules -m cannot
// see, the blessed in-place idioms, non-escaping forms that do not
// allocate, and the alloc-ok escape hatch. It must build: the analyzer
// compiles it with -gcflags=-m.
package alloctest

import "fmt"

// Result mimics core.TransferResult: reusable slices behind a pointer.
type Result struct {
	Bits  []uint8
	Count int
}

// Sink is an interface target for boxing checks.
type Sink interface{ Total() int }

type counter struct{ n int }

func (c *counter) Total() int { return c.n }

type value struct{ n int }

func (v value) Total() int { return v.n }

// Package-level sinks: storing into one makes a value escape.
var (
	sinkBytes []byte
	sinkInts  []int
	sinkMap   map[string]int
	sinkRes   *Result
	sinkFunc  func() int
	sinkIface Sink
	sinkStr   string
)

// transferInto is the blessed hot-path shape: reuse capacity through
// the result pointer, write struct values in place.
//
//fdlint:noalloc
func transferInto(res *Result, bits []uint8) {
	*res = Result{Bits: res.Bits[:0]}
	for _, b := range bits {
		res.Bits = append(res.Bits, b) // cap-managed via res.Bits[:0]
	}
	res.Count = len(res.Bits)
}

// scratchAppend re-slices a local and grows into it: clean.
//
//fdlint:noalloc
func scratchAppend(scratch []int, n int) []int {
	out := scratch[:0]
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// pointerBox stores a pointer into an interface: pointer-shaped values
// do not box.
//
//fdlint:noalloc
func pointerBox(c *counter) Sink {
	var s Sink = c
	return s
}

// nonEscaping holds forms the compiler keeps on the stack, so none is
// reported: a constant-size make, &T{...}, a slice literal and a
// string-to-bytes conversion.
//
//fdlint:noalloc
func nonEscaping(s string) int {
	buf := make([]byte, 8)
	p := &Result{Count: 1}
	lit := []int{1, 2, 3}
	b := []byte(s)
	return len(buf) + p.Count + lit[0] + len(b)
}

func worker() {}

func done() {}

// allocs trips every rule: each heap construct escapes through a sink
// and is reported from the compiler's -m output; go, defer and the
// uncapped append come from the AST rules.
//
//fdlint:noalloc
func allocs(xs []int, s string) int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // want `appends to "out", which is never re-sliced`
		defer done()         // want `defers`
	}
	go worker() // want `spawns a goroutine`
	sinkInts = out
	sinkBytes = make([]byte, len(xs)) // want `make\(\[\]byte, len\(xs\)\) escapes to heap`
	sinkRes = new(Result)             // want `new\(Result\) escapes to heap`
	sinkRes = &Result{}               // want `&Result{} escapes to heap`
	sinkInts = []int{1, 2, 3}         // want `\[\]int{...} escapes to heap`
	sinkMap = map[string]int{}        // want `map\[string\]int{} escapes to heap`
	n := 0                            // want `moved to heap: n`
	sinkFunc = func() int {           // want `func literal escapes to heap`
		n++
		return n
	}
	sinkStr = fmt.Sprint(len(xs)) // want `len\(xs\) escapes to heap`
	sinkStr = s + "!"             // want `s \+ "!" escapes to heap`
	sinkBytes = []byte(s)         // want `\(\[\]byte\)\(s\) escapes to heap`
	sinkIface = value{n: len(xs)} // want `value{...} escapes to heap`
	return n
}

// leak allocates, but carries no annotation: not reported here.
func leak() { sinkBytes = make([]byte, 4) }

// callsLeak inlines leak; the compiler reports the escape at the call.
//
//fdlint:noalloc
func callsLeak() {
	leak() // want `make\(\[\]byte, 4\) escapes to heap`
}

// justified carries reasons on its suppressions: clean.
//
//fdlint:noalloc
func justified(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) //fdlint:alloc-ok warm-up path, amortized by reuse
	}
	sinkBytes = make([]byte, len(xs)) //fdlint:alloc-ok sized once per run
	return out
}

// bare suppresses with no reason: the suppression itself is the
// diagnostic.
//
//fdlint:noalloc
func bare(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) //fdlint:alloc-ok // want `alloc-ok suppression is missing a reason`
	}
	return out
}

// unannotated may allocate freely: noalloc only governs annotated
// functions.
func unannotated(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}
