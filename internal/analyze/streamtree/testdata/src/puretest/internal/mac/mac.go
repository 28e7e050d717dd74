// Package mac is an engine-suffixed corpus package: streamtree must
// reject ambient randomness, wall clocks and environment reads here,
// while accepting seeded simrand sources — including through
// interfaces.
package mac

import (
	"math/rand" // want `engine package imports math/rand: unseeded global randomness`
	"os"
	"time"

	"repro/internal/simrand"
)

// RNG abstracts a randomness source the way engine code threads its
// streams; a seeded simrand.Source passed through an interface must
// stay accepted.
type RNG interface {
	Uint64() uint64
}

func draw(r RNG) uint64 { return r.Uint64() }

// Good threads the seeded split tree through an interface: clean.
func Good(seed uint64) uint64 {
	src := simrand.New(seed)
	return draw(src)
}

// Bad reaches for every ambient escape hatch.
func Bad() int64 {
	if os.Getenv("FD_DEBUG") != "" { // want `engine package uses os.Getenv: environment reads`
		return 0
	}
	_ = rand.Int()
	return time.Now().UnixNano() // want `engine package uses time.Now: wall-clock time`
}
