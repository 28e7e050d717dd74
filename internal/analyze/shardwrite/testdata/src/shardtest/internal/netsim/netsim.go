// Package netsim is the stream-discipline corpus: a miniature of the
// engine's pool/worker split exercising every rule — goroutines outside
// the pool, engine-rooted sources in parallel sections, channel traffic
// on workers, and serial-only streams escaping.
package netsim

import "repro/internal/simrand"

type worker struct {
	lossSrc *simrand.Source
	out     chan int
}

type engine struct {
	src     *simrand.Source
	tagSrc  []*simrand.Source
	workers []*worker
}

type holder struct{ src *simrand.Source }

// badSpawn creates an ad-hoc goroutine: only the worker pool may.
func badSpawn(job func()) {
	go job() // want `go statement outside the //fdlint:workerpool function`
}

// start owns the persistent pool: goroutine creation is allowed here.
//
//fdlint:workerpool
func (e *engine) start() {
	for _, w := range e.workers {
		go func(w *worker) { _ = w }(w)
	}
}

// goodShard reaches randomness only through the worker parameter,
// including via a local alias: clean.
//
//fdlint:parallel
func (e *engine) goodShard(w *worker, lo, hi int) {
	seedSrc := w.lossSrc
	for i := lo; i < hi; i++ {
		_ = seedSrc.Uint64()
	}
}

// badShard draws from the shared engine source inside a parallel
// section: results would depend on worker interleaving.
//
//fdlint:parallel
func (e *engine) badShard(lo, hi int) {
	for i := lo; i < hi; i++ {
		_ = e.src.Uint64() // want `uses a \*simrand.Source not rooted at a parameter`
	}
}

// localSource mints its own stream inside the shard: a source built
// by simrand.New, even from a seed parameter, is not the dispatcher's
// grant, so draws from it are flagged.
//
//fdlint:parallel
func (e *engine) localSource(seed uint64, lo, hi int) {
	src := simrand.New(seed)
	for i := lo; i < hi; i++ {
		_ = src.Uint64() // want `uses a \*simrand.Source not rooted at a parameter`
	}
}

// cellDraw draws per-cell streams: the element at the granted cell
// index is shard-owned, a fixed element is one stream shared by every
// shard.
//
//fdlint:parallel
func (e *engine) cellDraw(ci int) {
	_ = e.tagSrc[ci].Uint64()
	_ = e.tagSrc[0].Uint64() // want `uses a \*simrand.Source not rooted at a parameter`
}

// chatty does channel traffic on a worker: parallel sections must be
// pure compute between dispatch barriers.
//
//fdlint:parallel
func (e *engine) chatty(w *worker, done chan int) {
	w.out <- 1 // want `sends on a channel`
	<-done     // want `receives from a channel`
	select {   // want `uses select`
	case <-done:
	default:
	}
}

// congShard is the congestion-control miniature: per-tag window and
// retx columns advanced inside parallel sections, with delivery
// accounting that must stay in worker-local columns until the serial
// drain — never flow through channels mid-shard.
type congShard struct {
	cwnd  []float64
	acked chan int
}

// congGood decays windows using only the worker's own loss stream and
// writes only this shard's columns: clean.
//
//fdlint:parallel
func (e *engine) congGood(w *worker, c *congShard, lo, hi int) {
	for i := lo; i < hi; i++ {
		if w.lossSrc.Uint64()&1 == 0 {
			c.cwnd[i] *= 0.7
		}
	}
}

// congBad reports deliveries over a channel from inside the shard and
// draws retx jitter from the shared engine source: both make the
// outcome depend on worker interleaving.
//
//fdlint:parallel
func (e *engine) congBad(w *worker, c *congShard, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.acked <- i // want `sends on a channel`
	}
	_ = e.src.Uint64() // want `uses a \*simrand.Source not rooted at a parameter`
}

// shardWork is parameter-rooted and clean; it exists as a parallel
// target for the serial-stream rule below.
//
//fdlint:parallel
func shardWork(w *worker, src *simrand.Source) { _ = src.Uint64() }

func consume(s *simrand.Source) uint64 { return s.Uint64() }

// run splits serial-only streams and must keep them serial.
func run(seed uint64) uint64 {
	root := simrand.New(seed)
	slotSrc := root.Split() //fdlint:serial
	var h holder
	h.src = slotSrc            // want `serial-only stream stored into a struct field`
	h2 := holder{src: slotSrc} // want `serial-only stream stored into a composite literal`
	_ = h2
	shardWork(nil, slotSrc) // want `serial-only stream passed to //fdlint:parallel function shardWork`
	return consume(slotSrc)
}
