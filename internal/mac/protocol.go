package mac

import (
	"fmt"

	"repro/internal/simrand"
)

// Params describe the common link dimensions shared by every protocol.
type Params struct {
	// PayloadBytes per frame.
	PayloadBytes int
	// ChunkBytes per chunk (payload split; each chunk carries 1 CRC
	// byte on air).
	ChunkBytes int
	// HeaderBytes is the per-frame-attempt overhead (preamble + header),
	// default 12.
	HeaderBytes int
	// AckBytes is the half-duplex acknowledgement cost in airtime bytes,
	// including the RX/TX turnaround; default 16. Full-duplex protocols
	// never pay it — their feedback is concurrent.
	AckBytes int
	// FeedbackBER is the probability a full-duplex feedback bit flips.
	FeedbackBER float64
	// MaxAttempts bounds retransmission rounds per frame (default 32).
	MaxAttempts int
	// AbortThreshold is the number of consecutive NACKs that triggers
	// early termination in the full-duplex protocol. It takes no
	// default: the zero value disables early termination. (The 2 that
	// netsim scenarios run with is the default of netsim's
	// abort_threshold knob, not of this field.)
	AbortThreshold int
	// BackoffChunks is the idle defer after an early abort, in
	// chunk-times (default 8).
	BackoffChunks int
}

func (p *Params) applyDefaults() {
	if p.PayloadBytes <= 0 {
		p.PayloadBytes = 1500
	}
	if p.ChunkBytes <= 0 {
		p.ChunkBytes = 64
	}
	if p.HeaderBytes <= 0 {
		p.HeaderBytes = 12
	}
	if p.AckBytes <= 0 {
		p.AckBytes = 16
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 32
	}
	if p.BackoffChunks <= 0 {
		p.BackoffChunks = 8
	}
}

// NumChunks returns the chunks per frame.
func (p Params) NumChunks() int {
	p.applyDefaults()
	return p.numChunks()
}

// numChunks returns the chunks per frame of defaulted Params.
func (p *Params) numChunks() int { return (p.PayloadBytes + p.ChunkBytes - 1) / p.ChunkBytes }

// chunkAir returns the airtime bytes of one chunk (payload + CRC).
func (p *Params) chunkAir() int { return p.ChunkBytes + 1 }

// ChunkAirBytes returns the airtime bytes of one chunk (payload + CRC),
// after defaults.
func (p Params) ChunkAirBytes() int {
	p.applyDefaults()
	return p.chunkAir()
}

// HeaderAirBytes returns the per-frame-attempt header overhead, after
// defaults.
func (p Params) HeaderAirBytes() int {
	p.applyDefaults()
	return p.HeaderBytes
}

// FrameAirBytes returns the airtime of one whole-frame attempt (header
// plus every chunk), after defaults — the cost a half-duplex protocol
// burns when a collision goes undetected until the missing ACK.
func (p Params) FrameAirBytes() int {
	p.applyDefaults()
	return p.HeaderBytes + p.numChunks()*p.chunkAir()
}

// AckAirBytes returns the half-duplex acknowledgement airtime, after
// defaults — exposed for closed-form airtime models of the half-duplex
// protocols.
func (p Params) AckAirBytes() int {
	p.applyDefaults()
	return p.AckBytes
}

// Result accumulates protocol statistics over a run.
type Result struct {
	Protocol        string
	FramesSent      int
	FramesDelivered int
	// AirtimeBytes actually transmitted.
	AirtimeBytes int64
	// ElapsedBytes includes idle/backoff and ACK turnarounds: the
	// latency clock.
	ElapsedBytes int64
	// GoodputBytes is payload delivered (counted once per frame).
	GoodputBytes int64
	// WastedBytes is airtime spent on transmissions that did not end up
	// contributing payload (lost chunks, aborted remainders, duplicate
	// sends, ACK overhead).
	WastedBytes int64
	// ChunkTx counts chunk transmissions; ChunkRetx the re-sends.
	ChunkTx, ChunkRetx int64
	// FalseNACK / FalseACK count feedback decoding errors (FD only).
	FalseNACK, FalseACK int64
	// Aborts counts early terminations.
	Aborts int64
	// LatencySumBytes accumulates per-delivered-frame latency in elapsed
	// bytes; LatencyMaxBytes tracks the worst case.
	LatencySumBytes int64
	LatencyMaxBytes int64
	// FeedbackDelayChunks is the mean delay (in chunk-times) between a
	// chunk finishing and the sender learning its fate.
	FeedbackDelaySum   int64
	FeedbackDelayCount int64
	// Attempts counts frame transmission attempts across the run
	// (>= FramesSent; the gap is the retry burden).
	Attempts int64
}

// Efficiency returns goodput bytes per transmitted airtime byte.
func (r Result) Efficiency() float64 {
	if r.AirtimeBytes == 0 {
		return 0
	}
	return float64(r.GoodputBytes) / float64(r.AirtimeBytes)
}

// Throughput returns goodput bytes per elapsed byte-time (includes idle).
func (r Result) Throughput() float64 {
	if r.ElapsedBytes == 0 {
		return 0
	}
	return float64(r.GoodputBytes) / float64(r.ElapsedBytes)
}

// WastedFraction returns wasted airtime over transmitted airtime.
func (r Result) WastedFraction() float64 {
	if r.AirtimeBytes == 0 {
		return 0
	}
	return float64(r.WastedBytes) / float64(r.AirtimeBytes)
}

// MeanLatencyBytes returns the mean delivered-frame latency.
func (r Result) MeanLatencyBytes() float64 {
	if r.FramesDelivered == 0 {
		return 0
	}
	return float64(r.LatencySumBytes) / float64(r.FramesDelivered)
}

// MeanFeedbackDelayChunks returns the mean feedback delay in chunk-times.
func (r Result) MeanFeedbackDelayChunks() float64 {
	if r.FeedbackDelayCount == 0 {
		return 0
	}
	return float64(r.FeedbackDelaySum) / float64(r.FeedbackDelayCount)
}

// DeliveryRate returns delivered frames over sent frames.
func (r Result) DeliveryRate() float64 {
	if r.FramesSent == 0 {
		return 0
	}
	return float64(r.FramesDelivered) / float64(r.FramesSent)
}

// deliver books one delivered frame: its payload and its latency.
func (r *Result) deliver(payloadBytes int, elapsed int64) {
	r.FramesDelivered++
	r.GoodputBytes += int64(payloadBytes)
	r.LatencySumBytes += elapsed
	if elapsed > r.LatencyMaxBytes {
		r.LatencyMaxBytes = elapsed
	}
}

// Protocol runs frames through a loss process and accumulates a Result.
// Implementations may keep internal scratch between Run calls, and the
// Loss processes they consume are themselves stateful — a Protocol
// instance is not safe for concurrent use; give each goroutine its own.
type Protocol interface {
	// Name identifies the protocol in experiment tables.
	Name() string
	// Run transfers nFrames frames and returns the statistics.
	Run(nFrames int, loss Loss) Result
}

// Need is what a frame exchange asks of its loss process next: first
// let Idle chunk-times pass with nothing on air (an early-termination
// backoff; usually 0), then report the fate of one more chunk, or stop
// when Done is set (the frame is finished and booked).
type Need struct {
	Idle int
	Done bool
}

var (
	needChunk = Need{}
	needDone  = Need{Done: true}
)

// Exchange is a protocol's frame exchange as a resumable machine. The
// caller owns the loss process and the Result and answers one request
// at a time: Begin opens a frame, and Chunk reports whether the chunk
// the last Need asked for was lost; both book the frame's statistics
// into res, which must be the same Result for the whole frame. Each
// protocol's Run only feeds its Exchange from a Loss (see drive). An
// engine that serves many frames at once keeps one Exchange per frame
// in flight and batches the chunk outcomes across them: an exchange
// draws nothing from the loss process itself, so interleaving several
// changes no exchange's statistics.
type Exchange interface {
	Begin(res *Result) Need
	Chunk(res *Result, lost bool) Need
}

// drive runs nFrames frames through loss: the loop every Run shares.
// begin and chunk are the protocol's Begin and Chunk bound to the
// Result being filled; closures rather than an Exchange, so that Result
// can live on Run's stack.
func drive(nFrames int, loss Loss, begin func() Need, chunk func(lost bool) Need) {
	for range nFrames {
		for nd := begin(); ; nd = chunk(loss.Chunk()) {
			if nd.Idle > 0 {
				loss.Idle(nd.Idle)
			}
			if nd.Done {
				break
			}
		}
	}
}

// ---------------------------------------------------------------------
// Half-duplex stop-and-wait: transmit the whole frame, turn the link
// around, wait for a frame-level ACK, retransmit the whole frame on
// failure. What RFID-style backscatter links do today.
// ---------------------------------------------------------------------

// StopAndWait is the packet-level half-duplex baseline. It is also its
// own Exchange: Begin fills P's unset fields with their defaults, and
// the unexported fields are the frame in flight.
type StopAndWait struct {
	P Params

	n            int
	frameAir     int64
	frameElapsed int64
	attempt, c   int
	ok           bool
}

// Name implements Protocol.
func (s *StopAndWait) Name() string { return "stop-and-wait" }

// Run implements Protocol.
func (s *StopAndWait) Run(nFrames int, loss Loss) Result {
	res := Result{Protocol: s.Name()}
	drive(nFrames, loss, func() Need { return s.Begin(&res) },
		func(lost bool) Need { return s.Chunk(&res, lost) })
	return res
}

// Begin implements Exchange.
func (s *StopAndWait) Begin(res *Result) Need {
	s.P.applyDefaults()
	s.n = s.P.numChunks()
	s.frameAir = int64(s.P.HeaderBytes + s.n*s.P.chunkAir())
	res.FramesSent++
	s.frameElapsed = 0
	s.attempt = 0
	return s.open(res)
}

// open starts the next whole-frame attempt, or gives up after
// MaxAttempts.
func (s *StopAndWait) open(res *Result) Need {
	if s.attempt >= s.P.MaxAttempts {
		return needDone
	}
	res.Attempts++
	s.c, s.ok = 0, true
	return needChunk
}

// Chunk implements Exchange. Every chunk of an attempt is sent even
// after one is lost: the sender learns nothing until the ACK.
func (s *StopAndWait) Chunk(res *Result, lost bool) Need {
	res.ChunkTx++
	if s.attempt > 0 {
		res.ChunkRetx++
	}
	if lost {
		s.ok = false
	}
	if s.c++; s.c < s.n {
		return needChunk
	}
	// Half-duplex ACK exchange (assumed reliable but costly): the
	// backscattered ACK occupies the channel too, and the sender learns
	// the frame's fate only after the whole frame plus the turnaround.
	ack := int64(s.P.AckBytes)
	res.AirtimeBytes += s.frameAir + ack
	res.ElapsedBytes += s.frameAir + ack
	s.frameElapsed += s.frameAir + ack
	res.WastedBytes += ack
	res.FeedbackDelaySum += int64(s.n) // first chunk waited ~n chunk-times
	res.FeedbackDelayCount++
	if s.ok {
		res.deliver(s.P.PayloadBytes, s.frameElapsed)
		return needDone
	}
	res.WastedBytes += s.frameAir // the entire attempt is wasted
	s.attempt++
	return s.open(res)
}

// ---------------------------------------------------------------------
// Half-duplex block-ACK (selective repeat): after each whole-frame
// attempt the receiver returns a per-chunk bitmap; only failed chunks
// are retransmitted. A stronger baseline that still pays the
// end-of-frame round trip.
// ---------------------------------------------------------------------

// BlockACK is the selective-repeat half-duplex baseline. It is also
// its own Exchange: Begin fills P's unset fields with their defaults,
// and the unexported fields are the frame in flight.
type BlockACK struct {
	P Params

	frameElapsed    int64
	attempt, c      int
	pending, failed int
}

// Name implements Protocol.
func (s *BlockACK) Name() string { return "block-ack" }

// Run implements Protocol.
func (s *BlockACK) Run(nFrames int, loss Loss) Result {
	res := Result{Protocol: s.Name()}
	drive(nFrames, loss, func() Need { return s.Begin(&res) },
		func(lost bool) Need { return s.Chunk(&res, lost) })
	return res
}

// Begin implements Exchange.
func (s *BlockACK) Begin(res *Result) Need {
	s.P.applyDefaults()
	res.FramesSent++
	s.pending = s.P.numChunks()
	s.frameElapsed = 0
	s.attempt = 0
	return s.open(res)
}

// open starts the next attempt over the still-missing chunks, or ends
// the frame once none is missing or MaxAttempts are spent.
func (s *BlockACK) open(res *Result) Need {
	if s.attempt >= s.P.MaxAttempts || s.pending == 0 {
		if s.pending == 0 {
			res.deliver(s.P.PayloadBytes, s.frameElapsed)
		}
		return needDone
	}
	res.Attempts++
	s.c, s.failed = 0, 0
	return needChunk
}

// Chunk implements Exchange.
func (s *BlockACK) Chunk(res *Result, lost bool) Need {
	p := &s.P
	res.ChunkTx++
	if s.attempt > 0 {
		res.ChunkRetx++
	}
	if lost {
		s.failed++
		res.WastedBytes += int64(p.chunkAir())
	}
	if s.c++; s.c < s.pending {
		return needChunk
	}
	attemptAir := int64(p.HeaderBytes+s.pending*p.chunkAir()) + int64(p.AckBytes)
	res.AirtimeBytes += attemptAir
	res.ElapsedBytes += attemptAir
	s.frameElapsed += attemptAir
	res.WastedBytes += int64(p.AckBytes)
	res.FeedbackDelaySum += int64(s.pending)
	res.FeedbackDelayCount++
	s.pending = s.failed
	s.attempt++
	return s.open(res)
}

// ---------------------------------------------------------------------
// Full-duplex instantaneous feedback: per-chunk ACK/NACK arrives one
// chunk-time after each chunk, concurrently with the ongoing
// transmission (zero airtime cost). NACKed chunks are re-queued
// immediately; consecutive NACKs trigger early termination plus backoff
// (collision handling); feedback bits can flip with FeedbackBER.
// ---------------------------------------------------------------------

// FullDuplex is the paper's protocol. The zero value is ready to use;
// the scratch fields make repeated Run calls allocation-free (network
// simulations run one frame per contention slot), and reusing one
// instance with a new Seed reproduces exactly what a fresh instance
// would: Run reseeds its internal source on every call. The scratch
// makes an instance single-goroutine (see Protocol); construct one per
// worker. It is also its own Exchange: Begin fills P's unset fields
// with their defaults, and the feedback flips draw from the source
// Reseed sets, which Begin leaves where the last frame did.
type FullDuplex struct {
	P    Params
	Seed uint64

	// Reused per-run scratch; never observable in results. chunk[i]
	// holds chunk i's delivered (ground truth at the tag) and believed
	// (the sender's view) bits.
	src   simrand.Source
	chunk []uint8

	// The frame in flight. An attempt sends, in index order, every
	// chunk the sender believed missing when it began; next is the one
	// to send now. Sending a chunk changes only its own bits, so the
	// chunks after next still show what the attempt began with.
	frameElapsed   int64
	attempts, next int
	consecNACK     int
}

// Name implements Protocol.
func (s *FullDuplex) Name() string { return "full-duplex" }

// Prime preallocates the instance's internal scratch for the configured
// Params so even the first frame is allocation-free. Engines that
// keep one instance per worker call it at setup; without it, which
// worker pays the first-frame allocation would depend on scheduling,
// breaking their allocation accounting (never their results). The
// scratch takes at least a cache line: a one-chunk frame's state is a
// single byte, and the allocator packs small scratch of instances set
// up one after another into one line, which the workers would then
// write over each other on every chunk.
func (s *FullDuplex) Prime() {
	n := s.P.NumChunks()
	s.chunk = make([]uint8, n, max(n, cacheLine))
}

// cacheLine is the CPU cache-line size in bytes.
const cacheLine = 64

// The bits of a FullDuplex chunk entry.
const (
	delivered uint8 = 1 << iota
	believed
)

func (s *FullDuplex) scratch(n int) {
	if cap(s.chunk) < n {
		s.chunk = make([]uint8, n)
	}
	s.chunk = s.chunk[:n]
}

// Reseed sets Seed and restarts the feedback-flip source from it, as
// Run does on every call.
func (s *FullDuplex) Reseed(seed uint64) {
	s.Seed = seed
	s.src.Reseed(seed ^ 0xfdb5)
}

// Run implements Protocol.
func (s *FullDuplex) Run(nFrames int, loss Loss) Result {
	s.Reseed(s.Seed)
	res := Result{Protocol: s.Name()}
	drive(nFrames, loss, func() Need { return s.Begin(&res) },
		func(lost bool) Need { return s.Chunk(&res, lost) })
	return res
}

// Begin implements Exchange.
func (s *FullDuplex) Begin(res *Result) Need {
	s.P.applyDefaults()
	s.scratch(s.P.numChunks())
	res.FramesSent++
	clear(s.chunk)
	s.frameElapsed = 0
	s.attempts = 0
	return s.open(res)
}

// open starts the next attempt over the chunks the sender believes
// missing, or ends the frame once MaxAttempts are spent.
func (s *FullDuplex) open(res *Result) Need {
	p := &s.P
	for s.attempts < p.MaxAttempts {
		s.attempts++
		res.Attempts++
		res.AirtimeBytes += int64(p.HeaderBytes)
		res.ElapsedBytes += int64(p.HeaderBytes)
		s.frameElapsed += int64(p.HeaderBytes)
		if s.next = s.missing(0); s.next < len(s.chunk) {
			s.consecNACK = 0
			return needChunk
		}
		// Sender believes done but the tag disagrees (false ACKs): the
		// end-of-frame trailer check fails and the truth bitmap
		// resyncs the sender (costs the header just booked).
		for i, c := range s.chunk {
			if c&delivered != 0 {
				s.chunk[i] = delivered | believed
			} else {
				s.chunk[i] = 0
			}
		}
	}
	return s.finish(res)
}

// Chunk implements Exchange.
func (s *FullDuplex) Chunk(res *Result, lost bool) Need {
	p := &s.P
	c := s.next
	res.ChunkTx++
	was := s.chunk[c]&delivered != 0
	if was {
		res.ChunkRetx++ // needless resend (false NACK earlier)
	}
	ok := was || !lost
	chunkAir := int64(p.chunkAir())
	res.AirtimeBytes += chunkAir
	res.ElapsedBytes += chunkAir
	s.frameElapsed += chunkAir
	if !ok {
		res.WastedBytes += chunkAir
	}
	// Feedback arrives one chunk-time later, concurrent with the next
	// chunk: zero airtime, delay 1 chunk.
	res.FeedbackDelaySum++
	res.FeedbackDelayCount++
	bit := ok
	if p.FeedbackBER > 0 && s.src.Bool(p.FeedbackBER) {
		bit = !bit
		if ok {
			res.FalseNACK++
		} else {
			res.FalseACK++
		}
	}
	st := s.chunk[c] &^ believed
	if ok {
		st |= delivered
	}
	if bit {
		st |= believed
	}
	s.chunk[c] = st
	if bit {
		s.consecNACK = 0
	} else if s.consecNACK++; p.AbortThreshold > 0 && s.consecNACK >= p.AbortThreshold {
		// Early termination: the channel looks dead; stop burning
		// airtime and back off before whatever comes next.
		res.Aborts++
		backoff := int64(p.BackoffChunks) * chunkAir
		res.ElapsedBytes += backoff
		s.frameElapsed += backoff
		nd := s.endAttempt(res)
		nd.Idle = p.BackoffChunks
		return nd
	}
	if s.next = s.missing(c + 1); s.next < len(s.chunk) {
		return needChunk
	}
	return s.endAttempt(res)
}

// missing returns the first chunk from i on that the sender believes
// missing, or the chunk count if there is none.
func (s *FullDuplex) missing(i int) int {
	for i < len(s.chunk) && s.chunk[i]&believed != 0 {
		i++
	}
	return i
}

// endAttempt ends the frame once the sender and the tag agree that
// every chunk arrived, and opens the next attempt otherwise.
func (s *FullDuplex) endAttempt(res *Result) Need {
	for _, c := range s.chunk {
		if c != delivered|believed {
			return s.open(res)
		}
	}
	return s.finish(res)
}

// finish books the frame if every chunk reached the tag.
func (s *FullDuplex) finish(res *Result) Need {
	for _, c := range s.chunk {
		if c&delivered == 0 {
			return needDone
		}
	}
	res.deliver(s.P.PayloadBytes, s.frameElapsed)
	return needDone
}

// String renders a compact summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: frames %d/%d eff=%.3f waste=%.3f lat=%.0fB",
		r.Protocol, r.FramesDelivered, r.FramesSent,
		r.Efficiency(), r.WastedFraction(), r.MeanLatencyBytes())
}
