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
	return (p.PayloadBytes + p.ChunkBytes - 1) / p.ChunkBytes
}

// chunkAir returns the airtime bytes of one chunk (payload + CRC).
func (p Params) chunkAir() int { return p.ChunkBytes + 1 }

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
	return p.HeaderBytes + p.NumChunks()*p.chunkAir()
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

// ---------------------------------------------------------------------
// Half-duplex stop-and-wait: transmit the whole frame, turn the link
// around, wait for a frame-level ACK, retransmit the whole frame on
// failure. What RFID-style backscatter links do today.
// ---------------------------------------------------------------------

// StopAndWait is the packet-level half-duplex baseline.
type StopAndWait struct {
	P Params
}

// Name implements Protocol.
func (s *StopAndWait) Name() string { return "stop-and-wait" }

// Run implements Protocol.
func (s *StopAndWait) Run(nFrames int, loss Loss) Result {
	p := s.P
	p.applyDefaults()
	res := Result{Protocol: s.Name()}
	n := p.NumChunks()
	frameAir := int64(p.HeaderBytes + n*p.chunkAir())
	for f := 0; f < nFrames; f++ {
		res.FramesSent++
		var frameElapsed int64
		delivered := false
		for attempt := 0; attempt < p.MaxAttempts; attempt++ {
			res.Attempts++
			ok := true
			for c := 0; c < n; c++ {
				res.ChunkTx++
				if attempt > 0 {
					res.ChunkRetx++
				}
				if loss.Chunk() {
					ok = false
				}
			}
			// Half-duplex ACK exchange (assumed reliable but costly):
			// the backscattered ACK occupies the channel too.
			res.AirtimeBytes += frameAir + int64(p.AckBytes)
			frameElapsed += frameAir
			res.ElapsedBytes += frameAir + int64(p.AckBytes)
			frameElapsed += int64(p.AckBytes)
			res.WastedBytes += int64(p.AckBytes)
			// The sender learns the frame's fate only after the whole
			// frame plus the ACK turnaround.
			res.FeedbackDelaySum += int64(n) // first chunk waited ~n chunk-times
			res.FeedbackDelayCount++
			if ok {
				delivered = true
				res.GoodputBytes += int64(p.PayloadBytes)
				break
			}
			// Entire attempt wasted.
			res.WastedBytes += frameAir
		}
		if delivered {
			res.FramesDelivered++
			res.LatencySumBytes += frameElapsed
			if frameElapsed > res.LatencyMaxBytes {
				res.LatencyMaxBytes = frameElapsed
			}
		}
	}
	return res
}

// ---------------------------------------------------------------------
// Half-duplex block-ACK (selective repeat): after each whole-frame
// attempt the receiver returns a per-chunk bitmap; only failed chunks
// are retransmitted. A stronger baseline that still pays the
// end-of-frame round trip.
// ---------------------------------------------------------------------

// BlockACK is the selective-repeat half-duplex baseline.
type BlockACK struct {
	P Params
}

// Name implements Protocol.
func (s *BlockACK) Name() string { return "block-ack" }

// Run implements Protocol.
func (s *BlockACK) Run(nFrames int, loss Loss) Result {
	p := s.P
	p.applyDefaults()
	res := Result{Protocol: s.Name()}
	n := p.NumChunks()
	for f := 0; f < nFrames; f++ {
		res.FramesSent++
		pending := n
		var frameElapsed int64
		delivered := false
		for attempt := 0; attempt < p.MaxAttempts && pending > 0; attempt++ {
			res.Attempts++
			attemptAir := int64(p.HeaderBytes + pending*p.chunkAir())
			stillBad := 0
			for c := 0; c < pending; c++ {
				res.ChunkTx++
				if attempt > 0 {
					res.ChunkRetx++
				}
				if loss.Chunk() {
					stillBad++
					res.WastedBytes += int64(p.chunkAir())
				}
			}
			res.AirtimeBytes += attemptAir + int64(p.AckBytes)
			res.ElapsedBytes += attemptAir + int64(p.AckBytes)
			frameElapsed += attemptAir + int64(p.AckBytes)
			res.WastedBytes += int64(p.AckBytes)
			res.FeedbackDelaySum += int64(pending)
			res.FeedbackDelayCount++
			pending = stillBad
		}
		if pending == 0 {
			delivered = true
			res.GoodputBytes += int64(p.PayloadBytes)
		}
		if delivered {
			res.FramesDelivered++
			res.LatencySumBytes += frameElapsed
			if frameElapsed > res.LatencyMaxBytes {
				res.LatencyMaxBytes = frameElapsed
			}
		}
	}
	return res
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
// worker.
type FullDuplex struct {
	P    Params
	Seed uint64

	// Reused per-run scratch (see Run); never observable in results.
	src       *simrand.Source
	delivered []bool
	believed  []bool
	queue     []int
}

// Name implements Protocol.
func (s *FullDuplex) Name() string { return "full-duplex" }

// Prime preallocates the instance's internal scratch for the configured
// Params so even the first Run call is allocation-free. Engines that
// keep one instance per worker call it at setup; without it, which
// worker pays the first-frame allocation would depend on scheduling,
// breaking their allocation accounting (never their results).
func (s *FullDuplex) Prime() {
	p := s.P
	p.applyDefaults()
	if s.src == nil {
		s.src = simrand.New(s.Seed ^ 0xfdb5)
	}
	n := p.NumChunks()
	if cap(s.delivered) < n {
		s.delivered = make([]bool, n)
		s.believed = make([]bool, n)
	}
	if cap(s.queue) < n {
		s.queue = make([]int, 0, n)
	}
}

// Run implements Protocol.
func (s *FullDuplex) Run(nFrames int, loss Loss) Result {
	p := s.P
	p.applyDefaults()
	res := Result{Protocol: s.Name()}
	if s.src == nil {
		s.src = simrand.New(s.Seed ^ 0xfdb5)
	} else {
		s.src.Reseed(s.Seed ^ 0xfdb5)
	}
	src := s.src
	n := p.NumChunks()
	if cap(s.delivered) < n {
		s.delivered = make([]bool, n)
		s.believed = make([]bool, n)
	}
	chunkAir := int64(p.chunkAir())
	for f := 0; f < nFrames; f++ {
		res.FramesSent++
		// delivered[i]: ground truth at the tag; believed[i]: sender's view.
		delivered := s.delivered[:n]
		believed := s.believed[:n]
		for i := range delivered {
			delivered[i] = false
			believed[i] = false
		}
		var frameElapsed int64
		frameDone := false
		attempts := 0
		for !frameDone && attempts < p.MaxAttempts {
			attempts++
			res.Attempts++
			// Build the queue of chunks the sender believes missing.
			queue := s.queue[:0]
			for i := 0; i < n; i++ {
				if !believed[i] {
					queue = append(queue, i)
				}
			}
			s.queue = queue[:0]
			if len(queue) == 0 {
				// Sender believes done but the tag disagrees (false
				// ACKs): the end-of-frame trailer check fails and the
				// truth bitmap resyncs the sender (costs one header).
				for i := 0; i < n; i++ {
					believed[i] = delivered[i]
				}
				res.AirtimeBytes += int64(p.HeaderBytes)
				res.ElapsedBytes += int64(p.HeaderBytes)
				frameElapsed += int64(p.HeaderBytes)
				continue
			}
			res.AirtimeBytes += int64(p.HeaderBytes)
			res.ElapsedBytes += int64(p.HeaderBytes)
			frameElapsed += int64(p.HeaderBytes)
			consecNACK := 0
			for qi := 0; qi < len(queue); qi++ {
				c := queue[qi]
				res.ChunkTx++
				if delivered[c] {
					res.ChunkRetx++ // needless resend (false NACK earlier)
				}
				lost := loss.Chunk()
				ok := delivered[c] || !lost
				res.AirtimeBytes += chunkAir
				res.ElapsedBytes += chunkAir
				frameElapsed += chunkAir
				if !ok {
					res.WastedBytes += chunkAir
				}
				// Feedback arrives one chunk-time later, concurrent with
				// the next chunk: zero airtime, delay 1 chunk.
				res.FeedbackDelaySum++
				res.FeedbackDelayCount++
				bit := ok
				if p.FeedbackBER > 0 && src.Bool(p.FeedbackBER) {
					bit = !bit
					if ok {
						res.FalseNACK++
					} else {
						res.FalseACK++
					}
				}
				if ok {
					delivered[c] = true
				}
				if bit {
					believed[c] = true
					consecNACK = 0
				} else {
					believed[c] = false
					consecNACK++
					if p.AbortThreshold > 0 && consecNACK >= p.AbortThreshold {
						// Early termination: the channel looks dead;
						// stop burning airtime and back off.
						res.Aborts++
						loss.Idle(p.BackoffChunks)
						res.ElapsedBytes += int64(p.BackoffChunks) * chunkAir
						frameElapsed += int64(p.BackoffChunks) * chunkAir
						break
					}
				}
			}
			frameDone = true
			for i := 0; i < n; i++ {
				if !delivered[i] || !believed[i] {
					frameDone = false
					break
				}
			}
		}
		allDelivered := true
		for i := 0; i < n; i++ {
			if !delivered[i] {
				allDelivered = false
				break
			}
		}
		if allDelivered {
			res.FramesDelivered++
			res.GoodputBytes += int64(p.PayloadBytes)
			res.LatencySumBytes += frameElapsed
			if frameElapsed > res.LatencyMaxBytes {
				res.LatencyMaxBytes = frameElapsed
			}
		}
	}
	return res
}

// String renders a compact summary.
func (r Result) String() string {
	return fmt.Sprintf("%s: frames %d/%d eff=%.3f waste=%.3f lat=%.0fB",
		r.Protocol, r.FramesDelivered, r.FramesSent,
		r.Efficiency(), r.WastedFraction(), r.MeanLatencyBytes())
}
