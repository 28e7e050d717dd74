// Package core implements the paper's contribution end to end: a
// sample-accurate simulation of one full-duplex backscatter link. A
// reader transmits a chunked OOK frame; the tag decodes it chunk by
// chunk while backscattering per-chunk ACK/NACK; the reader decodes that
// feedback out of its own receive chain concurrently with transmission,
// and can abort a doomed frame within one chunk (early termination).
//
// The link composes the substrates: internal/channel for propagation,
// internal/phy for the forward modem and framing, internal/tag and
// internal/reader for the two devices, internal/feedback for the reverse
// channel, and internal/energy for the tag's power budget.
package core

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/energy"
	"repro/internal/feedback"
	"repro/internal/phy"
	"repro/internal/reader"
	"repro/internal/sigproc"
	"repro/internal/simrand"
	"repro/internal/tag"
)

// LinkConfig describes a complete reader-tag link and its environment.
type LinkConfig struct {
	// Modem is the forward OOK modem (shared by reader and tag).
	Modem phy.OOK
	// Code is the forward line code (default "fm0").
	Code string
	// SampleRate in Hz (default 1e6).
	SampleRate float64
	// TxPowerW is the reader transmit power in watts; the waveform is
	// scaled so a high chip carries this power (default 0.1 W / 20 dBm).
	TxPowerW float64
	// DistanceM is the reader-tag distance in metres (default 2).
	DistanceM float64
	// PathLoss overrides the propagation model (default log-distance
	// n=2.5 at 915 MHz).
	PathLoss channel.PathLoss
	// Fading selects small-scale fading on the forward and backward
	// paths; coefficients redraw per chunk block.
	Fading channel.FadingKind
	// RicianK for FadingRician; GaussMarkovRho for FadingGaussMarkov.
	RicianK        float64
	GaussMarkovRho float64
	// SelfLeakGain is the reader TX->RX leakage power gain (default
	// 0.01 = -20 dB antenna isolation).
	SelfLeakGain float64
	// Rho is the tag reflection coefficient (default 0.3).
	Rho float64
	// ChunkSize is the frame chunk size in bytes (default 32).
	ChunkSize uint8
	// ReaderNoiseW and TagNoiseW are receiver noise powers (default
	// 1e-13 W, about -100 dBm).
	ReaderNoiseW float64
	TagNoiseW    float64
	// SI selects the reader's self-interference strategy.
	SI reader.SIMode
	// FeedbackCode selects the feedback line code (default Manchester).
	FeedbackCode feedback.Code
	// DetectorCutoffHz enables the tag's envelope-detector RC.
	DetectorCutoffHz float64
	// Harvester, Capacitor, CircuitW configure the tag energy budget.
	Harvester energy.Harvester
	Capacitor energy.Capacitor
	CircuitW  float64
	// Interferer, when non-nil, adds a co-channel interferer.
	Interferer *InterfererConfig
	// Seed drives all randomness (fading, noise, pad jitter,
	// interferer timing).
	Seed uint64
}

// InterfererConfig describes a co-channel interfering transmitter that
// corrupts chunks (and their feedback) while active — the collision the
// full-duplex feedback detects mid-frame.
type InterfererConfig struct {
	// PowerW is the interferer transmit power.
	PowerW float64
	// DistanceToTagM / DistanceToReaderM position the interferer.
	DistanceToTagM    float64
	DistanceToReaderM float64
	// DutyCycle in [0,1]: the probability a given chunk block is hit.
	DutyCycle float64
	// BurstChunks: when a burst starts it spans this many chunk blocks
	// (default 1).
	BurstChunks int
}

// applyDefaults fills zero fields.
func (c *LinkConfig) applyDefaults() {
	if c.Code == "" {
		c.Code = "fm0"
	}
	if c.SampleRate <= 0 {
		c.SampleRate = 1e6
	}
	if c.TxPowerW <= 0 {
		c.TxPowerW = 0.1
	}
	if c.DistanceM <= 0 {
		c.DistanceM = 2
	}
	if c.PathLoss == nil {
		c.PathLoss = channel.NewLogDistance(915e6, 2.5)
	}
	if c.SelfLeakGain <= 0 {
		c.SelfLeakGain = 0.01
	}
	if c.Rho == 0 {
		c.Rho = 0.3
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 32
	}
	if c.ReaderNoiseW <= 0 {
		c.ReaderNoiseW = 1e-13
	}
	if c.TagNoiseW <= 0 {
		c.TagNoiseW = 1e-13
	}
}

// Link is a configured full-duplex backscatter link. Not safe for
// concurrent use; create one per goroutine.
type Link struct {
	cfg LinkConfig
	rd  *reader.Reader
	tg  *tag.Tag
	src *simrand.Source

	fwd, bwd *channel.Path // reader->tag, tag->reader
	leak     *channel.Path // reader self-interference
	intTag   *channel.Path // interferer->tag
	intRd    *channel.Path // interferer->reader

	seq uint8

	// Scratch buffers reused across frames so the steady-state
	// TransferFrameInto path allocates nothing.
	incident, reflected, rdRx, intBlock sigproc.IQ
	wireBuf                             []byte
	truthBits                           []byte
	idleStates                          []byte
	interfPlan                          []bool
	rawBits                             []byte
	rawMargins                          []float64
}

// NewLink builds a link from the configuration.
func NewLink(cfg LinkConfig) (*Link, error) {
	l := &Link{src: simrand.New(cfg.Seed)}
	if err := l.Reconfigure(cfg); err != nil {
		return nil, err
	}
	return l, nil
}

// Reconfigure re-initialises the link in place for a new configuration,
// reusing the waveform-sized scratch buffers (and the random source)
// of the old one. The resulting link behaves exactly like
// NewLink(cfg); experiment harnesses use it to run many parameter
// points through one link instead of reconstructing the buffers per
// cell.
func (l *Link) Reconfigure(cfg LinkConfig) error {
	cfg.applyDefaults()
	rdCfg := reader.Config{
		Modem: cfg.Modem, Code: cfg.Code, SI: cfg.SI, FeedbackCode: cfg.FeedbackCode,
	}
	tgCfg := tag.Config{
		Modem: cfg.Modem, Code: cfg.Code, Rho: cfg.Rho,
		DetectorCutoffHz: cfg.DetectorCutoffHz, SampleRate: cfg.SampleRate,
		Harvester: cfg.Harvester, Capacitor: cfg.Capacitor, CircuitW: cfg.CircuitW,
	}
	if l.rd == nil {
		l.rd = &reader.Reader{}
	}
	if err := l.rd.Reconfigure(rdCfg); err != nil {
		return fmt.Errorf("core: reader: %w", err)
	}
	if l.tg == nil {
		l.tg = &tag.Tag{}
	}
	if err := l.tg.Reconfigure(tgCfg); err != nil {
		return fmt.Errorf("core: tag: %w", err)
	}
	l.cfg = cfg
	l.seq = 0
	l.src.Reseed(cfg.Seed)
	l.buildPaths()
	return nil
}

// Reset rewinds the link to the state NewLink would produce with the
// given seed, without reconstructing the reader, tag, or any scratch:
// the random stream restarts, faders and paths are re-derived in the
// construction order (so their Split children match a fresh build), the
// tag's capacitor recharges, and the frame sequence returns to zero.
func (l *Link) Reset(seed uint64) {
	l.cfg.Seed = seed
	l.seq = 0
	l.src.Reseed(seed)
	l.buildPaths()
	l.rd.Reset()
	l.tg.Reset()
}

// buildPaths derives the propagation paths and their faders from the
// configuration. Fader construction order matters: each fader Splits
// the link source, so the sequence below is part of the link's
// deterministic seeding contract.
func (l *Link) buildPaths() {
	cfg := &l.cfg
	gain := cfg.PathLoss.Gain(cfg.DistanceM)
	mkFader := func() channel.Fader {
		switch cfg.Fading {
		case channel.FadingRayleigh:
			return channel.NewRayleighFader(l.src)
		case channel.FadingRician:
			return channel.NewRicianFader(l.src, cfg.RicianK)
		case channel.FadingGaussMarkov:
			return channel.NewGaussMarkovFader(l.src, cfg.GaussMarkovRho)
		default:
			return nil
		}
	}
	l.fwd = &channel.Path{Gain: gain, Fader: mkFader()}
	l.bwd = &channel.Path{Gain: gain, Fader: mkFader()}
	l.leak = &channel.Path{Gain: cfg.SelfLeakGain}
	l.intTag, l.intRd = nil, nil
	if ic := cfg.Interferer; ic != nil {
		l.intTag = &channel.Path{Gain: cfg.PathLoss.Gain(ic.DistanceToTagM), Fader: mkFader()}
		l.intRd = &channel.Path{Gain: cfg.PathLoss.Gain(ic.DistanceToReaderM), Fader: mkFader()}
	}
}

// Tag exposes the link's tag (for energy inspection in experiments).
func (l *Link) Tag() *tag.Tag { return l.tg }

// Reader exposes the link's reader.
func (l *Link) Reader() *reader.Reader { return l.rd }

// TransferOptions tune one frame exchange.
type TransferOptions struct {
	// EarlyTerminate aborts the forward transmission as soon as the
	// reader decodes a NACK (the paper's headline application).
	EarlyTerminate bool
	// DisableFeedback silences the tag (for forward-impact ablation:
	// fig3's "feedback off" curve).
	DisableFeedback bool
	// PadChips overrides the random idle padding before the preamble
	// (negative = randomise from the link's seed).
	PadChips int
	// Tap, when non-nil, is called once for each block the exchange
	// renders, in sample order: acquisition, each transmitted chunk,
	// then the flush slot. It observes; the result is the same with or
	// without it.
	Tap func(Block)
}

// Block is one rendered stretch of a frame exchange, as handed to
// TransferOptions.Tap. Tx, Incident and States cover the same samples,
// Start onwards: the reader's transmit waveform at its output power,
// the waveform incident at the tag, and the tag's antenna state per
// sample. Rx is the reader's receive chain over the block, except in
// the acquisition block, where the reader renders only the idle pad it
// calibrates on: there Rx is the pad's length (empty without a pad).
// A frame the tag fails to acquire renders only the acquisition block,
// although its SamplesUsed books the whole frame. The slices alias link
// scratch: they are valid only during the call and must not be
// modified.
type Block struct {
	Start            int
	Tx, Incident, Rx sigproc.IQ
	States           []byte
}

// ChunkReport pairs ground truth with what each side observed for one
// chunk.
type ChunkReport struct {
	// TagOK is the tag-side CRC outcome (ground truth of delivery).
	TagOK bool
	// ReaderBit is the ACK bit the reader decoded (1 = ACK); valid only
	// if ReaderSawBit.
	ReaderBit byte
	// ReaderSawBit reports whether the reader had a slot to decode this
	// chunk's feedback (false after an early abort).
	ReaderSawBit bool
	// Margin is the reader's soft confidence for the bit.
	Margin float64
	// Interfered reports whether the interferer was active during the
	// chunk's airtime.
	Interfered bool
}

// TransferResult summarises one frame exchange.
type TransferResult struct {
	// Header that was transmitted.
	Header phy.Header
	// Acquired reports whether the tag synchronised and decoded the
	// header.
	Acquired bool
	// HeaderAckOK reports whether the reader decoded the header ACK.
	HeaderAckOK bool
	// Chunks holds the per-chunk reports (length = chunks transmitted
	// before any abort).
	Chunks []ChunkReport
	// Payload is the tag-side recovered payload (may be partial or
	// corrupt).
	Payload []byte
	// DeliveredOK reports whether every chunk passed CRC at the tag.
	DeliveredOK bool
	// Aborted reports whether early termination stopped the frame.
	Aborted bool
	// AbortAfterChunk is the index of the last chunk transmitted before
	// aborting (valid when Aborted).
	AbortAfterChunk int
	// SamplesUsed counts transmitted samples (airtime actually spent).
	SamplesUsed int
	// SamplesFull is the airtime a full (non-aborted) frame would use.
	SamplesFull int
	// FeedbackErrors counts reader feedback bits that disagree with the
	// tag-side truth.
	FeedbackErrors int
	// FeedbackBits counts feedback decision opportunities the reader had.
	FeedbackBits int
	// ForwardBitErrors counts payload bit errors at the tag (ground
	// truth comparison), over the chunks that were transmitted.
	ForwardBitErrors int
	// ForwardBits counts payload bits transmitted.
	ForwardBits int
	// HarvestedJ is the tag capacitor energy delta over the exchange.
	HarvestedJ float64
}

// GoodputBytes returns the payload bytes confirmed delivered (chunks that
// passed CRC at the tag).
func (r *TransferResult) GoodputBytes() int {
	n := 0
	for i, c := range r.Chunks {
		if c.TagOK {
			s, e := r.Header.ChunkPayloadRange(i)
			n += e - s
		}
	}
	return n
}

// TransferFrame runs one complete frame exchange through the waveform
// pipeline and returns the detailed result. Monte-Carlo loops should
// prefer TransferFrameInto with a reused result, which keeps the
// steady-state frame path allocation-free.
func (l *Link) TransferFrame(payload []byte, opts TransferOptions) (*TransferResult, error) {
	res := &TransferResult{}
	if err := l.TransferFrameInto(payload, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// TransferFrameInto runs one complete frame exchange through the
// waveform pipeline, writing the detailed result into res. All of
// res's previous contents are overwritten; its Chunks and Payload
// storage is reused, so a result recycled across trials makes the
// steady-state frame exchange allocation-free (see
// TestTransferFrameIntoAllocFree in link_test.go). On error res is left
// in an undefined state.
//
//fdlint:noalloc
func (l *Link) TransferFrameInto(payload []byte, opts TransferOptions, res *TransferResult) error {
	cfg := &l.cfg
	hdr := phy.Header{
		Type: phy.FrameData, Seq: l.seq, ChunkSize: cfg.ChunkSize,
	}
	l.seq++
	wire, err := phy.BuildFrame(hdr, payload, l.wireBuf[:0])
	l.wireBuf = wire
	if err != nil {
		return err
	}
	hdr.Version = phy.ProtocolVersion
	hdr.PayloadLen = uint16(len(payload))

	pad := opts.PadChips
	if pad < 0 {
		pad = 4 + l.src.IntN(32)
	}
	wave, layout, err := l.rd.BuildWaveform(wire, hdr, pad)
	if err != nil {
		return err
	}
	// Scale to transmit power: high chip amplitude = sqrt(TxPowerW).
	wave.ScaleReal(sigproc.AmplitudeForPower(cfg.TxPowerW) / cfg.Modem.LevelHigh())

	*res = TransferResult{
		Header: hdr, SamplesFull: layout.FlushEnd,
		Chunks: res.Chunks[:0], Payload: res.Payload[:0],
	}
	l.tg.SetMute(opts.DisableFeedback)
	e0 := l.tg.StoredEnergy()
	margin := l.tg.MarginSamples()

	interferedChunks := l.planInterference(hdr.NumChunks())

	// --- Acquisition block ---
	acqEnd := layout.AcquireEnd
	viewEnd := minInt(acqEnd+margin, len(wave))
	incident := l.propagateToTag(wave[:viewEnd], 0, false)
	acqStates, acq := l.tg.Acquire(incident, acqEnd, cfg.SampleRate)
	res.Acquired = acq.OK
	res.SamplesUsed = acqEnd
	// Reader calibrates its leakage estimate on the idle pad (tag is
	// absorbing there).
	padRx := l.rdRx[:0]
	if layout.PadLen > 0 {
		l.idleStates = feedback.AppendIdleStates(l.idleStates[:0], layout.PadLen)
		l.rdRx = l.receiverBlock(wave[:layout.PadLen], incident[:layout.PadLen],
			l.idleStates, false, l.rdRx)
		l.rd.Calibrate(l.rdRx, wave[:layout.PadLen])
		padRx = l.rdRx
	}
	if opts.Tap != nil {
		opts.Tap(Block{Tx: wave[:acqEnd], Incident: incident[:acqEnd], Rx: padRx, States: acqStates})
	}
	if !acq.OK {
		// Tag deaf: the reader transmits the whole frame and hears no
		// feedback. All airtime is wasted.
		res.SamplesUsed = layout.FlushEnd
		res.HarvestedJ = l.tg.StoredEnergy() - e0
		res.ForwardBits = len(payload) * 8
		res.ForwardBitErrors = len(payload) * 8
		return nil
	}

	// --- Chunk blocks ---
	n := hdr.NumChunks()
	// A corrupted header can slip past its CRC-8 and decode to a
	// different chunk count at the tag; the tag then stops listening
	// after its own count while the reader keeps transmitting. Guard
	// the loop so those extra chunks are processed reader-side only.
	tagN := l.tg.ChunksExpected()
	truthBits := append(l.truthBits[:0], 1) // header ACK
	for i := 0; i < n; i++ {
		s, e := layout.ChunkBlock(i)
		blockLen := e - s
		viewEnd := minInt(e+margin, len(wave))
		interfered := interferedChunks[i]
		incident := l.propagateToTag(wave[s:viewEnd], i+1, interfered)
		var states []byte
		if i < tagN {
			states = l.tg.ProcessChunk(incident, blockLen, cfg.SampleRate)
		} else {
			// Tag believes the frame already ended: it absorbs quietly.
			l.idleStates = feedback.AppendIdleStates(l.idleStates[:0], blockLen)
			states = l.idleStates
		}

		// Reader receives leak + reflected (+ interference) and decodes
		// the feedback bit for the previous chunk (or header ACK).
		l.rdRx = l.receiverBlock(wave[s:e], incident[:blockLen], states, interfered, l.rdRx)
		bit, m := l.rd.DecodeFeedbackBit(l.rdRx, wave[s:e])
		res.FeedbackBits++
		if opts.Tap != nil {
			opts.Tap(Block{Start: s, Tx: wave[s:e], Incident: incident[:blockLen], Rx: l.rdRx, States: states})
		}

		rep := ChunkReport{Interfered: interfered, ReaderSawBit: true, ReaderBit: bit, Margin: m}
		if opts.DisableFeedback {
			rep.ReaderSawBit = false
			res.FeedbackBits--
		}
		res.Chunks = append(res.Chunks, rep)
		res.SamplesUsed = e

		// Score the feedback bit against truth (bit i of truthBits).
		if !opts.DisableFeedback {
			want := truthBits[len(truthBits)-1]
			if bit != want {
				res.FeedbackErrors++
			}
			if len(truthBits) == 1 {
				res.HeaderAckOK = bit == 1
			}
		}
		tagOKs := l.tg.ChunkResultsView()
		truth := byte(0)
		if i < len(tagOKs) && tagOKs[i] {
			truth = 1
		}
		truthBits = append(truthBits, truth)

		// Early termination: the reader aborts when it decodes a NACK.
		if opts.EarlyTerminate && !opts.DisableFeedback && bit == 0 {
			res.Aborted = true
			res.AbortAfterChunk = i
			break
		}
	}
	l.truthBits = truthBits

	// --- Flush slot (skipped entirely on abort: the reader stops
	// transmitting) ---
	flushBit, flushMargin, flushSeen := byte(0), 0.0, false
	if !res.Aborted {
		fs, fe := layout.FlushBlock()
		if fe > fs {
			incident := l.propagateToTag(wave[fs:fe], n+1, false)
			states := l.tg.Flush(incident, 0, cfg.SampleRate)
			l.rdRx = l.receiverBlock(wave[fs:fe], incident, states, false, l.rdRx)
			bit, m := l.rd.DecodeFeedbackBit(l.rdRx, wave[fs:fe])
			if opts.Tap != nil {
				opts.Tap(Block{Start: fs, Tx: wave[fs:fe], Incident: incident, Rx: l.rdRx, States: states})
			}
			if !opts.DisableFeedback && n > 0 {
				res.FeedbackBits++
				if bit != truthBits[len(truthBits)-1] {
					res.FeedbackErrors++
				}
				flushBit, flushMargin, flushSeen = bit, m, true
			}
			res.SamplesUsed = fe
		}
	}

	// Fill per-chunk reader bits: the bit decoded during chunk i's block
	// belongs to chunk i-1; shift so ChunkReport.ReaderBit lines up with
	// its own chunk. (The raw in-slot bits were recorded above; remap.)
	l.remapFeedback(res, flushBit, flushMargin, flushSeen, opts)

	// Ground-truth forward bit errors over transmitted chunks.
	got := l.tg.PayloadView()
	sent := 0
	for i := range res.Chunks {
		s, e := hdr.ChunkPayloadRange(i)
		sent = e
		for b := s; b < e && b < len(got) && b < len(payload); b++ {
			res.ForwardBitErrors += popcount8(got[b] ^ payload[b])
		}
	}
	res.ForwardBits = sent * 8
	res.Payload = append(res.Payload, got...)
	tagOKs := l.tg.ChunkResultsView()
	res.DeliveredOK = len(res.Chunks) == n
	for i := range res.Chunks {
		ok := i < len(tagOKs) && tagOKs[i]
		res.Chunks[i].TagOK = ok
		if !ok {
			res.DeliveredOK = false
		}
	}
	res.HarvestedJ = l.tg.StoredEnergy() - e0
	return nil
}

// remapFeedback aligns reader-decoded bits with the chunks they describe:
// the bit decoded during chunk i's airtime is chunk i-1's ACK (the bit
// during chunk 0 is the header ACK; the flush bit is the final chunk's).
// On the TestTransferFrameIntoAllocFree hot path.
//
//fdlint:noalloc
func (l *Link) remapFeedback(res *TransferResult, flushBit byte, flushMargin float64, flushSeen bool, opts TransferOptions) {
	if opts.DisableFeedback {
		for i := range res.Chunks {
			res.Chunks[i].ReaderSawBit = false
		}
		return
	}
	raw := l.rawBits[:0]
	margins := l.rawMargins[:0]
	for _, c := range res.Chunks {
		raw = append(raw, c.ReaderBit)
		margins = append(margins, c.Margin)
	}
	l.rawBits, l.rawMargins = raw, margins
	for i := range res.Chunks {
		switch {
		case i+1 < len(raw):
			res.Chunks[i].ReaderBit = raw[i+1]
			res.Chunks[i].Margin = margins[i+1]
			res.Chunks[i].ReaderSawBit = true
		case flushSeen:
			// Last transmitted chunk: its bit arrived in the flush slot.
			res.Chunks[i].ReaderBit = flushBit
			res.Chunks[i].Margin = flushMargin
			res.Chunks[i].ReaderSawBit = true
		default:
			res.Chunks[i].ReaderSawBit = false
		}
	}
}

// propagateToTag renders the incident waveform at the tag for a block:
// forward path (new fading draw per block index) plus optional
// interference plus tag receiver noise.
func (l *Link) propagateToTag(tx sigproc.IQ, blockIdx int, interfered bool) sigproc.IQ {
	l.fwd.BlockStart()
	if cap(l.incident) < len(tx) {
		l.incident = make(sigproc.IQ, len(tx))
	}
	inc := l.incident[:len(tx)]
	inc.Zero()
	l.fwd.AddTo(tx, inc)
	if interfered && l.intTag != nil {
		l.intTag.BlockStart()
		l.intBlock = l.interfererWave(len(tx), l.intBlock)
		l.intTag.AddTo(l.intBlock, inc)
	}
	l.src.FillNoise(inc, l.cfg.TagNoiseW)
	return inc
}

// receiverBlock renders what the reader's receive chain sees during a
// block: self-leakage + tag reflection propagated back (+ interference)
// + receiver noise.
func (l *Link) receiverBlock(tx, incidentAtTag sigproc.IQ, states []byte, interfered bool, dst sigproc.IQ) sigproc.IQ {
	if cap(dst) < len(tx) {
		dst = make(sigproc.IQ, len(tx))
	}
	dst = dst[:len(tx)]
	dst.Zero()
	l.leak.AddTo(tx, dst)
	l.reflected = tag.ReflectWaveform(incidentAtTag, states, l.cfg.Rho, l.reflected)
	l.bwd.BlockStart()
	l.bwd.AddTo(l.reflected, dst)
	if interfered && l.intRd != nil {
		l.intRd.BlockStart()
		// Reuse the same interferer waveform shape scaled to this block.
		l.intBlock = l.interfererWave(len(tx), l.intBlock)
		l.intRd.AddTo(l.intBlock, dst)
	}
	l.src.FillNoise(dst, l.cfg.ReaderNoiseW)
	return dst
}

// interfererWave synthesises the interferer's transmission for a block:
// random OOK chips at its transmit power.
func (l *Link) interfererWave(n int, dst sigproc.IQ) sigproc.IQ {
	if cap(dst) < n {
		dst = make(sigproc.IQ, n)
	}
	dst = dst[:n]
	amp := sigproc.AmplitudeForPower(l.cfg.Interferer.PowerW)
	sps := l.cfg.Modem.SamplesPerChipN()
	for i := 0; i < n; i += sps {
		v := complex(0, 0)
		if l.src.Bit() == 1 {
			v = complex(amp, 0)
		}
		end := minInt(i+sps, n)
		for j := i; j < end; j++ {
			dst[j] = v
		}
	}
	return dst
}

// planInterference decides which chunk blocks the interferer hits.
// The returned plan aliases link scratch, valid until the next call.
func (l *Link) planInterference(nChunks int) []bool {
	if cap(l.interfPlan) < nChunks {
		l.interfPlan = make([]bool, nChunks)
	}
	out := l.interfPlan[:nChunks]
	for i := range out {
		out[i] = false
	}
	ic := l.cfg.Interferer
	if ic == nil || ic.DutyCycle <= 0 {
		return out
	}
	burst := ic.BurstChunks
	if burst < 1 {
		burst = 1
	}
	// Per-chunk burst starts with probability tuned so the expected
	// busy fraction matches DutyCycle.
	pStart := ic.DutyCycle / float64(burst)
	for i := 0; i < nChunks; i++ {
		if l.src.Bool(pStart) {
			for j := i; j < minInt(i+burst, nChunks); j++ {
				out[j] = true
			}
		}
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
