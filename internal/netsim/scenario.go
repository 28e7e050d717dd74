package netsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Scenario declares one multi-tag deployment as data: geometry, RF
// parameters, traffic, MAC dimensions, and the per-tag energy budget.
// Zero fields take defaults (see ApplyDefaults; each knob's default and
// bounds are one row of the table in knobs.go), so a JSON file only
// needs the knobs it cares about. The run seed is NOT part of the
// scenario — it is supplied per run, so one scenario replays under many
// seeds.
type Scenario struct {
	// Name labels the scenario in tables and logs.
	Name string `json:"name"`

	// Deployment geometry.

	// Tags is the tag population size (default 8).
	Tags int `json:"tags"`
	// Topology is one of TopologyGrid, TopologyUniformDisc,
	// TopologyClustered, TopologyCells (default grid).
	Topology string `json:"topology"`
	// RadiusM is the deployment radius/half-extent in metres (default 4).
	RadiusM float64 `json:"radius_m"`
	// Clusters is the cluster count for the clustered topology
	// (default 3).
	Clusters int `json:"clusters"`
	// ClusterSpreadM is the Gaussian spread around each cluster centre
	// — or around each reader for TopologyCells (default RadiusM/8).
	ClusterSpreadM float64 `json:"cluster_spread_m"`

	// Readers configures the reader population: count, placement, and
	// whether concurrently active readers share the spectrum by TDM or
	// on imperfectly isolated independent channels. The zero value is
	// one reader at the origin. Tags associate with the strongest
	// carrier, re-evaluated each epoch under mobility.
	Readers ReaderSpec `json:"readers"`

	// Mobility configures optional tag motion (seeded random-waypoint
	// drift). The zero value is a static deployment.
	Mobility MobilitySpec `json:"mobility"`

	// RateAdapt configures optional closed-loop per-tag rate adaptation
	// over a time-varying fading channel (fixed / arf frame probing /
	// fd per-chunk). The zero value keeps the static geometry-derived
	// chunk loss — byte-for-byte the engine's pre-adaptation behaviour.
	RateAdapt RateAdaptSpec `json:"rate_adapt"`

	// Congestion configures optional per-tag closed-loop congestion
	// control: EWMA RTT with Jacobson RTO, cubic window growth, and a
	// bounded retransmission queue with exponential backoff. The zero
	// value keeps the engine's always-eligible behaviour byte-for-byte.
	Congestion CongestionSpec `json:"congestion"`

	// Faults configures the deterministic fault-injection layer: reader
	// outages with recovery, interference bursts, and tag churn — either
	// as explicit scheduled events or seed-derived stochastic hazards.
	// The zero value injects nothing and leaves existing runs
	// byte-identical.
	Faults FaultSpec `json:"faults"`

	// RF plant.

	// FreqHz is the carrier frequency (default 915 MHz).
	FreqHz float64 `json:"freq_hz"`
	// PathLossExp is the log-distance path loss exponent (default 2.5,
	// matching the calibrated link experiments).
	PathLossExp float64 `json:"path_loss_exp"`
	// TxPowerW is the reader transmit power (default 0.1 W = 20 dBm).
	TxPowerW float64 `json:"tx_power_w"`
	// NoiseW is the receiver noise power (default 1e-9 W).
	NoiseW float64 `json:"noise_w"`
	// Rho is the tag reflection coefficient (default 0.3).
	Rho float64 `json:"rho"`
	// ReqSNRdB is the forward SNR at which chunk loss is 50% (logistic
	// cliff). Zero selects the default of DefaultReqSNRdB (10 dB, the
	// 1x rate of the adaptation rate table); to configure a genuine
	// 0 dB cliff set any value at or below -999, such as ReqSNRZero
	// (-1000), which ApplyDefaults maps to exactly 0. Other values must
	// pass the Validate bounds ([-30, 60] dB).
	ReqSNRdB float64 `json:"req_snr_db"`
	// FeedbackSamplesPerBit sizes the feedback averaging window used to
	// derive each tag's feedback BER from its geometry (default 100).
	FeedbackSamplesPerBit int `json:"feedback_samples_per_bit"`

	// Traffic and contention.

	// FramesPerTag preloads each tag's queue (default 4) when
	// OfferedLoad is zero.
	FramesPerTag int `json:"frames_per_tag"`
	// OfferedLoad, when positive, switches to open-loop traffic: mean
	// new frames per tag per round (Poisson arrivals), at most 2^20 (the
	// queue_cap bound: a tag can never hold more).
	OfferedLoad float64 `json:"offered_load"`
	// MaxRounds bounds the simulation (default 64).
	MaxRounds int `json:"max_rounds"`
	// ContentionWindow is the per-reader slot count of each inventory
	// round (default 2 * ceil(Tags / Readers.Count), the
	// framed-slotted-ALOHA optimum scale for the tags one reader
	// serves).
	ContentionWindow int `json:"contention_window"`
	// QueueCap bounds each tag's frame queue under open-loop traffic
	// (default 16); arrivals beyond it are dropped and counted. In
	// closed-loop runs it is raised to at least FramesPerTag so the
	// preload fits and undelivered frames re-queue instead of being
	// spuriously dropped.
	QueueCap int `json:"queue_cap"`

	// Analytic, when true, replaces the per-chunk MAC simulation of
	// singleton slots with the closed-form expected exchange airtime
	// and one delivery draw per frame (see analytic.go). Still a pure
	// function of (Scenario, seed) at any worker count, but not
	// byte-identical to the exact engine — it is validated against it
	// within a pinned tolerance. Contention, energy and mobility remain
	// fully simulated.
	Analytic bool `json:"analytic"`

	// MAC dimensions (shared by every tag).

	// Protocol is "full-duplex" (default), "stop-and-wait" or
	// "block-ack".
	Protocol string `json:"protocol"`
	// PayloadBytes per frame (default 256).
	PayloadBytes int `json:"payload_bytes"`
	// ChunkBytes per chunk (default 32).
	ChunkBytes int `json:"chunk_bytes"`
	// AbortThreshold is the consecutive-NACK early-termination trigger
	// (default 2, which 0 also selects, so unlike mac.Params a scenario
	// cannot switch early termination off).
	AbortThreshold int `json:"abort_threshold"`
	// BackoffChunks after an early abort (default 8).
	BackoffChunks int `json:"backoff_chunks"`
	// MaxAttempts bounds retransmission rounds per frame (default 8 —
	// tighter than the point-to-point default because a congested cell
	// re-queues instead of retrying forever).
	MaxAttempts int `json:"max_attempts"`

	// Energy budget (per tag).

	// HarvesterEff is the RF-to-DC efficiency (default 0.3).
	HarvesterEff float64 `json:"harvester_eff"`
	// HarvesterFloorW is the rectifier sensitivity (default 0.1 µW).
	HarvesterFloorW float64 `json:"harvester_floor_w"`
	// CapacitanceF is the storage capacitor (default 4.7 µF — a small
	// tag-scale store, so lifetime genuinely depends on load).
	CapacitanceF float64 `json:"capacitance_f"`
	// IdleCircuitW is the consumption while listening (default 0.2 µW).
	IdleCircuitW float64 `json:"idle_circuit_w"`
	// TxEnergyJ is the extra energy one frame transmission costs the tag
	// (logic + modulator switching; default 0.5 µJ) — the draw that
	// makes lifetime depend on offered load.
	TxEnergyJ float64 `json:"tx_energy_j"`
	// BitRateBps converts airtime bytes to seconds for energy accounting
	// (default 1 Mbps).
	BitRateBps float64 `json:"bit_rate_bps"`
	// StartVoltageV initialises each tag's capacitor (default 2.4 V:
	// charged, but with finite headroom above the 1.8 V brown-out).
	StartVoltageV float64 `json:"start_voltage_v"`
}

// Chunk-loss cliff sentinels (see Scenario.ReqSNRdB).
const (
	// DefaultReqSNRdB is the cliff used when ReqSNRdB is left zero.
	DefaultReqSNRdB = 10
	// ReqSNRZero requests a genuine 0 dB cliff: the Go zero value has
	// to keep meaning "default" (every existing literal and JSON file
	// relies on it), so an explicit out-of-band sentinel — any value
	// at or below -999 — stands in for exact zero.
	ReqSNRZero = -1000
)

// presets are the built-in named scenarios. Keep in sync with the README
// scenario-engine section.
var presets = map[string]Scenario{
	"lab-bench": {
		Name: "lab-bench", Tags: 4, Topology: TopologyGrid, RadiusM: 2,
	},
	"warehouse": {
		Name: "warehouse", Tags: 32, Topology: TopologyClustered, RadiusM: 8,
		Clusters: 4, FramesPerTag: 8,
	},
	"retail-shelf": {
		Name: "retail-shelf", Tags: 16, Topology: TopologyGrid, RadiusM: 3,
		OfferedLoad: 0.5, MaxRounds: 96,
	},
	"sparse-field": {
		Name: "sparse-field", Tags: 12, Topology: TopologyUniformDisc, RadiusM: 12,
		TxPowerW: 0.5, FramesPerTag: 2, MaxRounds: 128,
	},
	"mall-cells": {
		Name: "mall-cells", Tags: 64, Topology: TopologyCells, RadiusM: 14,
		ClusterSpreadM: 3, FramesPerTag: 6, MaxRounds: 96,
		Readers: ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 12},
	},
	"mobile-fleet": {
		Name: "mobile-fleet", Tags: 24, Topology: TopologyUniformDisc, RadiusM: 30,
		TxPowerW: 0.25, CapacitanceF: 10e-6, OfferedLoad: 0.3, MaxRounds: 160,
		Mobility: MobilitySpec{Model: MobilityWaypoint, StepM: 1.5, EpochRounds: 4},
	},
	// fading-aisle is the rate-adaptation showcase: a strong carrier
	// over a raised noise floor puts the population mid-rate-table
	// (edge tags ~21 dB), the long feedback averaging window keeps the
	// backscatter feedback decodable across the cell, and the large
	// capacitor keeps slow-rate warm-up from browning tags out.
	"fading-aisle": {
		Name: "fading-aisle", Tags: 16, Topology: TopologyUniformDisc, RadiusM: 12,
		TxPowerW: 1.0, NoiseW: 1e-8, Rho: 0.9, FeedbackSamplesPerBit: 131072,
		CapacitanceF: 47e-6, FramesPerTag: 6, MaxRounds: 96,
		RateAdapt: RateAdaptSpec{Adapter: RateAdaptFD, FadeRho: 0.95},
	},
	// congested-dock is the congestion-control showcase: a loading dock
	// where 48 clustered tags offer more traffic than two aisle readers
	// can carry (offered load 1.2 frames/tag/round), so queues build,
	// RTOs fire and cubic windows breathe. Proportional-fair polling
	// keeps the grant list from starving far tags while the cell rides
	// the collapse knee.
	"congested-dock": {
		Name: "congested-dock", Tags: 48, Topology: TopologyClustered, RadiusM: 10,
		Clusters: 4, OfferedLoad: 1.2, MaxRounds: 160, QueueCap: 32,
		CapacitanceF: 47e-6,
		Readers:      ReaderSpec{Count: 2, Placement: ReaderLine, SpacingM: 10, Policy: PolicyPropFair},
		Congestion:   CongestionSpec{Controller: CongestionCubic},
	},
	// outage-retail is the fault-injection showcase: a four-reader
	// retail grid under moderate load where reader 1 goes dark for 40
	// rounds mid-run (its tags re-associate to the strongest surviving
	// carrier, then return), reader 2 later suffers an interference
	// burst, and light churn keeps flushing the occasional queue.
	// Congestion control turns the outage into visible RTO/backoff
	// dynamics instead of silent stalls.
	"outage-retail": {
		Name: "outage-retail", Tags: 32, Topology: TopologyCells, RadiusM: 12,
		ClusterSpreadM: 2.5, OfferedLoad: 0.4, MaxRounds: 160,
		CapacitanceF: 47e-6,
		Readers:      ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 10},
		Congestion:   CongestionSpec{Controller: CongestionCubic},
		Faults: FaultSpec{
			Events: []FaultEvent{
				{Round: 40, Kind: FaultReaderOutage, Reader: 1, Rounds: 40},
				{Round: 96, Kind: FaultInterference, Reader: 2, Rounds: 24, LossProb: 0.6},
			},
			ChurnRate: 0.002,
		},
	},
	// million is the scale showcase the sharded SoA engine exists for:
	// a million mobile tags under an 8-reader grid with full-duplex
	// rate adaptation, closed-loop census traffic (one short frame per
	// tag — 64-byte payloads, the inventory regime). RF follows the
	// fading-aisle calibration (strong carrier over a raised noise
	// floor keeps the population mid-rate-table and the backscatter
	// feedback decodable) at the 4 W EIRP an RFID-class reader runs,
	// which keeps edge tags harvest-positive across the quarter-hour of
	// simulated time one giant contention window per round implies.
	"million": {
		Name: "million", Tags: 1 << 20, Topology: TopologyUniformDisc, RadiusM: 48,
		Readers:  ReaderSpec{Count: 8, Placement: ReaderGrid, SpacingM: 32},
		Mobility: MobilitySpec{Model: MobilityWaypoint, StepM: 2, EpochRounds: 4},
		RateAdapt: RateAdaptSpec{
			Adapter: RateAdaptFD, FadeRho: 0.9,
		},
		TxPowerW: 4.0, NoiseW: 1e-8, Rho: 0.9, FeedbackSamplesPerBit: 131072,
		CapacitanceF: 47e-6, FramesPerTag: 1, MaxRounds: 12,
		PayloadBytes: 64,
	},
}

// Preset returns a copy of the named built-in scenario.
func Preset(name string) (Scenario, error) {
	s, ok := presets[name]
	if !ok {
		return Scenario{}, fmt.Errorf("netsim: unknown preset %q (have %v)", name, PresetNames())
	}
	return s, nil
}

// PresetNames lists the built-in scenarios, sorted.
func PresetNames() []string {
	out := make([]string, 0, len(presets))
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParseScenario decodes a scenario from JSON, rejecting unknown fields
// so typos in config files fail loudly.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("netsim: bad scenario JSON: %w", err)
	}
	if len(s.Faults.Events) == 0 {
		// Empty events marshal omitted: decode [] as absent so a parsed
		// scenario survives a marshal round trip unchanged.
		s.Faults.Events = nil
	}
	return s, nil
}

// LoadScenario reads a scenario JSON file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("netsim: %w", err)
	}
	return ParseScenario(data)
}
