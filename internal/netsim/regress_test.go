package netsim

// Regression tests for the traffic-accounting bugs fixed alongside the
// multi-reader engine. Each test documents the pre-fix failure mode and
// fails on the pre-fix engine.

import (
	"math"
	"strings"
	"testing"
)

// Pre-fix, the round loop kept drawing open-loop Poisson arrivals into
// dead tags' stats: FramesOffered grew for the whole horizon, deflating
// DeliveryRate with traffic the MAC never saw. Post-fix a dead tag's
// accounting freezes at death (the Poisson draw itself still happens,
// so one tag's death never shifts the arrival stream of the others).
func TestDeadTagStopsAccruingArrivals(t *testing.T) {
	// Far-field cell with no harvestable power and a transmit cost that
	// exceeds the whole capacitor budget: every tag dies as soon as it
	// transmits, long before the horizon.
	sc := Scenario{
		Tags: 4, Topology: TopologyGrid, RadiusM: 40,
		OfferedLoad: 1, MaxRounds: 40,
		CapacitanceF: 1e-6, StartVoltageV: 2.0, TxEnergyJ: 5e-6,
	}
	short, err := Run(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if short.AliveFraction() != 0 {
		t.Fatalf("setup broken: want every tag dead mid-run, alive=%.2f", short.AliveFraction())
	}
	long := sc
	long.MaxRounds = 2 * sc.MaxRounds
	ext, err := Run(long, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Rounds != long.MaxRounds {
		t.Fatalf("open-loop run must reach the horizon, stopped at round %d", ext.Rounds)
	}
	// Doubling the horizon after every tag is dead must not change any
	// tag's offered count: dead tags receive no traffic.
	for i := range short.Tags {
		if !short.Tags[i].Alive && ext.Tags[i].FramesOffered != short.Tags[i].FramesOffered {
			t.Fatalf("tag %d died at %.3fs but kept accruing arrivals: offered %d at %d rounds, %d at %d rounds",
				i, short.Tags[i].LifetimeS,
				short.Tags[i].FramesOffered, sc.MaxRounds,
				ext.Tags[i].FramesOffered, long.MaxRounds)
		}
	}
}

// Pre-fix, the closed-loop preload set queue = FramesPerTag without
// respecting QueueCap, so with FramesPerTag > QueueCap every frame that
// failed its MaxAttempts found the queue "full" at re-queue time and
// was dropped instead of retried. Post-fix the cap is raised to fit the
// preload: a closed-loop run can never drop.
func TestClosedLoopPreloadRespectsQueueCap(t *testing.T) {
	// 60 m is far beyond the default chunk-loss cliff: essentially every
	// stop-and-wait attempt fails, so frames continually re-queue.
	sc := Scenario{
		Tags: 4, Topology: TopologyGrid, RadiusM: 60,
		FramesPerTag: 32, QueueCap: 16,
		Protocol: "stop-and-wait", MaxRounds: 50,
	}
	res, err := Run(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesOffered != 4*32 {
		t.Fatalf("offered %d, want %d", res.FramesOffered, 4*32)
	}
	if res.FramesDropped != 0 {
		t.Fatalf("closed-loop run dropped %d frames: undelivered preload must re-queue, not drop", res.FramesDropped)
	}
	if res.Scenario.QueueCap < sc.FramesPerTag {
		t.Fatalf("defaulted QueueCap %d below FramesPerTag %d", res.Scenario.QueueCap, sc.FramesPerTag)
	}
}

// Pre-fix, ApplyDefaults used ReqSNRdB == 0 as the unset sentinel, so a
// genuine 0 dB cliff was silently rewritten to 10 dB and absurd values
// (e.g. -200 dB) ran unvalidated. Post-fix the ReqSNRZero sentinel
// (<= -999) requests exact zero and Validate bounds the rest.
func TestReqSNRZeroSentinel(t *testing.T) {
	sc := Scenario{ReqSNRdB: ReqSNRZero}
	sc.ApplyDefaults()
	if sc.ReqSNRdB != 0 {
		t.Fatalf("ReqSNRZero must configure a genuine 0 dB cliff, got %g dB", sc.ReqSNRdB)
	}
	var def Scenario
	def.ApplyDefaults()
	if def.ReqSNRdB != DefaultReqSNRdB {
		t.Fatalf("zero value must keep the %g dB default, got %g", float64(DefaultReqSNRdB), def.ReqSNRdB)
	}

	// The sentinel works end to end from JSON, where an omitted field
	// and an (ambiguous) explicit zero both mean "default".
	parsed, err := ParseScenario([]byte(`{"tags": 8, "req_snr_db": -1000}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(parsed, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario.ReqSNRdB != 0 {
		t.Fatalf("JSON sentinel lost: cliff ran at %g dB", res.Scenario.ReqSNRdB)
	}

	// And it is not cosmetic: at 60 m the default cliff loses nearly
	// every chunk while a 0 dB cliff still delivers.
	far := Scenario{Tags: 8, Topology: TopologyUniformDisc, RadiusM: 60,
		FramesPerTag: 2, MaxRounds: 48}
	zero := far
	zero.ReqSNRdB = ReqSNRZero
	defRes, err := Run(far, 21)
	if err != nil {
		t.Fatal(err)
	}
	zeroRes, err := Run(zero, 21)
	if err != nil {
		t.Fatal(err)
	}
	if zeroRes.DeliveryRate() <= defRes.DeliveryRate() {
		t.Fatalf("0 dB cliff must out-deliver the 10 dB cliff at range: %g vs %g",
			zeroRes.DeliveryRate(), defRes.DeliveryRate())
	}
}

func TestValidateBoundsRFParameters(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"snr cliff too low", Scenario{ReqSNRdB: -200}, "req_snr_db"},
		{"snr cliff too high", Scenario{ReqSNRdB: 80}, "req_snr_db"},
		{"path loss exponent below free space", Scenario{PathLossExp: 0.5}, "path_loss_exp"},
		{"path loss exponent absurd", Scenario{PathLossExp: 12}, "path_loss_exp"},
		{"feedback window too small", Scenario{FeedbackSamplesPerBit: 1}, "feedback_samples_per_bit"},
		{"feedback window absurd", Scenario{FeedbackSamplesPerBit: 1 << 24}, "feedback_samples_per_bit"},
		// Above 2^31 the round's arrival count overflowed int32 and the
		// run reported billions of offered frames.
		{"offered load overflows", Scenario{OfferedLoad: 3e9}, "offered_load"},
		{"offered load NaN", Scenario{OfferedLoad: math.NaN()}, "offered_load"},
		{"offered load negative", Scenario{OfferedLoad: -0.5}, "offered_load"},
	}
	for _, c := range cases {
		_, err := Run(c.sc, 1)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
