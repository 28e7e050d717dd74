package netsim

// Tests for the closed-loop rate-adaptation engine: the backward-compat
// contract (FadeRho = 0 + fixed 1x reproduces the static engine bit for
// bit), the paper's claim at network scale (FD per-chunk beats ARF
// probing under fading), validation of the new knobs, and internal
// consistency of the adaptation statistics.

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rateadapt"
)

// adaptShowcase is the mid-rate-table operating point the scen-rateadapt
// bench cell uses: strong carrier over a raised noise floor, long
// feedback averaging window, generous capacitor.
func adaptShowcase(adapter string, fadeRho float64) Scenario {
	return Scenario{
		Tags: 12, Topology: TopologyUniformDisc, RadiusM: 12,
		TxPowerW: 1.0, NoiseW: 1e-8, Rho: 0.9, FeedbackSamplesPerBit: 131072,
		CapacitanceF: 47e-6, FramesPerTag: 40, MaxRounds: 600,
		RateAdapt: RateAdaptSpec{Adapter: adapter, FadeRho: fadeRho},
	}
}

// The backward-compat contract: with fading disabled (FadeRho = 0) and
// the fixed adapter pinned to a single 1x rate at the scenario's own
// cliff, the new engine must reproduce the static-loss engine bit for
// bit — same rounds, same draws, same per-tag outcomes — because the
// loss draws ride the same stream and no extra randomness is consumed.
func TestFadeRhoZeroFixedMatchesStatic(t *testing.T) {
	scenarios := []Scenario{
		{Tags: 8, Topology: TopologyGrid, RadiusM: 3, FramesPerTag: 4, MaxRounds: 48},
		{Tags: 12, Topology: TopologyUniformDisc, RadiusM: 30, OfferedLoad: 0.5, MaxRounds: 60},
		{Tags: 16, Topology: TopologyCells, RadiusM: 10, ClusterSpreadM: 2,
			Readers:      ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 8},
			FramesPerTag: 6, MaxRounds: 60},
		{Tags: 10, Topology: TopologyUniformDisc, RadiusM: 20, OfferedLoad: 0.4,
			MaxRounds: 72, Protocol: "stop-and-wait",
			Mobility: MobilitySpec{Model: MobilityWaypoint, StepM: 2, EpochRounds: 3}},
	}
	for si, sc := range scenarios {
		for seed := uint64(1); seed <= 3; seed++ {
			static, err := Run(sc, seed)
			if err != nil {
				t.Fatalf("scenario %d: %v", si, err)
			}
			ad := sc
			ad.RateAdapt = RateAdaptSpec{
				Adapter: RateAdaptFixed,
				FadeRho: 0,
				Rates: []rateadapt.RateSpec{
					{Name: "1x", Mult: 1, ReqSNRdB: static.Scenario.ReqSNRdB},
				},
			}
			got, err := Run(ad, seed)
			if err != nil {
				t.Fatalf("scenario %d adapted: %v", si, err)
			}
			// The adaptation run carries its own spec echo and stats; the
			// contract covers everything else.
			got.Scenario = static.Scenario
			got.RateSwitches, got.AdaptChunks, got.AdaptLagChunks, got.adaptInvMult = 0, 0, 0, 0
			for i := range got.Tags {
				ts := &got.Tags[i]
				ts.RateChunks, ts.RateLostChunks = nil, nil
				ts.RateSwitches, ts.AdaptChunks, ts.AdaptLagChunks = 0, 0, 0
				ts.MeanRateMult = 0
			}
			if !reflect.DeepEqual(static, got) {
				t.Fatalf("scenario %d seed %d: FadeRho=0 + fixed 1x diverged from the static engine\nstatic: %+v\nadapted: %+v",
					si, seed, static, got)
			}
		}
	}
}

// The acceptance claim: FD per-chunk adaptation out-delivers ARF frame
// probing on goodput throughput under FadeRho >= 0.9 fading, seed by
// seed on the showcase deployment.
func TestFDAdaptationBeatsARFUnderFading(t *testing.T) {
	for _, rho := range []float64{0.9, 0.95} {
		var fdSum, arfSum float64
		for seed := uint64(1); seed <= 3; seed++ {
			fd, err := Run(adaptShowcase(RateAdaptFD, rho), seed)
			if err != nil {
				t.Fatal(err)
			}
			arf, err := Run(adaptShowcase(RateAdaptARF, rho), seed)
			if err != nil {
				t.Fatal(err)
			}
			fdSum += fd.Throughput()
			arfSum += arf.Throughput()
		}
		if fdSum <= arfSum {
			t.Fatalf("rho %g: FD throughput %g must beat ARF %g at network scale", rho, fdSum/3, arfSum/3)
		}
	}
}

// The FD adapter must also track the channel more closely than ARF: a
// lower fraction of chunks transmitted off the oracle rate.
func TestFDTracksChannelCloserThanARF(t *testing.T) {
	fd, err := Run(adaptShowcase(RateAdaptFD, 0.9), 1)
	if err != nil {
		t.Fatal(err)
	}
	arf, err := Run(adaptShowcase(RateAdaptARF, 0.9), 1)
	if err != nil {
		t.Fatal(err)
	}
	if fd.AdaptLagFraction() >= arf.AdaptLagFraction() {
		t.Fatalf("FD lag %g must undercut ARF lag %g", fd.AdaptLagFraction(), arf.AdaptLagFraction())
	}
}

// Validate must reject every degenerate rate-adaptation knob with an
// actionable error instead of NaN-propagating silently.
func TestRateAdaptValidation(t *testing.T) {
	nan := math.NaN()
	mk := func(mut func(*Scenario)) Scenario {
		sc := Scenario{Tags: 4, RateAdapt: RateAdaptSpec{Adapter: RateAdaptFD, FadeRho: 0.9}}
		mut(&sc)
		return sc
	}
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"unknown adapter", mk(func(s *Scenario) { s.RateAdapt.Adapter = "aimd" }), "unknown rate_adapt.adapter"},
		{"rho negative", mk(func(s *Scenario) { s.RateAdapt.FadeRho = -0.1 }), "fade_rho"},
		{"rho one", mk(func(s *Scenario) { s.RateAdapt.FadeRho = 1 }), "fade_rho"},
		{"rho NaN", mk(func(s *Scenario) { s.RateAdapt.FadeRho = nan }), "fade_rho"},
		{"orphan fade_rho", Scenario{Tags: 4, RateAdapt: RateAdaptSpec{FadeRho: 0.5}}, "without an adapter"},
		{"non-increasing mult", mk(func(s *Scenario) {
			s.RateAdapt.Rates = []rateadapt.RateSpec{
				{Name: "a", Mult: 1, ReqSNRdB: 4}, {Name: "b", Mult: 1, ReqSNRdB: 8}}
		}), "strictly increasing"},
		{"negative mult", mk(func(s *Scenario) {
			s.RateAdapt.Rates = []rateadapt.RateSpec{{Name: "a", Mult: -1, ReqSNRdB: 4}}
		}), "must be positive"},
		{"NaN mult", mk(func(s *Scenario) {
			s.RateAdapt.Rates = []rateadapt.RateSpec{{Name: "a", Mult: nan, ReqSNRdB: 4}}
		}), "must be positive"},
		{"req snr out of range", mk(func(s *Scenario) {
			s.RateAdapt.Rates = []rateadapt.RateSpec{{Name: "a", Mult: 1, ReqSNRdB: 200}}
		}), "required SNR"},
		{"req snr NaN", mk(func(s *Scenario) {
			s.RateAdapt.Rates = []rateadapt.RateSpec{{Name: "a", Mult: 1, ReqSNRdB: nan}}
		}), "required SNR"},
		{"decreasing req snr", mk(func(s *Scenario) {
			s.RateAdapt.Rates = []rateadapt.RateSpec{
				{Name: "a", Mult: 1, ReqSNRdB: 10}, {Name: "b", Mult: 2, ReqSNRdB: 4}}
		}), "non-decreasing"},
		{"rate table past 16 entries", mk(func(s *Scenario) { s.RateAdapt.Rates = rateTable(17) }),
			"rate_adapt.rates length 17 outside [1, 16]"},
		{"negative up_after", mk(func(s *Scenario) { s.RateAdapt.UpAfter = -2 }), "up_after"},
		{"negative down_after", mk(func(s *Scenario) { s.RateAdapt.DownAfter = -1 }), "down_after"},
		// The adapter streak columns are int32 (see streak32).
		{"up_after past int32", mk(func(s *Scenario) { s.RateAdapt.UpAfter = pastInt32() }), "up_after"},
		{"down_after past int32", mk(func(s *Scenario) { s.RateAdapt.DownAfter = pastInt32() }), "down_after"},
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
	if _, err := Run(mk(func(s *Scenario) { s.RateAdapt.Rates = rateTable(16) }), 1); err != nil {
		t.Fatalf("16-entry rate table rejected: %v", err)
	}
}

// rateTable returns a valid table of n rates.
func rateTable(n int) []rateadapt.RateSpec {
	rates := make([]rateadapt.RateSpec, n)
	for i := range rates {
		rates[i] = rateadapt.RateSpec{Name: "r" + strconv.Itoa(i), Mult: float64(i + 1), ReqSNRdB: float64(i)}
	}
	return rates
}

// Adaptation statistics must be internally consistent for any run.
func TestRateAdaptStatsConsistency(t *testing.T) {
	res, err := Run(adaptShowcase(RateAdaptFD, 0.95), 7)
	if err != nil {
		t.Fatal(err)
	}
	var chunks, lag, switches int64
	for _, tag := range res.Tags {
		var sum int64
		for ri, c := range tag.RateChunks {
			if c < 0 || tag.RateLostChunks[ri] > c {
				t.Fatalf("tag %d rate %d: lost %d of %d chunks", tag.ID, ri, tag.RateLostChunks[ri], c)
			}
			sum += c
		}
		if sum != tag.AdaptChunks {
			t.Fatalf("tag %d: rate histogram sums to %d, AdaptChunks %d", tag.ID, sum, tag.AdaptChunks)
		}
		if tag.AdaptLagChunks > tag.AdaptChunks {
			t.Fatalf("tag %d: lag %d exceeds chunks %d", tag.ID, tag.AdaptLagChunks, tag.AdaptChunks)
		}
		if tag.AdaptChunks > 0 && tag.MeanRateMult <= 0 {
			t.Fatalf("tag %d: mean rate mult %g with %d chunks", tag.ID, tag.MeanRateMult, tag.AdaptChunks)
		}
		chunks += tag.AdaptChunks
		lag += tag.AdaptLagChunks
		switches += tag.RateSwitches
	}
	if chunks != res.AdaptChunks || lag != res.AdaptLagChunks || switches != res.RateSwitches {
		t.Fatalf("aggregates diverge from per-tag sums: %d/%d, %d/%d, %d/%d",
			res.AdaptChunks, chunks, res.AdaptLagChunks, lag, res.RateSwitches, switches)
	}
	lo, hi := res.Scenario.RateAdapt.Rates[0].Mult, 0.0
	for _, r := range res.Scenario.RateAdapt.Rates {
		hi = r.Mult
	}
	if m := res.MeanRateMult(); m < lo || m > hi {
		t.Fatalf("population mean mult %g outside table [%g, %g]", m, lo, hi)
	}
	if f := res.AdaptLagFraction(); f < 0 || f > 1 {
		t.Fatalf("lag fraction %g outside [0, 1]", f)
	}
}

// A rate-adaptation run must stay a pure function of (scenario, seed).
func TestRateAdaptDeterministic(t *testing.T) {
	a, err := Run(adaptShowcase(RateAdaptFD, 0.95), 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(adaptShowcase(RateAdaptFD, 0.95), 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same scenario + seed must reproduce identically under rate adaptation")
	}
}

// pastInt32 is one more than MaxInt32 where int is wider (it wraps
// negative on 32-bit platforms, which validate rejects too).
func pastInt32() int {
	n := math.MaxInt32
	n++
	return n
}

// Streak columns saturate at MaxInt32 rather than wrap: a streak that
// passed its threshold must still read as past it.
func TestStreak32Saturates(t *testing.T) {
	for _, c := range []struct {
		in   int
		want int32
	}{{0, 0}, {7, 7}, {math.MaxInt32, math.MaxInt32}, {pastInt32(), math.MaxInt32}} {
		if c.in < 0 {
			continue // 32-bit int: nothing lies past MaxInt32
		}
		if got := streak32(c.in); got != c.want {
			t.Errorf("streak32(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}
