package netsim

// Shard-determinism contract: RunParallel's NetResult is identical —
// every field of every tag and reader — at any worker count. The suite
// covers every built-in preset (the million preset scaled down) plus
// composed stress scenarios that exercise TDM, mobility, rate
// adaptation and the analytic path together, because those are the
// features whose state updates could most plausibly leak across shard
// boundaries.

import (
	"reflect"
	"testing"
)

func shardScenarios(t *testing.T) []Scenario {
	t.Helper()
	var out []Scenario
	for _, name := range PresetNames() {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Tags > 1<<12 {
			// Keep the suite fast; the engine code path is identical.
			sc.Tags = 1 << 12
			sc.Name += "-scaled"
		}
		out = append(out, sc)
	}
	out = append(out, tdmMobileAdaptScenario())
	// Above one tag shard, so every tag-range phase (the ALOHA serve
	// phase included) splits across workers: outaged readers whose tags
	// contend with no open cell, interference bursts and cubic parking
	// (outage-retail), a plain multi-cell run (mall-cells), the exact
	// million engine with fd adaptation under mobility, whose per-tag
	// counters accumulate straight into TagStats (million), and TDM with
	// ARF under mobility (tdm-mobile-adapt).
	for _, name := range []string{"outage-retail", "mall-cells", "million"} {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, multiShard(sc))
	}
	out = append(out, multiShard(tdmMobileAdaptScenario()))
	// The analytic fast path must obey the same contract.
	an, err := Preset("warehouse")
	if err != nil {
		t.Fatal(err)
	}
	an.Name = "warehouse-analytic"
	an.Analytic = true
	out = append(out, an)
	mob, err := Preset("million")
	if err != nil {
		t.Fatal(err)
	}
	mob.Name = "million-analytic-scaled"
	mob.Tags = 1 << 12
	mob.Analytic = true
	out = append(out, mob)
	return out
}

// multiShard scales sc to a population spanning two full tag shards
// and a partial third.
func multiShard(sc Scenario) Scenario {
	sc.Tags = 2*tagShardLen + 517
	sc.Name += "-multishard"
	return sc
}

// tdmMobileAdaptScenario puts TDM, mobility, half-duplex probing
// adaptation and open-loop traffic in one scenario: every serial stream
// is live at once.
func tdmMobileAdaptScenario() Scenario {
	return Scenario{
		Name: "tdm-mobile-adapt", Tags: 48, Topology: TopologyUniformDisc, RadiusM: 16,
		Readers:     ReaderSpec{Count: 3, Placement: ReaderLine, SpacingM: 10, Scheduling: SchedulingTDM},
		Mobility:    MobilitySpec{Model: MobilityWaypoint, StepM: 1, EpochRounds: 3},
		RateAdapt:   RateAdaptSpec{Adapter: RateAdaptARF, FadeRho: 0.9},
		OfferedLoad: 0.4, MaxRounds: 40, Protocol: "block-ack",
	}
}

func TestShardDeterminismAcrossWorkers(t *testing.T) {
	for _, sc := range shardScenarios(t) {
		ref, err := RunParallel(sc, 7, 1)
		if err != nil {
			t.Fatalf("%s workers=1: %v", sc.Name, err)
		}
		for _, workers := range []int{2, 8} {
			got, err := RunParallel(sc, 7, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sc.Name, workers, err)
			}
			if reflect.DeepEqual(ref, got) {
				continue
			}
			// Narrow the report so a failure names the leaking field.
			for i := range ref.Tags {
				if !reflect.DeepEqual(ref.Tags[i], got.Tags[i]) {
					t.Fatalf("%s workers=%d: tag %d diverged:\n 1: %+v\n %d: %+v",
						sc.Name, workers, i, ref.Tags[i], workers, got.Tags[i])
				}
			}
			for r := range ref.Readers {
				if ref.Readers[r] != got.Readers[r] {
					t.Fatalf("%s workers=%d: reader %d diverged:\n 1: %+v\n %d: %+v",
						sc.Name, workers, r, ref.Readers[r], workers, got.Readers[r])
				}
			}
			t.Fatalf("%s workers=%d: aggregate result diverged:\n 1: %+v\n %d: %+v",
				sc.Name, workers, ref, workers, got)
		}
	}
}

// RunParallel at one worker must also equal Run — the public
// single-worker entry point is not a separate code path.
func TestRunParallelMatchesRun(t *testing.T) {
	sc, err := Preset("fading-aisle")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParallel(sc, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Run and RunParallel(1) diverged")
	}
}
