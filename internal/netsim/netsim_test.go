package netsim

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/simrand"
)

func TestPlaceTagsCounts(t *testing.T) {
	for _, topo := range []string{TopologyGrid, TopologyUniformDisc, TopologyClustered} {
		for _, n := range []int{1, 3, 9, 17} {
			src := simrand.New(7)
			pos, err := PlaceTags(topo, n, 5, 3, 0.5, nil, src)
			if err != nil {
				t.Fatalf("%s n=%d: %v", topo, n, err)
			}
			if len(pos) != n {
				t.Fatalf("%s n=%d: placed %d", topo, n, len(pos))
			}
			for i, p := range pos {
				// Grid spans the square [-r, r]^2; discs stay inside r.
				limit := 5.0
				if topo == TopologyGrid {
					limit = 5 * math.Sqrt2
				}
				if d := p.Distance(); d > limit+1e-9 {
					t.Fatalf("%s tag %d at distance %g beyond %g", topo, i, d, limit)
				}
			}
		}
	}
}

func TestPlaceTagsDeterministic(t *testing.T) {
	for _, topo := range []string{TopologyGrid, TopologyUniformDisc, TopologyClustered} {
		a, err := PlaceTags(topo, 12, 4, 3, 0.5, nil, simrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := PlaceTags(topo, 12, 4, 3, 0.5, nil, simrand.New(3))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: placement depends on more than the seed", topo)
		}
	}
}

func TestPlaceTagsRejectsBadInput(t *testing.T) {
	if _, err := PlaceTags("mesh", 4, 5, 0, 0, nil, simrand.New(1)); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := PlaceTags(TopologyGrid, 0, 5, 0, 0, nil, simrand.New(1)); err == nil {
		t.Fatal("zero tags accepted")
	}
	if _, err := PlaceTags(TopologyGrid, 4, -1, 0, 0, nil, simrand.New(1)); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	sc, err := Preset("warehouse")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same scenario + seed must reproduce identically")
	}
	c, err := Run(sc, 12)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Tags, c.Tags) {
		t.Fatal("different seeds produced identical per-tag outcomes")
	}
}

func TestRunClosedLoopDelivers(t *testing.T) {
	sc := Scenario{Name: "t", Tags: 4, Topology: TopologyGrid, RadiusM: 2, FramesPerTag: 3}
	res, err := Run(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesOffered != 12 {
		t.Fatalf("offered %d, want 12", res.FramesOffered)
	}
	// A 2 m grid is a strong-signal cell: everything should deliver.
	if res.FramesDelivered != res.FramesOffered {
		t.Fatalf("delivered %d of %d at short range", res.FramesDelivered, res.FramesOffered)
	}
	if res.Throughput() <= 0 || res.DeliveryRate() != 1 {
		t.Fatalf("throughput %g, delivery %g", res.Throughput(), res.DeliveryRate())
	}
	if got := res.FairnessIndex(); got < 0.99 {
		t.Fatalf("fairness %g for equal closed-loop service", got)
	}
}

func TestRunContentionGrowsWithDensity(t *testing.T) {
	collFrac := func(tags int) float64 {
		sc := Scenario{Tags: tags, Topology: TopologyGrid, RadiusM: 2,
			FramesPerTag: 4, ContentionWindow: 8, MaxRounds: 200}
		res, err := Run(sc, 9)
		if err != nil {
			t.Fatal(err)
		}
		return res.CollisionFraction()
	}
	sparse, dense := collFrac(2), collFrac(24)
	if dense <= sparse {
		t.Fatalf("collision fraction must grow with density: sparse %g, dense %g", sparse, dense)
	}
}

func TestRunRangeDegradesDelivery(t *testing.T) {
	rate := func(radius float64) float64 {
		sc := Scenario{Tags: 8, Topology: TopologyUniformDisc, RadiusM: radius,
			FramesPerTag: 4, MaxRounds: 48}
		res, err := Run(sc, 21)
		if err != nil {
			t.Fatal(err)
		}
		return res.DeliveryRate()
	}
	near, far := rate(2), rate(60)
	if far >= near {
		t.Fatalf("delivery must degrade with range: near %g, far %g", near, far)
	}
}

func TestRunLoadShortensLifetime(t *testing.T) {
	life := func(load float64) float64 {
		sc := Scenario{Tags: 8, Topology: TopologyGrid, RadiusM: 6,
			OfferedLoad: load, MaxRounds: 200}
		res, err := Run(sc, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.SimulatedS <= 0 {
			t.Fatal("no simulated time")
		}
		// Normalise: fraction of the horizon the average tag survived.
		return res.MeanLifetimeS() / res.SimulatedS
	}
	light, heavy := life(0.05), life(2)
	if heavy >= light {
		t.Fatalf("lifetime must shorten with load: light %g, heavy %g", light, heavy)
	}
}

func TestRunRejectsInvalidScenario(t *testing.T) {
	if _, err := Run(Scenario{Protocol: "csma"}, 1); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := Run(Scenario{Rho: 2}, 1); err == nil {
		t.Fatal("rho > 1 accepted")
	}
	if _, err := Run(Scenario{OfferedLoad: -1}, 1); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := Run(Scenario{AbortThreshold: -3}, 1); err == nil {
		t.Fatal("negative abort threshold accepted")
	}
}

func TestProtocolVariants(t *testing.T) {
	for _, proto := range []string{"full-duplex", "stop-and-wait", "block-ack"} {
		sc := Scenario{Tags: 6, Topology: TopologyGrid, RadiusM: 3,
			FramesPerTag: 2, Protocol: proto}
		res, err := Run(sc, 17)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if res.FramesDelivered == 0 {
			t.Fatalf("%s delivered nothing at short range", proto)
		}
	}
}

func TestFullDuplexBeatsHalfDuplexUnderContention(t *testing.T) {
	run := func(proto string) *NetResult {
		sc := Scenario{Tags: 24, Topology: TopologyGrid, RadiusM: 3,
			FramesPerTag: 4, ContentionWindow: 12, Protocol: proto, MaxRounds: 300}
		res, err := Run(sc, 29)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fd, sw := run("full-duplex"), run("stop-and-wait")
	if fd.CollisionBytes >= sw.CollisionBytes {
		t.Fatalf("early termination must cut collision airtime: fd %d, sw %d",
			fd.CollisionBytes, sw.CollisionBytes)
	}
	if fd.Throughput() <= sw.Throughput() {
		t.Fatalf("fd throughput %g must beat sw %g under contention",
			fd.Throughput(), sw.Throughput())
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) < 3 {
		t.Fatalf("want at least 3 presets, have %v", names)
	}
	for _, name := range names {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.ApplyDefaults()
		if err := sc.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	data := []byte(`{
		"name": "json-test",
		"tags": 10,
		"topology": "clustered",
		"radius_m": 6,
		"clusters": 2,
		"offered_load": 0.25,
		"protocol": "block-ack"
	}`)
	sc, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "json-test" || sc.Tags != 10 || sc.Topology != TopologyClustered ||
		sc.Clusters != 2 || sc.OfferedLoad != 0.25 || sc.Protocol != "block-ack" {
		t.Fatalf("decoded scenario wrong: %+v", sc)
	}
	if _, err := Run(sc, 2); err != nil {
		t.Fatalf("decoded scenario does not run: %v", err)
	}
}

func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	if _, err := ParseScenario([]byte(`{"tags": 4, "typo_field": 1}`)); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
}

// FuzzParseScenario drives hostile bodies through the request path.
// ParseScenario, ApplyDefaults and Validate must never panic, and a
// body that parses must marshal and re-parse to the same pre-defaults
// Scenario with the same Validate outcome: resume tokens embed exactly
// that re-marshaled scenario.
func FuzzParseScenario(f *testing.F) {
	for _, name := range PresetNames() {
		sc, err := Preset(name)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example scenarios found (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// An offered load past the int32 arrival count once ran and
	// reported billions of frames; Validate now rejects it.
	f.Add([]byte(`{"tags": 4, "offered_load": 3e9}`))
	// Every numeric knob at each bound and just outside it, with its
	// optional spec switched on.
	for _, k := range knobs {
		if k.enum != nil {
			continue
		}
		vals := []float64{k.lo, k.hi, math.Nextafter(k.lo, math.Inf(-1)), math.Nextafter(k.hi, math.Inf(1))}
		if k.kind == reflect.Int {
			vals[2], vals[3] = k.lo-1, k.hi+1
		}
		for _, v := range vals {
			sc := gatedBase()
			k.setNum(&sc, v)
			b, err := json.Marshal(sc)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	validate := func(sc Scenario) error {
		sc.ApplyDefaults()
		return sc.Validate()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		b, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("parsed scenario does not marshal: %v", err)
		}
		back, err := ParseScenario(b)
		if err != nil {
			t.Fatalf("re-marshaled scenario does not parse: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("marshal round trip changed the scenario:\n%+v\n%+v", sc, back)
		}
		verr, berr := validate(sc), validate(back)
		if (verr == nil) != (berr == nil) || (verr != nil && verr.Error() != berr.Error()) {
			t.Fatalf("Validate outcome changed across the round trip: %v vs %v", verr, berr)
		}
	})
}

func TestLoadScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(`{"name": "file", "tags": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "file" || sc.Tags != 3 {
		t.Fatalf("loaded scenario wrong: %+v", sc)
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
