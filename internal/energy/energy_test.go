package energy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simrand"
)

func TestHarvesterEfficiency(t *testing.T) {
	h := Harvester{Efficiency: 0.5, SensitivityW: 1e-9}
	if got := h.OutputPower(1e-3); math.Abs(got-5e-4) > 1e-12 {
		t.Fatalf("output = %g, want 5e-4", got)
	}
}

func TestHarvesterSensitivityFloor(t *testing.T) {
	h := Harvester{Efficiency: 0.5, SensitivityW: 1e-6}
	if h.OutputPower(0.5e-6) != 0 {
		t.Fatal("below-floor input must harvest nothing")
	}
	if h.OutputPower(1e-6) == 0 {
		t.Fatal("at-floor input should harvest")
	}
}

func TestHarvesterDefaults(t *testing.T) {
	var h Harvester
	if h.eff() != 0.3 {
		t.Fatalf("default efficiency = %g", h.eff())
	}
	if h.floor() != 1e-6 {
		t.Fatalf("default floor = %g", h.floor())
	}
	// Zero-allowed floor.
	h2 := Harvester{SensitivityW: -1}
	if h2.floor() != 0 {
		t.Fatal("negative sensitivity should clamp to 0")
	}
}

func TestHarvestEnergyIntegrates(t *testing.T) {
	h := Harvester{Efficiency: 1, SensitivityW: 0}
	if got := h.Harvest(2e-3, 0.5); math.Abs(got-1e-3) > 1e-15 {
		t.Fatalf("harvest = %g, want 1e-3 J", got)
	}
	if h.Harvest(1, -1) != 0 {
		t.Fatal("negative dt must harvest 0")
	}
}

func TestCapacitorEnergyVoltage(t *testing.T) {
	c := &Capacitor{CapacitanceF: 100e-6, MaxVoltageV: 3.3, MinVoltageV: 1.8}
	c.SetVoltage(3.0)
	wantE := 0.5 * 100e-6 * 9
	if math.Abs(c.Energy()-wantE) > 1e-12 {
		t.Fatalf("energy = %g, want %g", c.Energy(), wantE)
	}
	if math.Abs(c.Voltage()-3.0) > 1e-9 {
		t.Fatalf("voltage = %g", c.Voltage())
	}
}

func TestCapacitorSetVoltageClamps(t *testing.T) {
	c := &Capacitor{MaxVoltageV: 3.3}
	c.SetVoltage(100)
	if math.Abs(c.Voltage()-3.3) > 1e-9 {
		t.Fatalf("voltage = %g, want clamp at 3.3", c.Voltage())
	}
	c.SetVoltage(-5)
	if c.Energy() != 0 {
		t.Fatal("negative voltage should clamp to 0")
	}
}

func TestCapacitorStoreClampsAtMax(t *testing.T) {
	c := &Capacitor{CapacitanceF: 1e-6, MaxVoltageV: 2}
	stored := c.Store(1) // way more than max (2e-6 J)
	if math.Abs(stored-c.MaxEnergy()) > 1e-15 {
		t.Fatalf("stored %g, want %g", stored, c.MaxEnergy())
	}
	if c.Store(1) != 0 {
		t.Fatal("full capacitor must store 0")
	}
	if c.Store(-1) != 0 {
		t.Fatal("negative store must be 0")
	}
}

func TestCapacitorDrawBrownOut(t *testing.T) {
	c := &Capacitor{CapacitanceF: 100e-6, MaxVoltageV: 3.3, MinVoltageV: 1.8}
	c.SetVoltage(2.0)
	headroom := c.Energy() - c.MinEnergy()
	if !c.Draw(headroom * 0.9) {
		t.Fatal("draw within headroom must succeed")
	}
	if c.Draw(headroom) {
		t.Fatal("draw below brown-out must fail")
	}
	if c.Draw(-1) {
		t.Fatal("negative draw must fail")
	}
}

func TestCapacitorAlive(t *testing.T) {
	c := &Capacitor{CapacitanceF: 100e-6, MaxVoltageV: 3.3, MinVoltageV: 1.8}
	c.SetVoltage(1.9)
	if !c.Alive() {
		t.Fatal("above brown-out should be alive")
	}
	c.SetVoltage(1.0)
	if c.Alive() {
		t.Fatal("below brown-out should be dead")
	}
}

func TestCapacitorLeak(t *testing.T) {
	c := &Capacitor{CapacitanceF: 100e-6, MaxVoltageV: 3.3, LeakageW: 1e-6}
	c.SetVoltage(3.0)
	e0 := c.Energy()
	c.Leak(10)
	if math.Abs(e0-c.Energy()-1e-5) > 1e-12 {
		t.Fatalf("leak removed %g, want 1e-5", e0-c.Energy())
	}
	// Leak never goes negative.
	c2 := &Capacitor{LeakageW: 1}
	c2.Leak(1e9)
	if c2.Energy() != 0 {
		t.Fatal("leak must clamp at zero")
	}
	// No leakage configured: no-op.
	c3 := &Capacitor{}
	c3.SetVoltage(2)
	e := c3.Energy()
	c3.Leak(100)
	if c3.Energy() != e {
		t.Fatal("zero leakage must not discharge")
	}
}

func TestBudgetSurplus(t *testing.T) {
	b := &Budget{
		Harvester: Harvester{Efficiency: 0.5, SensitivityW: 0},
		Cap:       Capacitor{CapacitanceF: 100e-6, MaxVoltageV: 3.3, MinVoltageV: 1.8},
		CircuitW:  1e-6,
	}
	b.Cap.SetVoltage(2.5)
	// Harvested 0.5*10uW = 5uW > 1uW circuit: no outage ever.
	for i := 0; i < 10000; i++ {
		b.Step(10e-6, 1e-3)
	}
	if b.OutageFraction() != 0 {
		t.Fatalf("surplus budget had outage %g", b.OutageFraction())
	}
}

func TestBudgetDeficitEventuallyOutages(t *testing.T) {
	b := &Budget{
		Harvester: Harvester{Efficiency: 0.3, SensitivityW: 0},
		Cap:       Capacitor{CapacitanceF: 10e-6, MaxVoltageV: 3.3, MinVoltageV: 1.8},
		CircuitW:  100e-6,
	}
	b.Cap.SetVoltage(3.3)
	// Harvest 0.3uW << 100uW draw: must eventually brown out.
	for i := 0; i < 100000; i++ {
		b.Step(1e-6, 1e-3)
	}
	if b.OutageFraction() < 0.5 {
		t.Fatalf("deficit budget outage only %g", b.OutageFraction())
	}
}

func TestBudgetReset(t *testing.T) {
	b := &Budget{CircuitW: 1}
	b.Step(0, 1)
	if b.OutageFraction() == 0 {
		t.Fatal("unpowered budget should record outage")
	}
	b.Reset()
	if b.OutageFraction() != 0 {
		t.Fatal("Reset must clear stats")
	}
}

func TestSplitIncident(t *testing.T) {
	r, h := SplitIncident(10, 0.3)
	if math.Abs(r-3) > 1e-12 || math.Abs(h-7) > 1e-12 {
		t.Fatalf("split = (%g, %g)", r, h)
	}
	r, h = SplitIncident(10, -1)
	if r != 0 || h != 10 {
		t.Fatal("rho < 0 must clamp")
	}
	r, h = SplitIncident(10, 2)
	if r != 10 || h != 0 {
		t.Fatal("rho > 1 must clamp")
	}
}

// Property: energy is conserved by the split for any rho.
func TestSplitConservesProperty(t *testing.T) {
	f := func(pRaw, rhoRaw uint16) bool {
		p := float64(pRaw) / 1000
		rho := float64(rhoRaw) / 65535
		r, h := SplitIncident(p, rho)
		return math.Abs(r+h-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: capacitor Store then Draw of the same amount leaves energy
// unchanged when within bounds.
func TestStoreDrawRoundTripProperty(t *testing.T) {
	f := func(amtRaw uint16) bool {
		c := &Capacitor{CapacitanceF: 100e-6, MaxVoltageV: 3.3, MinVoltageV: 1.0}
		c.SetVoltage(2.0)
		e0 := c.Energy()
		amt := float64(amtRaw) / 65535 * 1e-5 // small amounts
		stored := c.Store(amt)
		if math.Abs(stored-amt) > 1e-15 {
			return true // hit the cap; different invariant
		}
		if !c.Draw(amt) {
			return true // brown-out guard; fine
		}
		return math.Abs(c.Energy()-e0) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A population sharing one configuration can keep only State per
// instance and step through one scratch Budget; replaying random steps
// both ways must agree with whole-struct Budgets bit for bit: every
// Step verdict, stored energy, outage time and outage fraction.
func TestBudgetStateReplayMatchesWholeStruct(t *testing.T) {
	cfg := Budget{
		Harvester: Harvester{Efficiency: 0.3, SensitivityW: 1e-7},
		Cap:       Capacitor{CapacitanceF: 47e-6, LeakageW: 1e-7},
		CircuitW:  2e-7,
	}
	cfg.Cap.SetVoltage(2.4)
	const n, steps = 8, 4000
	src := simrand.New(5)
	whole := make([]Budget, n)
	energyJ := make([]float64, n)
	outageT := make([]float64, n)
	for i := range whole {
		whole[i] = cfg
		energyJ[i], outageT[i], _ = cfg.State()
	}
	var totalT float64
	outages := 0
	for k := 0; k < steps; k++ {
		dt := 0.05 * src.Float64()
		if src.Bool(0.05) {
			dt = 0
		}
		scratch := cfg
		for i := range whole {
			// Incident power straddles the sensitivity floor and
			// circuit bursts straddle the harvest, so tags brown out
			// and recover.
			incidentW := 2e-3 * src.Float64() * src.Float64()
			circuitW := cfg.CircuitW
			if src.Bool(0.3) {
				circuitW += 1e-3 * src.Float64()
			}
			whole[i].CircuitW = circuitW
			okWhole := whole[i].Step(incidentW, dt)
			scratch.CircuitW = circuitW
			scratch.SetState(energyJ[i], outageT[i], totalT)
			okState := scratch.Step(incidentW, dt)
			energyJ[i], outageT[i], _ = scratch.State()
			if okWhole != okState {
				t.Fatalf("step %d budget %d: Step verdict %v via state, %v whole", k, i, okState, okWhole)
			}
			if !okWhole {
				outages++
			}
			if math.Float64bits(energyJ[i]) != math.Float64bits(whole[i].Cap.Energy()) ||
				math.Float64bits(outageT[i]) != math.Float64bits(whole[i].outageT) {
				t.Fatalf("step %d budget %d: state (%g J, %g s) diverged from whole struct (%g J, %g s)",
					k, i, energyJ[i], outageT[i], whole[i].Cap.Energy(), whole[i].outageT)
			}
		}
		totalT += dt
	}
	if outages == 0 || outages == n*steps {
		t.Fatalf("replay saw %d outage steps of %d: it never exercised both branches", outages, n*steps)
	}
	for i := range whole {
		b := cfg
		b.SetState(energyJ[i], outageT[i], totalT)
		if got, want := b.OutageFraction(), whole[i].OutageFraction(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("budget %d: outage fraction %g via state, %g whole", i, got, want)
		}
		if _, _, tt := whole[i].State(); math.Float64bits(tt) != math.Float64bits(totalT) {
			t.Fatalf("budget %d: whole-struct total time %g, shared total %g", i, tt, totalT)
		}
	}
}
