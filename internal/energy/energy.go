// Package energy models the battery-free tag's power subsystem: an RF
// harvester with a sensitivity floor and conversion efficiency, and a
// storage capacitor with leakage. The reflection coefficient trade-off
// central to the paper appears here: power the tag reflects for feedback
// is power it cannot harvest.
package energy

import (
	"fmt"
	"math"
)

// Harvester converts incident RF power into stored energy.
type Harvester struct {
	// Efficiency is the RF-to-DC conversion efficiency in (0, 1].
	// Typical CMOS rectifiers reach 0.2-0.5 at UHF. Default 0.3.
	Efficiency float64
	// SensitivityW is the minimum incident power that produces any
	// output (rectifier threshold). Default 1 µW (-30 dBm).
	SensitivityW float64
}

func (h Harvester) eff() float64 {
	if h.Efficiency <= 0 || h.Efficiency > 1 {
		return 0.3
	}
	return h.Efficiency
}

func (h Harvester) floor() float64 {
	if h.SensitivityW < 0 {
		return 0
	}
	if h.SensitivityW == 0 {
		return 1e-6
	}
	return h.SensitivityW
}

// OutputPower returns the DC power produced for a given incident RF
// power; zero below the sensitivity floor.
func (h Harvester) OutputPower(incidentW float64) float64 {
	if incidentW < h.floor() {
		return 0
	}
	return incidentW * h.eff()
}

// Harvest returns the energy in joules collected over dt seconds at the
// given incident power.
func (h Harvester) Harvest(incidentW, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	return h.OutputPower(incidentW) * dt
}

// Capacitor is the tag's energy store. Energy bookkeeping is in joules;
// voltage is derived (E = C*V^2/2) for the brown-out check.
type Capacitor struct {
	// CapacitanceF is the capacitance in farads. Default 100 µF.
	CapacitanceF float64
	// MaxVoltageV caps the stored energy. Default 3.3 V.
	MaxVoltageV float64
	// MinVoltageV is the brown-out threshold below which the tag logic
	// cannot run. Default 1.8 V.
	MinVoltageV float64
	// LeakageW is a constant self-discharge power. Default 0.
	LeakageW float64

	energyJ float64
}

func (c *Capacitor) capF() float64 {
	if c.CapacitanceF <= 0 {
		return 100e-6
	}
	return c.CapacitanceF
}

func (c *Capacitor) maxV() float64 {
	if c.MaxVoltageV <= 0 {
		return 3.3
	}
	return c.MaxVoltageV
}

func (c *Capacitor) minV() float64 {
	if c.MinVoltageV <= 0 {
		return 1.8
	}
	return c.MinVoltageV
}

// MaxEnergy returns the storable energy at the voltage cap.
func (c *Capacitor) MaxEnergy() float64 {
	v := c.maxV()
	return 0.5 * c.capF() * v * v
}

// MinEnergy returns the energy at the brown-out voltage.
func (c *Capacitor) MinEnergy() float64 {
	v := c.minV()
	return 0.5 * c.capF() * v * v
}

// Energy returns the currently stored energy in joules.
func (c *Capacitor) Energy() float64 { return c.energyJ }

// Voltage returns the current capacitor voltage.
func (c *Capacitor) Voltage() float64 {
	return math.Sqrt(2 * c.energyJ / c.capF())
}

// SetVoltage initialises the store to a given voltage (clamped to the
// cap).
func (c *Capacitor) SetVoltage(v float64) {
	if v < 0 {
		v = 0
	}
	if v > c.maxV() {
		v = c.maxV()
	}
	c.energyJ = 0.5 * c.capF() * v * v
}

// Store deposits energy, clamping at the voltage cap. It returns the
// energy actually stored.
func (c *Capacitor) Store(joules float64) float64 {
	if joules <= 0 {
		return 0
	}
	room := c.MaxEnergy() - c.energyJ
	if joules > room {
		joules = room
	}
	c.energyJ += joules
	return joules
}

// Draw removes energy for load consumption. It returns false (drawing
// nothing) if the draw would push the capacitor below the brown-out
// energy — the tag powers off instead of executing partially.
func (c *Capacitor) Draw(joules float64) bool {
	if joules < 0 {
		return false
	}
	if c.energyJ-joules < c.MinEnergy() {
		return false
	}
	c.energyJ -= joules
	return true
}

// Leak applies self-discharge over dt seconds.
func (c *Capacitor) Leak(dt float64) {
	if c.LeakageW <= 0 || dt <= 0 {
		return
	}
	c.energyJ -= c.LeakageW * dt
	if c.energyJ < 0 {
		c.energyJ = 0
	}
}

// Alive reports whether the tag is above brown-out.
func (c *Capacitor) Alive() bool { return c.energyJ >= c.MinEnergy() }

// Budget simulates the steady-state energy balance of a tag: harvesting
// from incident power while paying circuit consumption, tracking outage
// (time spent browned out).
type Budget struct {
	Harvester Harvester
	Cap       Capacitor
	// CircuitW is the tag's continuous consumption while operating.
	CircuitW float64

	totalT  float64
	outageT float64
}

// Step advances the budget by dt seconds with the given incident RF
// power reaching the harvester (i.e. already reduced by the fraction the
// tag reflected). It returns true if the tag was operational for the
// step.
func (b *Budget) Step(incidentW, dt float64) bool {
	b.Cap.Store(b.Harvester.Harvest(incidentW, dt))
	b.Cap.Leak(dt)
	ok := b.Cap.Draw(b.CircuitW * dt)
	b.totalT += dt
	if !ok {
		b.outageT += dt
	}
	return ok
}

// OutageFraction returns the fraction of simulated time the tag spent
// browned out.
func (b *Budget) OutageFraction() float64 {
	if b.totalT == 0 {
		return 0
	}
	return b.outageT / b.totalT
}

// State returns the budget's per-instance state: the stored energy, the
// accumulated outage time and the total stepped time. Everything else
// Step reads is configuration, so a population of budgets sharing one
// configuration can store just this state per instance and step each
// one through a single scratch Budget loaded with SetState.
func (b *Budget) State() (energyJ, outageT, totalT float64) {
	return b.Cap.energyJ, b.outageT, b.totalT
}

// SetState loads a per-instance state saved by State.
func (b *Budget) SetState(energyJ, outageT, totalT float64) {
	b.Cap.energyJ, b.outageT, b.totalT = energyJ, outageT, totalT
}

// Reset clears accumulated outage statistics (not the capacitor state).
func (b *Budget) Reset() { b.totalT, b.outageT = 0, 0 }

// SplitIncident divides incident RF power at the tag antenna between the
// backscatter modulator and the harvester for a reflection coefficient
// rho in [0, 1]: the modulator re-radiates rho of the power, the
// harvester sees (1-rho). This is THE trade-off knob of the paper: bigger
// rho means a stronger feedback signal and a poorer energy supply.
func SplitIncident(incidentW, rho float64) (reflectedW, harvestableW float64) {
	if rho < 0 {
		rho = 0
	}
	if rho > 1 {
		rho = 1
	}
	return incidentW * rho, incidentW * (1 - rho)
}

// String summarises the harvester for logs.
func (h Harvester) String() string {
	return fmt.Sprintf("harvester(eta=%.2f floor=%.1fuW)", h.eff(), h.floor()*1e6)
}
