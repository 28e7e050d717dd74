package netsim

// The scenario knob table: every JSON knob of Scenario and its nested
// specs has one row here holding its default and bounds. ApplyDefaults
// and Validate run one generic pass over the table; the rules that
// relate several knobs stay hand-written below it. A knob without a
// row fails TestKnobTableCoversScenario unless it is listed there as
// an exemption with its reason.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/rateadapt"
)

// zeroPolicy names how a numeric knob's zero value and sentinels map
// onto its setting.
type zeroPolicy uint8

const (
	// keepZero uses the value as given: zero is a setting of its own
	// (offered_load, fade_rho), or a derived default in ApplyDefaults
	// fills it.
	keepZero zeroPolicy = iota
	// zeroOrLess gives any value <= 0 the default.
	zeroOrLess
	// zeroOnly gives only 0 the default; a negative value stays and
	// fails the bounds.
	zeroOnly
	// negIsZero gives 0 the default; any negative value means exactly
	// 0 (isolation_db, jitter_frac: the sign is free to act as the
	// explicit-zero sentinel).
	negIsZero
	// sentinelIsZero gives 0 the default; any value <= -999 (such as
	// ReqSNRZero) means exactly 0 (req_snr_db).
	sentinelIsZero
)

// Gates: the optional specs whose knobs apply only once the spec is
// enabled. While one is off its knobs take no defaults and must all be
// zero, so a knob set without its switch fails loudly.
const (
	ungated = iota
	gateRateAdapt
	gateCongestion
	gateFaults
	numGates
)

var gates = [numGates]struct{ prefix, orphan string }{
	gateRateAdapt: {"rate_adapt.", "rate_adapt fields set without an adapter (set rate_adapt.adapter to " +
		RateAdaptFixed + ", " + RateAdaptARF + " or " + RateAdaptFD + ")"},
	gateCongestion: {"congestion.", "congestion fields set without a controller (set congestion.controller to " +
		CongestionCubic + ")"},
	gateFaults: {"faults.", "faults fields set without any event or rate (set faults.events or a *_rate)"},
}

// gatesOn reports which optional specs are enabled.
func (s *Scenario) gatesOn() [numGates]bool {
	return [numGates]bool{ungated: true, gateRateAdapt: s.RateAdapt.enabled(),
		gateCongestion: s.Congestion.enabled(), gateFaults: s.Faults.enabled()}
}

// knob is one row of the table. A string knob lists its allowed values
// in enum, the first being its default; a numeric knob has a default,
// inclusive bounds and a zero policy.
type knob struct {
	path   string
	def    float64
	lo, hi float64
	zero   zeroPolicy
	enum   []string

	field       // resolved once from path
	gate  uint8 // resolved once from path
}

// maxRates bounds rate_adapt.rates: four times the modem's 4-entry
// rate table.
const maxRates = 16

// belowOne is the largest float64 below 1: the upper bound of the
// knobs that must stay strictly below 1.
const belowOne = 1 - 0x1p-53

// knobs is the table, in Scenario field order.
var knobs = []knob{
	{path: "tags", def: 8, lo: 1, hi: 1 << 22, zero: zeroOrLess},
	{path: "topology", enum: []string{TopologyGrid, TopologyUniformDisc, TopologyClustered, TopologyCells}},
	{path: "radius_m", def: 4, lo: 1e-3, hi: 1e4, zero: zeroOrLess},
	{path: "clusters", def: 3, lo: 1, hi: 1 << 16, zero: zeroOrLess},
	{path: "cluster_spread_m", lo: 1e-6, hi: 1e4},

	{path: "readers.count", def: 1, lo: 1, hi: 64, zero: zeroOrLess},
	{path: "readers.placement", enum: []string{ReaderGrid, ReaderLine, ReaderRing}},
	{path: "readers.spacing_m", lo: 1e-3, hi: 1e4},
	{path: "readers.scheduling", enum: []string{SchedulingIndependent, SchedulingTDM}},
	{path: "readers.isolation_db", def: 20, lo: 0, hi: 200, zero: negIsZero},
	{path: "readers.policy", enum: []string{PolicyAloha, PolicyFIFO, PolicyPropFair, PolicyDeadline}},
	{path: "readers.deadline_rounds", lo: 0, hi: 1 << 20},

	{path: "mobility.model", enum: []string{MobilityNone, MobilityWaypoint}},
	{path: "mobility.step_m", lo: 1e-6, hi: 1e4},
	{path: "mobility.epoch_rounds", def: 4, lo: 1, hi: 1 << 20, zero: zeroOrLess},

	{path: "rate_adapt.adapter", enum: []string{RateAdaptFixed, RateAdaptARF, RateAdaptFD}},
	{path: "rate_adapt.fade_rho", lo: 0, hi: belowOne},
	// The adapter streak columns are int32 (see streak32).
	{path: "rate_adapt.up_after", lo: 0, hi: math.MaxInt32},
	{path: "rate_adapt.down_after", def: 1, lo: 0, hi: math.MaxInt32, zero: zeroOnly},

	{path: "congestion.controller", enum: []string{CongestionCubic}},
	{path: "congestion.rto_min_rounds", def: 2, lo: 1, hi: 1 << 20, zero: zeroOrLess},
	{path: "congestion.rto_max_rounds", def: 64, lo: 1, hi: 1 << 20, zero: zeroOrLess},
	{path: "congestion.initial_rto_rounds", def: 4, lo: 0, hi: 1 << 20, zero: zeroOrLess},
	{path: "congestion.max_backoff", def: 6, lo: 1, hi: 16, zero: zeroOrLess},
	{path: "congestion.retx_cap", def: 8, lo: 1, hi: 1 << 10, zero: zeroOrLess},
	{path: "congestion.beta", def: 0.3, lo: 0, hi: belowOne, zero: zeroOnly},
	{path: "congestion.cubic_c", def: 0.4, lo: 0, hi: 1e3, zero: zeroOrLess},
	{path: "congestion.jitter_frac", def: 0.5, lo: 0, hi: 1, zero: negIsZero},

	// Round counts share max_rounds' bound: the engine counts rounds
	// in int32.
	{path: "faults.outage_rate", lo: 0, hi: 1},
	{path: "faults.outage_rounds", def: 8, lo: 1, hi: 1 << 20, zero: zeroOrLess},
	{path: "faults.interference_rate", lo: 0, hi: 1},
	{path: "faults.interference_rounds", def: 4, lo: 1, hi: 1 << 20, zero: zeroOrLess},
	{path: "faults.interference_loss_prob", def: 0.5, lo: 0, hi: 1, zero: zeroOrLess},
	{path: "faults.churn_rate", lo: 0, hi: 1},
	{path: "faults.churn_rounds", def: 16, lo: 1, hi: 1 << 20, zero: zeroOrLess},

	{path: "freq_hz", def: 915e6, lo: 1e6, hi: 1e11, zero: zeroOrLess},
	{path: "path_loss_exp", def: 2.5, lo: 1, hi: 8, zero: zeroOrLess},
	{path: "tx_power_w", def: 0.1, lo: 1e-6, hi: 100, zero: zeroOrLess},
	{path: "noise_w", def: 1e-9, lo: 1e-21, hi: 1e-3, zero: zeroOrLess},
	{path: "rho", def: 0.3, lo: 0, hi: 1, zero: zeroOrLess},
	{path: "req_snr_db", def: DefaultReqSNRdB, lo: -30, hi: 60, zero: sentinelIsZero},
	{path: "feedback_samples_per_bit", def: 100, lo: 2, hi: 1 << 20, zero: zeroOrLess},

	{path: "frames_per_tag", def: 4, lo: 1, hi: 1 << 16, zero: zeroOrLess},
	// A round's Poisson draw is counted in int32, and no tag can queue
	// more than the queue_cap bound anyway.
	{path: "offered_load", lo: 0, hi: 1 << 20},
	{path: "max_rounds", def: 64, lo: 1, hi: 1 << 20, zero: zeroOrLess},
	{path: "contention_window", lo: 1, hi: 1 << 20},
	{path: "queue_cap", def: 16, lo: 1, hi: 1 << 20, zero: zeroOrLess},

	{path: "protocol", enum: []string{"full-duplex", "stop-and-wait", "block-ack"}},
	{path: "payload_bytes", def: 256, lo: 1, hi: 1 << 20, zero: zeroOrLess},
	{path: "chunk_bytes", def: 32, lo: 1, hi: 1 << 16, zero: zeroOrLess},
	{path: "abort_threshold", def: 2, lo: 0, hi: 1 << 20, zero: zeroOnly},
	{path: "backoff_chunks", def: 8, lo: 1, hi: 1 << 16, zero: zeroOrLess},
	{path: "max_attempts", def: 8, lo: 1, hi: 1 << 16, zero: zeroOrLess},

	{path: "harvester_eff", def: 0.3, lo: 1e-4, hi: 1, zero: zeroOrLess},
	{path: "harvester_floor_w", def: 1e-7, lo: 1e-15, hi: 1e-3, zero: zeroOrLess},
	{path: "capacitance_f", def: 4.7e-6, lo: 1e-12, hi: 1, zero: zeroOrLess},
	{path: "idle_circuit_w", def: 2e-7, lo: 1e-15, hi: 1e-3, zero: zeroOrLess},
	{path: "tx_energy_j", def: 5e-7, lo: 1e-15, hi: 1e-3, zero: zeroOrLess},
	{path: "bit_rate_bps", def: 1e6, lo: 1e3, hi: 1e9, zero: zeroOrLess},
	{path: "start_voltage_v", def: 2.4, lo: 0.1, hi: 100, zero: zeroOrLess},
}

// field locates one JSON field inside a Scenario.
type field struct {
	off  uintptr
	kind reflect.Kind
}

// knobFields indexes every JSON field reachable from Scenario through
// nested structs, by dot-separated JSON path.
var knobFields = map[string]field{}

func init() {
	walkJSON(reflect.TypeOf(Scenario{}), "", 0, func(path string, off uintptr, kind reflect.Kind) {
		knobFields[path] = field{off, kind}
	})
	for i := range knobs {
		k := &knobs[i]
		f, ok := knobFields[k.path]
		want := reflect.Float64
		if k.enum != nil {
			want = reflect.String
		}
		if !ok || (f.kind != want && !(want == reflect.Float64 && f.kind == reflect.Int)) {
			panic("netsim: knob table row " + k.path + " names no field of its kind")
		}
		k.field = f
		for g := ungated + 1; g < numGates; g++ {
			if strings.HasPrefix(k.path, gates[g].prefix) {
				k.gate = uint8(g)
			}
		}
	}
}

// walkJSON calls visit for every JSON field of t that is not itself a
// struct, recursing into struct fields; path joins JSON names with dots
// and off is the field's byte offset from the outermost struct.
func walkJSON(t reflect.Type, prefix string, off uintptr, visit func(path string, off uintptr, kind reflect.Kind)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		if f.Type.Kind() == reflect.Struct {
			walkJSON(f.Type, prefix+name+".", off+f.Offset, visit)
			continue
		}
		visit(prefix+name, off+f.Offset, f.Type.Kind())
	}
}

func (f field) ptr(s *Scenario) unsafe.Pointer { return unsafe.Add(unsafe.Pointer(s), f.off) }

// num reads a numeric knob as float64.
func (f field) num(s *Scenario) float64 {
	if f.kind == reflect.Int {
		return float64(*(*int)(f.ptr(s)))
	}
	return *(*float64)(f.ptr(s))
}

func (f field) setNum(s *Scenario, v float64) {
	if f.kind == reflect.Int {
		*(*int)(f.ptr(s)) = int(v)
	} else {
		*(*float64)(f.ptr(s)) = v
	}
}

func (f field) str(s *Scenario) *string { return (*string)(f.ptr(s)) }

// applyKnobs gives every knob of an enabled spec its default under the
// knob's zero policy.
func applyKnobs(s *Scenario) {
	on := s.gatesOn()
	for i := range knobs {
		k := &knobs[i]
		if !on[k.gate] {
			continue
		}
		if k.enum != nil {
			if p := k.str(s); *p == "" {
				*p = k.enum[0]
			}
			continue
		}
		v := k.num(s)
		switch {
		case v == 0 && k.zero != keepZero, v < 0 && k.zero == zeroOrLess:
			k.setNum(s, k.def)
		case v < 0 && k.zero == negIsZero, v <= -999 && k.zero == sentinelIsZero:
			k.setNum(s, 0)
		}
	}
}

// checkKnobs reports the first knob outside its bounds or enum, or set
// while its spec is off. The negated bounds test also rejects NaN.
func checkKnobs(s *Scenario) error {
	on := s.gatesOn()
	for i := range knobs {
		k := &knobs[i]
		if k.enum != nil {
			v := *k.str(s)
			switch {
			case !on[k.gate]:
				if v != "" {
					return fmt.Errorf("netsim: %s", gates[k.gate].orphan)
				}
			case !slices.Contains(k.enum, v):
				return fmt.Errorf("netsim: unknown %s %q (want %s)", k.path, v, orList(k.enum))
			}
			continue
		}
		v := k.num(s)
		switch {
		case !on[k.gate]:
			if v != 0 {
				return fmt.Errorf("netsim: %s", gates[k.gate].orphan)
			}
		case !(v >= k.lo && v <= k.hi):
			if k.kind == reflect.Int {
				return fmt.Errorf("netsim: %s %d outside [%d, %d]", k.path, int(v), int(k.lo), int(k.hi))
			}
			return fmt.Errorf("netsim: %s %g outside [%g, %g]", k.path, v, k.lo, k.hi)
		}
	}
	return nil
}

// orList renders "a, b or c".
func orList(xs []string) string {
	if len(xs) == 1 {
		return xs[0]
	}
	return strings.Join(xs[:len(xs)-1], ", ") + " or " + xs[len(xs)-1]
}

// SetKnob sets one scalar JSON field of the scenario, named by its
// dot-separated JSON path (e.g. "readers.count"), from its text form.
// It does not apply defaults or check bounds: Validate does. A value
// that does not parse leaves the field unchanged.
func (s *Scenario) SetKnob(path, value string) error {
	f, ok := knobFields[path]
	if !ok {
		return fmt.Errorf("netsim: no scenario knob %q", path)
	}
	p := f.ptr(s)
	var err error
	switch f.kind {
	case reflect.Int:
		var v int
		if v, err = strconv.Atoi(value); err == nil {
			*(*int)(p) = v
		}
	case reflect.Float64:
		var v float64
		if v, err = strconv.ParseFloat(value, 64); err == nil {
			*(*float64)(p) = v
		}
	case reflect.Bool:
		var v bool
		if v, err = strconv.ParseBool(value); err == nil {
			*(*bool)(p) = v
		}
	case reflect.String:
		*(*string)(p) = value
	default:
		return fmt.Errorf("netsim: %s is not a scalar knob", path)
	}
	if err != nil {
		return fmt.Errorf("netsim: %s %q: %w", path, value, err)
	}
	return nil
}

// ApplyDefaults fills zero fields in place with the documented defaults.
func (s *Scenario) ApplyDefaults() {
	if s.Name == "" {
		s.Name = "scenario"
	}
	applyKnobs(s)

	// Derived defaults: these scale with knobs defaulted above.
	if s.ClusterSpreadM <= 0 {
		s.ClusterSpreadM = s.RadiusM / 8
	}
	if s.Readers.SpacingM <= 0 {
		s.Readers.SpacingM = s.RadiusM
	}
	if s.Mobility.StepM <= 0 {
		s.Mobility.StepM = s.RadiusM / 20
	}
	if s.ContentionWindow <= 0 {
		perReader := (s.Tags + s.Readers.Count - 1) / s.Readers.Count
		s.ContentionWindow = 2 * perReader
	}
	if s.Readers.Policy == PolicyDeadline && s.Readers.DeadlineRounds == 0 {
		s.Readers.DeadlineRounds = 16
	}
	// Closed-loop preload must fit the queue: with QueueCap below
	// FramesPerTag, frames undelivered after MaxAttempts would find the
	// queue "full" at re-queue time and be dropped instead of retried.
	if s.OfferedLoad == 0 && s.QueueCap < s.FramesPerTag {
		s.QueueCap = s.FramesPerTag
	}

	if r := &s.RateAdapt; r.enabled() {
		if len(r.Rates) == 0 {
			r.Rates = append([]rateadapt.RateSpec(nil), rateadapt.DefaultRates...)
		}
		// Only the zero value takes the default: a negative threshold
		// must survive to Validate and be rejected there.
		if r.UpAfter == 0 {
			r.UpAfter = 3 // arf frames
			if r.Adapter == RateAdaptFD {
				r.UpAfter = 5 // per-chunk ACKs
			}
		}
	}

	if f := &s.Faults; len(f.Events) > 0 {
		// Copy before filling per-event defaults: the spec may alias a
		// preset's backing array.
		evs := append([]FaultEvent(nil), f.Events...)
		for i := range evs {
			if evs[i].Rounds <= 0 {
				evs[i].Rounds = f.OutageRounds
				if evs[i].Kind == FaultInterference {
					evs[i].Rounds = f.InterferenceRounds
				}
			}
			if evs[i].Kind == FaultInterference && evs[i].LossProb == 0 {
				evs[i].LossProb = f.InterferenceLossProb
			}
		}
		f.Events = evs
	}
}

// Validate checks a scenario after defaults; it reports the first
// problem found.
func (s Scenario) Validate() error {
	if err := checkKnobs(&s); err != nil {
		return err
	}
	if s.Tags*s.Readers.Count > 1<<23 {
		return fmt.Errorf("netsim: %d tags x %d readers needs %d path-loss evaluations per epoch (cap %d)",
			s.Tags, s.Readers.Count, s.Tags*s.Readers.Count, 1<<23)
	}
	if s.Readers.DeadlineRounds != 0 && s.Readers.Policy != PolicyDeadline {
		return fmt.Errorf("netsim: readers.deadline_rounds set but policy is %q (want %s)",
			s.Readers.Policy, PolicyDeadline)
	}

	r := s.RateAdapt
	if !r.enabled() && len(r.Rates) != 0 {
		return fmt.Errorf("netsim: %s", gates[gateRateAdapt].orphan)
	}
	// Per-tag adaptation state keeps a column per rate, so the table's
	// length scales memory with the tag count.
	if r.enabled() && (len(r.Rates) < 1 || len(r.Rates) > maxRates) {
		return fmt.Errorf("netsim: rate_adapt.rates length %d outside [1, %d]", len(r.Rates), maxRates)
	}
	for i, rt := range r.Rates {
		if !(rt.Mult > 0) {
			return fmt.Errorf("netsim: rate %d (%s) multiplier %g must be positive", i, rt.Name, rt.Mult)
		}
		if i > 0 && !(rt.Mult > r.Rates[i-1].Mult) {
			return fmt.Errorf("netsim: rate table multipliers must be strictly increasing (rate %d %s has %g after %g)",
				i, rt.Name, rt.Mult, r.Rates[i-1].Mult)
		}
		if !(rt.ReqSNRdB >= -30 && rt.ReqSNRdB <= 60) {
			return fmt.Errorf("netsim: rate %d (%s) required SNR %g dB outside [-30, 60]", i, rt.Name, rt.ReqSNRdB)
		}
		if i > 0 && rt.ReqSNRdB < r.Rates[i-1].ReqSNRdB {
			return fmt.Errorf("netsim: rate table SNR requirements must be non-decreasing (rate %d %s requires %g dB after %g)",
				i, rt.Name, rt.ReqSNRdB, r.Rates[i-1].ReqSNRdB)
		}
	}

	if c := s.Congestion; c.enabled() && c.RTOMaxRounds < c.RTOMinRounds {
		return fmt.Errorf("netsim: congestion.rto_max_rounds %g below rto_min_rounds %g", c.RTOMaxRounds, c.RTOMinRounds)
	}

	for i, ev := range s.Faults.Events {
		switch ev.Kind {
		case FaultReaderOutage, FaultInterference:
		default:
			return fmt.Errorf("netsim: fault event %d: unknown kind %q (want %s or %s)",
				i, ev.Kind, FaultReaderOutage, FaultInterference)
		}
		if ev.Round < 1 {
			return fmt.Errorf("netsim: fault event %d: round %d must be >= 1", i, ev.Round)
		}
		if ev.Reader < 0 || ev.Reader >= s.Readers.Count {
			return fmt.Errorf("netsim: fault event %d: reader %d outside [0, %d)", i, ev.Reader, s.Readers.Count)
		}
		if !(ev.LossProb >= 0 && ev.LossProb <= 1) {
			return fmt.Errorf("netsim: fault event %d: loss_prob %g outside [0, 1]", i, ev.LossProb)
		}
		if ev.Rounds < 1 || ev.Rounds > 1<<20 {
			return fmt.Errorf("netsim: fault event %d: duration %d rounds outside [1, %d] (zero takes the spec default)",
				i, ev.Rounds, 1<<20)
		}
	}
	return nil
}
