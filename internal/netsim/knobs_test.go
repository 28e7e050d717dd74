package netsim

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// knobExemptions are the JSON fields the knob table has no row for,
// each with its reason. Validate checks the two slices field by field.
var knobExemptions = map[string]string{
	"name":             "free-form label; any string is a valid name",
	"analytic":         "boolean mode switch; both values are valid",
	"rate_adapt.rates": "rate table: Validate checks each rate and the table's monotonicity",
	"faults.events":    "event list: ApplyDefaults fills and Validate checks each event against the reader count",
}

// uncoveredKnobs lists the JSON fields of t that have neither a row
// nor an exemption, and the exemptions given without a reason.
func uncoveredKnobs(t reflect.Type, rows []string, exempt map[string]string) []string {
	var out []string
	walkJSON(t, "", 0, func(path string, _ uintptr, _ reflect.Kind) {
		reason, isExempt := exempt[path]
		switch {
		case isExempt && strings.TrimSpace(reason) == "":
			out = append(out, path+": exemption without a reason")
		case !isExempt && !slices.Contains(rows, path):
			out = append(out, path+": no knob table row")
		}
	})
	return out
}

func knobPaths() []string {
	var paths []string
	for _, k := range knobs {
		paths = append(paths, k.path)
	}
	return paths
}

// TestKnobTableCoversScenario: every JSON knob reachable from Scenario
// has a default and bounds in the table, or a reasoned exemption.
func TestKnobTableCoversScenario(t *testing.T) {
	for _, miss := range uncoveredKnobs(reflect.TypeOf(Scenario{}), knobPaths(), knobExemptions) {
		t.Error(miss)
	}
	for path := range knobExemptions {
		if _, ok := knobFields[path]; !ok {
			t.Errorf("exemption %s names no Scenario field", path)
		}
	}
	seen := map[string]bool{}
	for _, k := range knobs {
		if seen[k.path] {
			t.Errorf("knob %s has two rows", k.path)
		}
		seen[k.path] = true
	}
}

// The coverage check itself must catch an unbounded top-level field,
// an unbounded nested field, and an exemption without a reason.
func TestKnobCoverageCatchesMissingRows(t *testing.T) {
	type spec struct {
		Bounded int     `json:"bounded"`
		Loose   float64 `json:"loose"`
	}
	type scenario struct {
		Name      string `json:"name"`
		Tags      int    `json:"tags"`
		Unbounded int    `json:"unbounded"`
		Spec      spec   `json:"spec"`
		Label     string `json:"label,omitempty"`
		Skipped   int    `json:"-"`
	}
	got := uncoveredKnobs(reflect.TypeOf(scenario{}), []string{"tags", "spec.bounded"},
		map[string]string{"name": "free-form", "label": " "})
	want := []string{
		"unbounded: no knob table row",
		"spec.loose: no knob table row",
		"label: exemption without a reason",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("uncoveredKnobs = %q, want %q", got, want)
	}
}

// gatedBase enables every optional spec, so a knob's own bounds, not
// the orphan rule, decide the outcome.
func gatedBase() Scenario {
	return Scenario{Tags: 4,
		RateAdapt:  RateAdaptSpec{Adapter: RateAdaptFD},
		Congestion: CongestionSpec{Controller: CongestionCubic},
		Faults:     FaultSpec{ChurnRate: 0.001},
	}
}

// TestKnobTableRejectsNaN: a NaN in any float knob fails Validate,
// whatever its zero policy.
func TestKnobTableRejectsNaN(t *testing.T) {
	base := gatedBase()
	base.ApplyDefaults()
	if err := base.Validate(); err != nil {
		t.Fatalf("base scenario invalid: %v", err)
	}
	for _, k := range knobs {
		if k.kind != reflect.Float64 {
			continue
		}
		sc := gatedBase()
		k.setNum(&sc, math.NaN())
		sc.ApplyDefaults()
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: NaN accepted", k.path)
		}
	}
}

func TestSetKnob(t *testing.T) {
	var sc Scenario
	for _, kv := range [][2]string{
		{"tags", "12"}, {"radius_m", "2.5"}, {"readers.scheduling", "tdm"}, {"analytic", "true"},
	} {
		if err := sc.SetKnob(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if sc.Tags != 12 || sc.RadiusM != 2.5 || sc.Readers.Scheduling != SchedulingTDM || !sc.Analytic {
		t.Fatalf("SetKnob did not set the fields: %+v", sc)
	}
	for _, kv := range [][2]string{
		{"no_such_knob", "1"}, {"tags", "many"}, {"faults.events", "[]"},
	} {
		if err := sc.SetKnob(kv[0], kv[1]); err == nil {
			t.Errorf("SetKnob(%q, %q) accepted", kv[0], kv[1])
		}
	}
	if sc.Tags != 12 {
		t.Fatalf("a failed SetKnob changed tags to %d", sc.Tags)
	}
}
