package bench

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"tab1", "tab2", "scen-density", "scen-range", "scen-energy",
		"abl-sinorm", "abl-fbcode", "abl-chunk", "abl-threshold"}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Fatalf("experiment %s missing: %v", id, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestListOrdered(t *testing.T) {
	l := List()
	if len(l) < 16 {
		t.Fatalf("only %d experiments registered", len(l))
	}
	for i, e := range l {
		if strings.HasPrefix(e.ID, "scen") && i+1 < len(l) &&
			strings.HasPrefix(l[i+1].ID, "tab") {
			t.Fatalf("scenario sweeps must sort after tabs, got %s before %s", e.ID, l[i+1].ID)
		}
	}
	if !strings.HasPrefix(l[0].ID, "fig") {
		t.Fatalf("figs must sort first, got %s", l[0].ID)
	}
	last := l[len(l)-1].ID
	if !strings.HasPrefix(last, "abl") {
		t.Fatalf("ablations must sort last, got %s", last)
	}
}

// List builds its order by harvesting and sorting the registry map's
// keys: the full ID sequence must be strictly sorted under idLess and
// byte-identical across calls — ranging the map into the output would
// make both assertions flaky.
func TestListDeterministic(t *testing.T) {
	first := List()
	for i := 1; i < len(first); i++ {
		if idLess(first[i].ID, first[i-1].ID) {
			t.Fatalf("List out of order: %s before %s", first[i-1].ID, first[i].ID)
		}
	}
	for trial := 0; trial < 20; trial++ {
		again := List()
		if len(again) != len(first) {
			t.Fatalf("List length changed: %d != %d", len(again), len(first))
		}
		for i := range first {
			if again[i].ID != first[i].ID {
				t.Fatalf("List order unstable at %d: %s != %s (map iteration order leaking)",
					i, again[i].ID, first[i].ID)
			}
		}
	}
}

// Every experiment must run in quick mode, produce rows, and carry a
// shape statement.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range List() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(RunConfig{Seed: 1, Quick: true})
			if res == nil || res.Table == nil {
				t.Fatal("nil result")
			}
			if res.Table.NumRows() == 0 {
				t.Fatal("experiment produced no rows")
			}
			if res.Shape == "" {
				t.Fatal("experiment missing shape statement")
			}
			if res.ID != e.ID {
				t.Fatalf("result ID %s != %s", res.ID, e.ID)
			}
			var sb strings.Builder
			if err := res.Table.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			if len(sb.String()) == 0 {
				t.Fatal("empty table text")
			}
		})
	}
}

func TestQuickReducesTrials(t *testing.T) {
	c := RunConfig{Quick: true}
	if c.trials(1000) != 100 || c.trials(5) != 1 {
		t.Fatal("Quick trial scaling wrong")
	}
	if (RunConfig{}).trials(1000) != 1000 {
		t.Fatal("full trials must pass through")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	register(Experiment{ID: "fig1"})
}
