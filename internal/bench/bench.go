// Package bench is the experiment harness: one runner per figure/table
// of the evaluation, each regenerating the corresponding rows/series
// from the experiment index in the repository README. cmd/fdbench and
// the top-level benchmarks both drive this package.
//
// Each experiment decomposes into independent cells (one per parameter
// point) executed by a worker pool sized by RunConfig.Workers; output
// is byte-identical at any worker count because cells are seeded from
// the run seed and their own parameters, and rows are collected in
// submission order.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// RunConfig tunes an experiment run.
type RunConfig struct {
	// Seed makes the run reproducible.
	Seed uint64
	// Quick shrinks trial counts for CI/benchmark loops.
	Quick bool
	// Workers is how many experiment cells run concurrently; 0 or 1
	// runs serially. Any value produces byte-identical output at the
	// same Seed. Use AutoWorkers for "all CPUs".
	Workers int
}

// trials scales an iteration count down in Quick mode.
func (c RunConfig) trials(full int) int {
	if c.Quick {
		n := full / 10
		if n < 1 {
			n = 1
		}
		return n
	}
	return full
}

// Experiment is one reproducible figure or table.
type Experiment struct {
	// ID is the figure/table identifier from the evaluation (e.g.
	// "fig4"); the README's experiment index lists them all.
	ID string
	// Title is the one-line description shown in listings.
	Title string
	// Run executes the experiment and returns its table.
	Run func(RunConfig) *Result
}

// Result bundles the experiment output with commentary on the expected
// shape, so reports can state what the run should reproduce.
type Result struct {
	ID    string
	Title string
	// Table holds the regenerated rows.
	Table *trace.Table
	// Shape describes the qualitative result the paper reports and this
	// run should reproduce.
	Shape string
}

var registry = map[string]Experiment{}

// register adds an experiment; called from init functions of the
// per-figure files.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (use List)", id)
	}
	return e, nil
}

// List returns all experiments sorted by ID (figs first, then tabs,
// then scenario sweeps, then ablations).
func List() []Experiment {
	// Harvest and sort the registry keys before building the listing:
	// IDs are unique, so the sorted keys induce a deterministic order
	// no matter how the map iterates (TestListOrdered and
	// TestListDeterministic hold this).
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return idLess(ids[i], ids[j]) })
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		out = append(out, registry[id])
	}
	return out
}

func idLess(a, b string) bool {
	rank := func(s string) int {
		switch {
		case len(s) >= 3 && s[:3] == "fig":
			return 0
		case len(s) >= 3 && s[:3] == "tab":
			return 1
		case len(s) >= 4 && s[:4] == "scen":
			return 2
		default:
			return 3
		}
	}
	ra, rb := rank(a), rank(b)
	if ra != rb {
		return ra < rb
	}
	return a < b
}
