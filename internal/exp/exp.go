// Package exp is the per-experiment registry: one generator per table and
// figure of the paper's evaluation, each returning the rows/series the
// paper reports. The root bench suite (bench_test.go) and the nvmexplorer
// CLI both drive this registry; EXPERIMENTS.md records paper-vs-measured
// for every entry.
package exp

import (
	"fmt"
	"sort"

	"repro/internal/nvsim"
	"repro/internal/viz"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string // "fig3", "table2", ...
	Title string
	run   func(*nvsim.Engine) (*Result, error)
}

// Run regenerates the experiment through the engine's memo, shared with
// every experiment run on it; with no engine given it uses a fresh one.
func (e Experiment) Run(engine ...*nvsim.Engine) (*Result, error) {
	if len(engine) == 0 {
		return e.run(nvsim.NewEngine())
	}
	return e.run(engine[0])
}

// Result is an experiment's output: its data table(s) and optional scatter
// views for the dashboard.
type Result struct {
	Tables   []*viz.Table
	Scatters []*viz.Scatter
}

// table wraps a single table into a Result.
func table(t *viz.Table) *Result { return &Result{Tables: []*viz.Table{t}} }

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("exp: unknown experiment %q (try one of %v)", id, IDs())
	}
	return e, nil
}

// IDs lists registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// All returns every experiment in ID order.
func All() []Experiment {
	var out []Experiment
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}
