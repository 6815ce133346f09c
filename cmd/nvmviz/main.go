// Command nvmviz renders NVMExplorer-Go experiments into a self-contained
// HTML+SVG dashboard — the static stand-in for the paper's interactive
// Tableau visualization (Section II-C).
//
// Usage:
//
//	nvmviz [-out dashboard.html] [experiment ids...]
//
// With no ids, every registered experiment is rendered.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/nvsim"
	"repro/internal/viz"
)

func main() {
	out := flag.String("out", "dashboard.html", "output HTML file")
	flag.Parse()

	ids := flag.Args()
	if len(ids) == 0 {
		ids = exp.IDs()
	}
	dash := &viz.Dashboard{Title: "NVMExplorer-Go dashboard"}
	eng := nvsim.NewEngine() // experiments share the arrays they have in common
	for _, id := range ids {
		e, err := exp.Get(id)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "running %s — %s\n", e.ID, e.Title)
		res, err := e.Run(eng)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		dash.Scatters = append(dash.Scatters, res.Scatters...)
		dash.Tables = append(dash.Tables, res.Tables...)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := dash.WriteHTML(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvmviz:", err)
	os.Exit(1)
}
