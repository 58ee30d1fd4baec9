// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -id table3            # dataset statistics (Table III)
//	experiments -id table4            # overall comparison, public datasets
//	experiments -id table5            # overall comparison, ISP datasets
//	experiments -id fig4a|fig4b|fig4c # hyper-parameter sensitivity
//	experiments -id fig5              # ablations (LEI, SUFE, transfer)
//	experiments -id fig6              # cross-group transfer study
//	experiments -id deploy            # §VI deployment workflow
//	experiments -id case              # Fig. 8 case study
//	experiments -id all               # everything, in paper order
//
// Add -scale smoke|cpu|paper to pick the experiment size (default cpu),
// and -targets to restrict sweeps to specific systems.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"logsynergy/internal/core"
	"logsynergy/internal/experiments"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	var usage usageError
	if errors.As(err, &usage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError is a bad invocation (exit 2), as opposed to a failure (exit 1).
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// ids lists every experiment in paper order; -id all runs them in turn.
var ids = []string{"table3", "table4", "table5", "fig4a", "fig4b", "fig4c", "fig5", "fig6", "deploy", "labelnoise", "case"}

var scales = map[string]func() experiments.Scale{
	"smoke": experiments.SmokeScale,
	"bench": experiments.BenchScale,
	"cpu":   experiments.CPUScale,
	"paper": experiments.PaperScale,
}

// newLab builds the lab the experiments share; tests replace it to see
// that a usage error returns before any corpus is built.
var newLab = experiments.NewLab

// run is the whole command. Every flag is checked before the lab is
// built, so a typo fails at once rather than after corpus generation.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.String("id", "all", "experiment id ("+strings.Join(ids, ",")+",all)")
	scaleName := fs.String("scale", "cpu", "experiment scale: smoke, bench, cpu, paper")
	targetsFlag := fs.String("targets", "", "comma-separated targets for sweeps (default: all six)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	scale, ok := scales[*scaleName]
	if !ok {
		return usageError{fmt.Errorf("unknown scale %q", *scaleName)}
	}
	todo := ids
	if *id != "all" {
		if !slices.Contains(ids, *id) {
			return usageError{fmt.Errorf("unknown id %q", *id)}
		}
		todo = []string{*id}
	}
	systems := append(experiments.PublicNames(), experiments.ISPNames()...)
	targets := systems
	if *targetsFlag != "" {
		targets = strings.Split(*targetsFlag, ",")
		for _, t := range targets {
			if !slices.Contains(systems, t) {
				return usageError{fmt.Errorf("unknown target %q (one of %s)", t, strings.Join(systems, ", "))}
			}
		}
	}

	lab := newLab(scale())
	cfg := core.DefaultConfig()
	for _, name := range todo {
		var out string
		switch name {
		case "table3":
			out = experiments.RenderTable3(lab.Table3())
		case "table4":
			out = lab.Table4(cfg).Render()
		case "table5":
			out = lab.Table5(cfg).Render()
		case "fig4a":
			out = lab.Fig4a(cfg, targets).Render()
		case "fig4b":
			out = lab.Fig4b(cfg, targets).Render()
		case "fig4c":
			out = lab.Fig4c(cfg, targets).Render()
		case "fig5":
			out = lab.Fig5(cfg, targets).Render()
		case "fig6":
			out = lab.Fig6(cfg).Render()
		case "deploy":
			out = lab.Deployment(cfg, "SystemB", 20000).Render()
		case "labelnoise":
			out = lab.LabelNoise(cfg, "Thunderbird", []float64{0, 0.05, 0.1, 0.2, 0.4}).Render()
		case "case":
			out = lab.CaseStudy().Render()
		}
		fmt.Fprintln(stdout, out)
	}
	return nil
}
