// Command experiments regenerates the paper's tables and figures, and the
// extra ablations, with the settings of the run EXPERIMENTS.md records.
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
//	experiments -id labelnoise        # §IV-E1 label-quality threat
//	experiments -id case              # Fig. 8 case study
//	experiments -id omega|da|embeddim # extra ablations (not in the paper)
//	experiments -id all               # everything, in that order
//
// -scale smoke|bench|cpu|paper picks the corpus sizes (default bench, the
// recorded run's); it changes nothing else. -targets replaces the target
// list of the Fig. 4 sweeps and Fig. 5.
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

// experiment is one -id and the settings of the recorded run.
type experiment struct {
	id string
	// epochs replaces core.DefaultConfig's training epochs; 0 keeps them.
	epochs int
	// targets is the default target list; -targets replaces it.
	targets []string
	// target, lines, rates and dims are the fixed inputs of the
	// single-target experiments.
	target string
	lines  int
	rates  []float64
	dims   []int
}

var (
	systems = append(experiments.PublicNames(), experiments.ISPNames()...)
	// sweepTargets takes one system per anomaly-rate regime (high, medium,
	// low), which keeps the Fig. 4 sweeps' run count down.
	sweepTargets = []string{"BGL", "Thunderbird", "SystemC"}
)

// experimentList holds every id in paper order, then the extra
// ablations; -id all runs them in turn.
var experimentList = []experiment{
	{id: "table3"},
	{id: "table4"},
	{id: "table5"},
	{id: "fig4a", epochs: 6, targets: sweepTargets},
	{id: "fig4b", epochs: 6, targets: sweepTargets},
	{id: "fig4c", epochs: 6, targets: sweepTargets},
	{id: "fig5", epochs: 8, targets: systems},
	{id: "fig6"},
	{id: "deploy", target: "SystemB", lines: 20000},
	{id: "labelnoise", epochs: 6, target: "Thunderbird", rates: []float64{0, 0.05, 0.1, 0.2, 0.4}},
	{id: "case"},
	{id: "omega", target: "Thunderbird"},
	{id: "da", target: "Thunderbird"},
	{id: "embeddim", target: "Thunderbird", dims: []int{16, 32, 64}},
}

// config is the training configuration the experiment runs at.
func (e experiment) config() core.Config {
	cfg := core.DefaultConfig()
	if e.epochs > 0 {
		cfg.Epochs = e.epochs
	}
	return cfg
}

// regenerate runs one experiment on the lab and returns its rendering.
func regenerate(l *experiments.Lab, e experiment) string {
	cfg := e.config()
	switch e.id {
	case "table3":
		return experiments.RenderTable3(l.Table3())
	case "table4":
		return l.Table4(cfg).Render()
	case "table5":
		return l.Table5(cfg).Render()
	case "fig4a":
		return l.Fig4a(cfg, e.targets).Render()
	case "fig4b":
		return l.Fig4b(cfg, e.targets).Render()
	case "fig4c":
		return l.Fig4c(cfg, e.targets).Render()
	case "fig5":
		return l.Fig5(cfg, e.targets).Render()
	case "fig6":
		return l.Fig6(cfg).Render()
	case "deploy":
		return l.Deployment(cfg, e.target, e.lines).Render()
	case "labelnoise":
		return l.LabelNoise(cfg, e.target, e.rates).Render()
	case "case":
		return l.CaseStudy().Render()
	case "omega":
		return l.OmegaAblation(cfg, e.target).Render()
	case "da":
		return l.DAAblation(cfg, e.target).Render()
	case "embeddim":
		return l.EmbedDimAblation(cfg, e.target, e.dims).Render()
	}
	panic("experiments: no runner for id " + e.id)
}

var scales = map[string]func() experiments.Scale{
	"smoke": experiments.SmokeScale,
	"bench": experiments.BenchScale,
	"cpu":   experiments.CPUScale,
	"paper": experiments.PaperScale,
}

// newLab builds the lab the experiments share, and render runs one
// experiment on it; tests replace them to see that a usage error returns
// before any corpus is built, and which experiments a run selects.
var (
	newLab = experiments.NewLab
	render = regenerate
)

// run is the whole command. Every flag is checked before the lab is
// built, so a typo fails at once rather than after corpus generation.
func run(args []string, stdout, stderr io.Writer) error {
	ids := make([]string, len(experimentList))
	for i, e := range experimentList {
		ids[i] = e.id
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.String("id", "all", "experiment id ("+strings.Join(ids, ",")+",all)")
	scaleName := fs.String("scale", "bench", "corpus scale: smoke, bench, cpu, paper")
	targetsFlag := fs.String("targets", "", "comma-separated targets for fig4a-c and fig5 (default: each id's recorded list)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	scale, ok := scales[*scaleName]
	if !ok {
		return usageError{fmt.Errorf("unknown scale %q", *scaleName)}
	}
	todo := experimentList
	if *id != "all" {
		i := slices.Index(ids, *id)
		if i < 0 {
			return usageError{fmt.Errorf("unknown id %q", *id)}
		}
		todo = todo[i : i+1]
	}
	var targets []string
	if *targetsFlag != "" {
		targets = strings.Split(*targetsFlag, ",")
		for _, t := range targets {
			if !slices.Contains(systems, t) {
				return usageError{fmt.Errorf("unknown target %q (one of %s)", t, strings.Join(systems, ", "))}
			}
		}
	}

	lab := newLab(scale())
	for _, e := range todo {
		if targets != nil && e.targets != nil {
			e.targets = targets
		}
		fmt.Fprintln(stdout, render(lab, e))
	}
	return nil
}
