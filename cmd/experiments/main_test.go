package main

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"logsynergy/internal/core"
	"logsynergy/internal/experiments"
)

func TestTable3Smoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "smoke", "-id", "table3"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "Table III: dataset statistics") {
		t.Fatalf("output does not open with Table III:\n%s", out)
	}
	for _, name := range append(experiments.PublicNames(), experiments.ISPNames()...) {
		if !strings.Contains(out, "\n"+name+" ") {
			t.Errorf("Table III has no row for %s:\n%s", name, out)
		}
	}
}

// TestUsageErrorsBuildNoLab: an unknown scale, id or target is a usage
// error (exit 2) decided before the lab exists — an unknown target used to
// panic in Lab.Sequences after the other corpora were built.
func TestUsageErrorsBuildNoLab(t *testing.T) {
	built := false
	newLab = func(s experiments.Scale) *experiments.Lab {
		built = true
		return experiments.NewLab(s)
	}
	defer func() { newLab = experiments.NewLab }()

	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "huge", "-id", "table3"}, `unknown scale "huge"`},
		{[]string{"-scale", "smoke", "-id", "fig9"}, `unknown id "fig9"`},
		{[]string{"-scale", "smoke", "-id", "fig5", "-targets", "Foo"}, `unknown target "Foo"`},
		{[]string{"-scale", "smoke", "-id", "fig4a", "-targets", "BGL,"}, `unknown target ""`},
		{[]string{"-bogus"}, "-bogus"},
	} {
		err := run(c.args, &bytes.Buffer{}, &bytes.Buffer{})
		var usage usageError
		if !errors.As(err, &usage) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("experiments %v: %v, want a usage error containing %q", c.args, err, c.want)
		}
		if built {
			t.Fatalf("experiments %v built a lab before refusing", c.args)
		}
	}
}

// TestRecordedSettings pins every id's settings to those of the run
// EXPERIMENTS.md records: the default configuration except for the
// sweeps' and Fig. 5's epochs, three sweep targets, all six systems for
// Fig. 5, and the fixed inputs of the single-target experiments.
func TestRecordedSettings(t *testing.T) {
	all := []string{"BGL", "Spirit", "Thunderbird", "SystemA", "SystemB", "SystemC"}
	sweep := []string{"BGL", "Thunderbird", "SystemC"}
	for _, c := range []struct {
		id      string
		epochs  int
		targets []string
		target  string
		lines   int
		rates   []float64
		dims    []int
	}{
		{id: "table3", epochs: 10},
		{id: "table4", epochs: 10},
		{id: "table5", epochs: 10},
		{id: "fig4a", epochs: 6, targets: sweep},
		{id: "fig4b", epochs: 6, targets: sweep},
		{id: "fig4c", epochs: 6, targets: sweep},
		{id: "fig5", epochs: 8, targets: all},
		{id: "fig6", epochs: 10},
		{id: "deploy", epochs: 10, target: "SystemB", lines: 20000},
		{id: "labelnoise", epochs: 6, target: "Thunderbird", rates: []float64{0, 0.05, 0.1, 0.2, 0.4}},
		{id: "case", epochs: 10},
		{id: "omega", epochs: 10, target: "Thunderbird"},
		{id: "da", epochs: 10, target: "Thunderbird"},
		{id: "embeddim", epochs: 10, target: "Thunderbird", dims: []int{16, 32, 64}},
	} {
		i := slices.IndexFunc(experimentList, func(e experiment) bool { return e.id == c.id })
		if i < 0 {
			t.Errorf("no experiment %q", c.id)
			continue
		}
		e := experimentList[i]
		want := core.DefaultConfig()
		want.Epochs = c.epochs
		if got := e.config(); got != want {
			t.Errorf("%s: config %+v, want %+v", c.id, got, want)
		}
		if !slices.Equal(e.targets, c.targets) || e.target != c.target || e.lines != c.lines ||
			!slices.Equal(e.rates, c.rates) || !slices.Equal(e.dims, c.dims) {
			t.Errorf("%s: settings %+v, want %+v", c.id, e, c)
		}
	}
}

// stubRuns replaces the lab and the experiments with recorders: it returns
// the scale every lab was built at and the experiments run, in order.
func stubRuns(t *testing.T) (scales *[]string, runs *[]experiment) {
	scales, runs = new([]string), new([]experiment)
	newLab = func(s experiments.Scale) *experiments.Lab {
		*scales = append(*scales, s.Name)
		return nil
	}
	render = func(_ *experiments.Lab, e experiment) string {
		*runs = append(*runs, e)
		return e.id
	}
	t.Cleanup(func() { newLab, render = experiments.NewLab, regenerate })
	return scales, runs
}

// TestAllRunsEveryIDInOrder: -id all runs the paper's experiments in paper
// order, then the three extra ablations, on one lab at the bench scale.
func TestAllRunsEveryIDInOrder(t *testing.T) {
	scales, runs := stubRuns(t)
	var stdout bytes.Buffer
	if err := run(nil, &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	want := []string{"table3", "table4", "table5", "fig4a", "fig4b", "fig4c", "fig5", "fig6",
		"deploy", "labelnoise", "case", "omega", "da", "embeddim"}
	var got []string
	for _, e := range *runs {
		got = append(got, e.id)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("-id all ran %v, want %v", got, want)
	}
	if out := stdout.String(); out != strings.Join(want, "\n")+"\n" {
		t.Fatalf("stdout %q", out)
	}
	if !slices.Equal(*scales, []string{experiments.BenchScale().Name}) {
		t.Fatalf("labs built at %v, want one at the bench scale", *scales)
	}
}

// TestTargetsReplaceOnlyTargetLists: -targets replaces the list of the
// ids that have one and leaves the fixed-target experiments alone.
func TestTargetsReplaceOnlyTargetLists(t *testing.T) {
	_, runs := stubRuns(t)
	for _, id := range []string{"fig4b", "fig5", "labelnoise", "deploy"} {
		if err := run([]string{"-scale", "smoke", "-id", id, "-targets", "Spirit,SystemA"}, &bytes.Buffer{}, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range *runs {
		hasList := e.id == "fig4b" || e.id == "fig5"
		if got := slices.Equal(e.targets, []string{"Spirit", "SystemA"}); got != hasList {
			t.Errorf("%s: targets %v after -targets Spirit,SystemA", e.id, e.targets)
		}
	}
	if (*runs)[2].target != "Thunderbird" || (*runs)[3].target != "SystemB" {
		t.Errorf("-targets moved a fixed target: %+v", *runs)
	}
}
