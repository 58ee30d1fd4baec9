package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

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
