// Command loggen generates synthetic log corpora for the six paper
// datasets and writes them as raw log files with a sidecar label file.
//
// Usage:
//
//	loggen -system BGL -lines 100000 -seed 7 -out bgl.log [-labels bgl.labels]
//	loggen -list
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"logsynergy/internal/logdata"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "loggen: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command. Every write, flush and close error is
// returned, so a full disk cannot leave a truncated corpus behind an exit
// status of 0.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loggen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	system := fs.String("system", "BGL", "system to generate (see -list)")
	lines := fs.Int("lines", 10000, "number of log lines")
	seed := fs.Int64("seed", 7, "generator seed")
	out := fs.String("out", "", "output log file (default stdout)")
	labels := fs.String("labels", "", "optional sidecar file with one label per line (0/1)")
	list := fs.Bool("list", false, "list available systems and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	systems := logdata.Systems()
	if *list {
		names := make([]string, 0, len(systems))
		for n := range systems {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := systems[n]
			fmt.Fprintf(stdout, "%-12s paper-lines=%d anomalies=%d concepts\n", n, s.Lines, len(s.Anomalies))
		}
		return nil
	}

	spec, ok := systems[*system]
	if !ok {
		return fmt.Errorf("unknown system %q (try -list)", *system)
	}
	corpus := logdata.Generate(spec, *seed, *lines)

	w, closeW, err := create(*out, stdout)
	if err != nil {
		return err
	}
	var lw *bufio.Writer
	closeL := func() error { return nil }
	if *labels != "" {
		if lw, closeL, err = create(*labels, nil); err != nil {
			closeW()
			return err
		}
	}
	for _, line := range corpus.Lines {
		fmt.Fprintf(w, "%s %s\n", line.Timestamp.Format("2006-01-02T15:04:05.000"), line.Message)
		if lw != nil {
			if line.Anomalous {
				fmt.Fprintln(lw, 1)
			} else {
				fmt.Fprintln(lw, 0)
			}
		}
	}
	// bufio.Writer keeps its first write error, so the flush in each
	// close reports any failed write of the loop too.
	if err := errors.Join(closeW(), closeL()); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "loggen: wrote %d lines (%d anomalous) for %s\n",
		len(corpus.Lines), corpus.NumAnomalousLines(), spec.Name)
	return nil
}

// create returns a buffered writer on the file at path (on stdout when
// path is empty) and the func that flushes it and closes the file.
func create(path string, stdout io.Writer) (*bufio.Writer, func() error, error) {
	if path == "" {
		w := bufio.NewWriter(stdout)
		return w, w.Flush, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	return w, func() error { return errors.Join(w.Flush(), f.Close()) }, nil
}
