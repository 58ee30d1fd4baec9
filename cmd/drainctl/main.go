// Command drainctl runs the Drain parser over a log file: discover
// templates, show per-template counts, extract parameters, and persist or
// reuse parser state across runs.
//
// Usage:
//
//	drainctl -log app.log                          # template summary
//	drainctl -log app.log -show-params -limit 5    # with parameter samples
//	drainctl -log app.log -save state.json         # persist parser state
//	drainctl -log more.log -load state.json        # continue a state
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"logsynergy/internal/drain"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "drainctl: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command; the log is read from stdin unless -log names
// a file.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("drainctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	logPath := fs.String("log", "", "log file (default stdin)")
	savePath := fs.String("save", "", "save parser state to this file")
	loadPath := fs.String("load", "", "load parser state from this file")
	showParams := fs.Bool("show-params", false, "show one parameter sample per template")
	limit := fs.Int("limit", 0, "show only the top-N templates by count")
	simTh := fs.Float64("sim", 0.4, "Drain similarity threshold")
	depth := fs.Int("depth", 4, "Drain tree depth")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := drain.DefaultConfig()
	cfg.SimThreshold = *simTh
	cfg.Depth = *depth

	parser := drain.New(cfg)
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		parser, err = drain.LoadState(f, cfg)
		f.Close()
		if err != nil {
			return err
		}
	}

	in := io.Reader(os.Stdin)
	if *logPath != "" {
		f, err := os.Open(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	paramSample := make(map[int][]string)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		m := parser.Parse(sc.Text())
		lines++
		if *showParams {
			if _, ok := paramSample[m.EventID]; !ok {
				paramSample[m.EventID] = m.Params
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	events := parser.Events()
	sort.Slice(events, func(i, j int) bool { return events[i].Count > events[j].Count })
	shown := len(events)
	if *limit > 0 && *limit < shown {
		shown = *limit
	}
	fmt.Fprintf(stdout, "%d lines, %d templates\n", lines, len(events))
	for _, ev := range events[:shown] {
		fmt.Fprintf(stdout, "%6d  E%-4d %s\n", ev.Count, ev.ID, ev.Template)
		if *showParams {
			if ps := paramSample[ev.ID]; len(ps) > 0 {
				fmt.Fprintf(stdout, "              params: %v\n", ps)
			}
		}
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := errors.Join(parser.SaveState(f), f.Close()); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "state saved to %s\n", *savePath)
	}
	return nil
}
