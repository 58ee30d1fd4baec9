// Command logsynergy is the end-to-end CLI: train a cross-system anomaly
// detection model, run online detection over a log stream, or inspect LEI
// interpretations.
//
// Train on synthetic corpora (names from `loggen -list`) or on raw log
// files with 0/1 label sidecars:
//
//	logsynergy train -target Thunderbird -sources BGL,Spirit -out model.json
//	logsynergy train -target-log new.log -target-labels new.lab \
//	    -source-log a.log -source-labels a.lab -out model.json
//
// Detect over a log file (or stdin) with a trained bundle:
//
//	logsynergy detect -model model.json -log stream.log
//
// Interpret templates with the LEI stage:
//
//	logsynergy interpret -hint "an HPC system" < templates.txt
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/metrics"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
	"logsynergy/internal/window"
)

func main() {
	if err := applyThreadsEnv(os.Getenv("LOGSYNERGY_THREADS")); err != nil {
		fmt.Fprintf(os.Stderr, "logsynergy: %v\n", err)
		os.Exit(2)
	}
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = runTrain(os.Args[2:])
	case "detect":
		err = runDetect(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "rebalance":
		err = runRebalance(os.Args[2:])
	case "route":
		err = runRoute(os.Args[2:])
	case "interpret":
		err = runInterpret(os.Args[2:])
	case "eval":
		err = runEval(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "logsynergy: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: logsynergy <train|detect|serve|route|rebalance|eval|interpret> [flags]")
}

// applyThreadsEnv configures the tensor worker pool from the
// LOGSYNERGY_THREADS environment variable ("" = leave the GOMAXPROCS
// default; any positive integer pins the worker count; 1 disables
// parallel kernels entirely).
func applyThreadsEnv(val string) error {
	val = strings.TrimSpace(val)
	if val == "" {
		return nil
	}
	n, err := strconv.Atoi(val)
	if err != nil || n < 1 {
		return fmt.Errorf("LOGSYNERGY_THREADS=%q: want a positive integer", val)
	}
	tensor.SetParallelism(n)
	return nil
}

// runEval scores a labeled log file with a trained bundle and reports the
// paper's precision/recall/F1 at threshold 0.5.
func runEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model bundle")
	logPath := fs.String("log", "", "labeled log file")
	labelPath := fs.String("labels", "", "label sidecar (0/1 per line)")
	fs.Parse(args)
	if *logPath == "" || *labelPath == "" {
		return fmt.Errorf("eval requires -log and -labels")
	}

	det, err := loadModel(*modelPath)
	if err != nil {
		return err
	}

	seqs, err := loadLabeledFile(*logPath, *labelPath, "eval")
	if err != nil {
		return err
	}
	// Build the evaluation set against the bundle's embedding space: new
	// templates are interpreted and embedded exactly as online detection
	// would.
	interp := lei.NewSimLLM(lei.Config{})
	embedder := embed.New(det.Table.Dim)
	table := repr.BuildEventTable(seqs, interp, embedder)
	d := repr.BuildDataset(seqs, table)
	scores := det.Model.Score(d.X, 256)
	res := metrics.Evaluate(scores, d.Labels, core.Threshold)
	fmt.Printf("sequences=%d anomalous=%d\n", d.Len(), countTrue(d.Labels))
	fmt.Printf("precision=%.2f%% recall=%.2f%% f1=%.2f%%\n",
		100*res.Precision, 100*res.Recall, 100*res.F1)
	return nil
}

func countTrue(labels []bool) int {
	n := 0
	for _, l := range labels {
		if l {
			n++
		}
	}
	return n
}

// loadLabeledFile parses a raw log file plus its 0/1 label sidecar into
// windowed sequences.
func loadLabeledFile(logPath, labelPath, name string) (*logdata.Sequences, error) {
	logs, err := readLines(logPath)
	if err != nil {
		return nil, err
	}
	labelLines, err := readLines(labelPath)
	if err != nil {
		return nil, err
	}
	if len(labelLines) != len(logs) {
		return nil, fmt.Errorf("%s: %d labels for %d log lines", labelPath, len(labelLines), len(logs))
	}
	parser := drain.NewDefault()
	parsed := &logdata.Parsed{System: name}
	for i, line := range logs {
		m := parser.Parse(line)
		parsed.EventIDs = append(parsed.EventIDs, m.EventID)
		parsed.Labels = append(parsed.Labels, strings.TrimSpace(labelLines[i]) == "1")
		parsed.Concepts = append(parsed.Concepts, "")
	}
	for _, ev := range parser.Events() {
		parsed.Templates = append(parsed.Templates, ev.Template)
	}
	return parsed.Windows(window.Default()), nil
}

// loadModel reads a trained bundle written by `train`.
func loadModel(path string) (*core.Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadBundle(f)
}

// readLog reads the log at path, or stdin when path is empty.
func readLog(path string) ([]string, error) {
	if path == "" {
		return scanLines(os.Stdin)
	}
	return readLines(path)
}

// readLines reads the file at path line by line.
func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scanLines(f)
}

// scanLines reads r to the end as lines of up to 1 MiB each.
func scanLines(r io.Reader) ([]string, error) {
	var out []string
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1<<20), 1<<20)
	for s.Scan() {
		out = append(out, s.Text())
	}
	return out, s.Err()
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	target := fs.String("target", "", "synthetic target system name")
	sources := fs.String("sources", "", "comma-separated synthetic source system names")
	targetLog := fs.String("target-log", "", "raw target log file")
	targetLabels := fs.String("target-labels", "", "target label sidecar (0/1 per line)")
	sourceLogs := fs.String("source-log", "", "comma-separated raw source log files")
	sourceLabels := fs.String("source-labels", "", "comma-separated source label sidecars")
	out := fs.String("out", "model.json", "output model bundle")
	ns := fs.Int("ns", 4000, "training sequences per source")
	nt := fs.Int("nt", 400, "training sequences from the target")
	embedDim := fs.Int("embed-dim", 32, "event embedding dimension")
	epochs := fs.Int("epochs", 8, "training epochs")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	fs.Parse(args)

	interp := lei.NewSimLLM(lei.Config{})
	embedder := embed.New(*embedDim)

	var sourceSeqs []*logdata.Sequences
	var targetSeqs *logdata.Sequences

	switch {
	case *target != "" && *sources != "":
		systems := logdata.Systems()
		for _, name := range strings.Split(*sources, ",") {
			spec, ok := systems[name]
			if !ok {
				return fmt.Errorf("unknown source system %q", name)
			}
			lines := (*ns-1)*5 + 11
			sourceSeqs = append(sourceSeqs, logdata.Build(spec, 7, float64(lines)/float64(spec.Lines), window.Default()).Head(*ns))
		}
		spec, ok := systems[*target]
		if !ok {
			return fmt.Errorf("unknown target system %q", *target)
		}
		lines := (*nt-1)*5 + 11
		targetSeqs = logdata.Build(spec, 11, float64(lines)/float64(spec.Lines), window.Default()).Head(*nt)
	case *targetLog != "" && *targetLabels != "":
		var err error
		targetSeqs, err = loadLabeledFile(*targetLog, *targetLabels, "target")
		if err != nil {
			return err
		}
		targetSeqs = targetSeqs.Head(*nt)
		logs := strings.Split(*sourceLogs, ",")
		labs := strings.Split(*sourceLabels, ",")
		if *sourceLogs == "" || len(logs) != len(labs) {
			return fmt.Errorf("need matching -source-log and -source-labels lists")
		}
		for i := range logs {
			s, err := loadLabeledFile(logs[i], labs[i], fmt.Sprintf("source%d", i))
			if err != nil {
				return err
			}
			sourceSeqs = append(sourceSeqs, s.Head(*ns))
		}
	default:
		return fmt.Errorf("specify either -target/-sources or -target-log/-target-labels")
	}

	cfg := core.DefaultConfig()
	cfg.EmbedDim = *embedDim
	cfg.Epochs = *epochs
	cfg.Quiet = *quiet

	var sourceDatasets []*repr.Dataset
	for _, s := range sourceSeqs {
		sourceDatasets = append(sourceDatasets, repr.Build(s, interp, embedder))
	}
	table := repr.BuildEventTable(targetSeqs, interp, embedder)
	train := repr.BuildDataset(targetSeqs, table)

	if !*quiet {
		fmt.Printf("training on %d sources (%d seqs each) + target %s (%d seqs, %.2f%% anomalous)\n",
			len(sourceDatasets), *ns, targetSeqs.System, train.Len(), 100*train.PositiveRate())
	}
	model := core.TrainModel(cfg, sourceDatasets, train)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := core.SaveBundle(f, model, table); err != nil {
		return err
	}
	if !*quiet {
		fmt.Printf("model bundle written to %s\n", *out)
	}
	return nil
}

func runDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "trained model bundle")
	logPath := fs.String("log", "", "log file to stream (default stdin)")
	hint := fs.String("hint", "a software system", "LEI system hint for new templates")
	statsOnly := fs.Bool("stats", false, "print only pipeline statistics")
	fs.Parse(args)

	det, err := loadModel(*modelPath)
	if err != nil {
		return err
	}

	lines, err := readLog(*logPath)
	if err != nil {
		return err
	}
	p := pipeline.New(pipeline.DefaultConfig(*hint), pipeline.SeededParser(det), det,
		lei.NewSimLLM(lei.Config{}), embed.New(det.Table.Dim), &printingSink{quiet: *statsOnly})
	stats := p.Run(context.Background(), pipeline.NewSliceSource(lines))
	fmt.Printf("lines=%d sequences=%d anomalies=%d pattern-hits=%d new-events=%d\n",
		stats.LinesCollected, stats.SequencesFormed, stats.Anomalies, stats.PatternHits, stats.NewEvents)
	return nil
}

// printingSink writes each report to stdout.
type printingSink struct{ quiet bool }

func (s *printingSink) Notify(r *core.Report) {
	if !s.quiet {
		fmt.Print(r.String())
	}
}

func runInterpret(args []string) error {
	fs := flag.NewFlagSet("interpret", flag.ExitOnError)
	hint := fs.String("hint", "a software system", "system description for the prompt")
	halluc := fs.Float64("hallucination", 0, "simulated hallucination rate")
	review := fs.Bool("review", true, "run the operator format review with regeneration")
	fs.Parse(args)

	m := lei.NewSimLLM(lei.Config{HallucinationRate: *halluc, Seed: 1})
	r := lei.NewReviewer()
	s := bufio.NewScanner(os.Stdin)
	s.Buffer(make([]byte, 1<<20), 1<<20)
	for s.Scan() {
		tpl := s.Text()
		if strings.TrimSpace(tpl) == "" {
			continue
		}
		if *review {
			oc := r.Process(m, *hint, tpl)
			fmt.Printf("%s\n  -> %s (recognized=%v attempts=%d)\n", tpl, oc.Final.Text, oc.Final.Recognized, oc.Attempts)
		} else {
			in := m.Interpret(*hint, tpl)
			fmt.Printf("%s\n  -> %s (recognized=%v hallucinated=%v)\n", tpl, in.Text, in.Recognized, in.Hallucinated)
		}
	}
	return s.Err()
}
