package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// setFile is one repeat set: every end-to-end metric's value from each run
// of each workload, all runs made by the same code on the same machine.
type setFile struct {
	Machine machine                         `json:"machine"`
	Seed    int64                           `json:"seed"`
	Seconds int                             `json:"seconds"`
	Values  map[string]map[string][]float64 `json:"values"` // workload → metric → one value per run
	Failed  map[string]int                  `json:"ops_failed"`
}

// runSets makes `sets` repeat sets of `runs` runs of every workload, each
// run a fresh process of this binary (as the benchmark's driver runs it),
// and writes <workdir>/set-<n>.json for -compare.
func runSets(sets, runs int, seed int64, seconds int, workdir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for s := 1; s <= sets; s++ {
		set := setFile{Machine: thisMachine(), Seed: seed, Seconds: seconds,
			Values: make(map[string]map[string][]float64), Failed: make(map[string]int)}
		for run := 1; run <= runs; run++ {
			// Workloads alternate inside a set so slow drift of the machine
			// spreads over all of them.
			for _, w := range workloadNames {
				res, err := runChild(self, w, seed, seconds, workdir)
				if err != nil {
					return fmt.Errorf("set %d run %d %s: %w", s, run, w, err)
				}
				if set.Values[w] == nil {
					set.Values[w] = make(map[string][]float64)
				}
				for name, v := range res.Metrics {
					set.Values[w][name] = append(set.Values[w][name], v.Value)
				}
				set.Failed[w] += res.Failed
				fmt.Printf("set %d run %d/%d %-8s correct=%v lines_per_s=%.0f train_seq_per_s=%.0f\n",
					s, run, runs, w, res.Correct, res.Metrics["lines_per_s"].Value, res.Metrics["train_seq_per_s"].Value)
			}
		}
		path := filepath.Join(workdir, "set-"+strconv.Itoa(s)+".json")
		if err := writeJSON(path, set); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// runChild runs one workload in a child process and decodes the result
// object on the last line of its output.
func runChild(self, workload string, seed int64, seconds int, workdir string) (*runResult, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "-workdir", workdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	text := strings.TrimSpace(string(out))
	last := text[strings.LastIndexByte(text, '\n')+1:]
	var res runResult
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
		return nil, fmt.Errorf("no result line (%v); process: %v", jerr, err)
	}
	return &res, nil
}

// compareSets prints, per workload and end-to-end metric, each set's
// median and quartiles, the spread inside each set (interquartile range
// over median), how far set B's median is from set A's, and the bound. It
// reports false when two sets disagree by more than a metric's bound, or
// when any run failed an operation.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s seed %d on %s (%s)\nB: %s seed %d on %s (%s)\n",
		pathA, a.Seed, a.Machine.CPU, a.Machine.GitSHA, pathB, b.Seed, b.Machine.CPU, b.Machine.GitSHA)
	fmt.Fprintf(w, "%-8s %-16s %5s | %12s %12s %12s %7s | %12s %12s %12s %7s | %8s %6s\n",
		"workload", "metric", "runs", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "B vs A", "bound")
	ok := true
	for _, wl := range workloadNames {
		for _, m := range endToEnd {
			va, vb := a.Values[wl][m.Name], b.Values[wl][m.Name]
			if len(va) < 2 || len(vb) < 2 {
				return false, fmt.Errorf("%s %s: a set needs at least two runs (have %d and %d)", wl, m.Name, len(va), len(vb))
			}
			ma, mb := median(va), median(vb)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			diff := (mb - ma) / ma // positive = B worse
			if m.Better == "higher" {
				diff = -diff
			}
			verdict := ""
			if math.Abs(diff) > m.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "%-8s %-16s %5d | %12.4f %12.4f %12.4f %6.1f%% | %12.4f %12.4f %12.4f %6.1f%% | %+7.1f%% %5.0f%%%s\n",
				wl, m.Name, len(va), qa1, ma, qa3, 100*(qa3-qa1)/ma, qb1, mb, qb3, 100*(qb3-qb1)/mb, 100*diff, 100*m.Bound, verdict)
		}
		if f := a.Failed[wl] + b.Failed[wl]; f > 0 {
			fmt.Fprintf(w, "%-8s ops_failed=%d\n", wl, f)
			ok = false
		}
	}
	if ok {
		fmt.Fprintln(w, "the two sets agree within every bound; ops_failed=0")
	} else {
		fmt.Fprintln(w, "the two sets DISAGREE (see above)")
	}
	return ok, nil
}

func readSet(path string) (setFile, error) {
	var set setFile
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}
