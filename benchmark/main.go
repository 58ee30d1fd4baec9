// Command benchmark is the repo's benchmark: it generates seeded workloads,
// drives the real ingest→verdict serving path in-process exactly as
// `logsynergy serve -shards 2 -broker-dir` assembles it, runs the
// transfer-training path, prints every metric by name with its unit,
// checks the outputs, and records the machine beside the numbers.
//
//	bash benchmark/run.sh                                   # all four workloads
//	bash benchmark/run.sh --workload novel --seed 7 --seconds 18 --trace 0
//	bash benchmark/run.sh --workload steady --trace 1        # per-layer metrics + trace.json
//	bash benchmark/run.sh -sets 2                            # repeat sets for -compare
//	bash benchmark/run.sh -compare A.json B.json
//
// See README.md for the metrics, the workloads and what each layer metric
// is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloadNames is the contract: BENCHMARK.json lists the same four.
var workloadNames = []string{"novel", "steady", "onboard", "train"}

// machine records where the numbers were measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GitSHA     string `json:"git_sha"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version(), GitSHA: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// run.sh passes the checkout's commit; a checkout that is not a git
	// repository has none.
	if sha := os.Getenv("BENCH_GIT_SHA"); sha != "" {
		m.GitSHA = sha
	}
	return m
}

// resultsFile is what one invocation writes next to its printed output.
type resultsFile struct {
	Machine machine               `json:"machine"`
	Seed    int64                 `json:"seed"`
	Seconds int                   `json:"seconds"`
	Traced  bool                  `json:"traced"`
	Smoke   bool                  `json:"smoke"`
	Runs    map[string]*runResult `json:"runs"`
	Claim   *string               `json:"claim"`
}

func main() {
	if spec := os.Getenv(loadgenEnv); spec != "" {
		if err := loadgenMain(spec); err != nil {
			fatal(err)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload to run: novel, steady, onboard or train (default: all four)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", defaultSeconds, "how long one workload's timed phases run on the seed commit")
		traced   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and trace.json instead of end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "tiny sizes: checks on, numbers meaningless")
		workdir  = flag.String("workdir", defaultWorkdir(), "directory for temporary WALs, results and trace.json")
		out      = flag.String("out", "", "results file (default <workdir>/results-<workload>-seed<seed>-trace<0|1>.json)")
		sets     = flag.Int("sets", 0, "run this many repeat sets of every workload and write one set file each, for -compare")
		runs     = flag.Int("runs", 5, "runs per workload in one -sets set")
		compare  = flag.Bool("compare", false, "compare two set files: benchmark -compare A.json B.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two set files"))
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case *sets > 0:
		if err := runSets(*sets, *runs, *seed, *seconds, *workdir); err != nil {
			fatal(err)
		}
		return
	}

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	label := "all"
	if len(names) == 1 {
		label = names[0]
	}
	file := resultsFile{Machine: thisMachine(), Seed: *seed, Seconds: *seconds, Traced: *traced != 0, Smoke: *smoke, Runs: make(map[string]*runResult)}
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d cpu=%q go=%s git=%s\n",
		file.Machine.NProc, file.Machine.GOMAXPROCS, file.Machine.CPU, file.Machine.Go, file.Machine.GitSHA)
	var last *runResult
	allCorrect := true
	for _, name := range names {
		res, err := runWorkload(runOpts{
			workload: name, seed: *seed, seconds: *seconds, traced: *traced != 0, smoke: *smoke,
			workdir:   *workdir,
			tracePath: filepath.Join(*workdir, "trace-"+name+".json"),
		})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		printRun(name, res)
		file.Runs[name] = res
		last = res
		allCorrect = allCorrect && res.Correct
	}
	path := *out
	if path == "" {
		path = filepath.Join(*workdir, fmt.Sprintf("results-%s-seed%d-trace%d.json", label, *seed, *traced))
	}
	if err := writeJSON(path, file); err != nil {
		fatal(err)
	}
	fmt.Printf("results: %s\n", path)
	summary, _ := json.Marshal(struct {
		Workloads []string `json:"workloads"`
		Correct   bool     `json:"correct"`
		Results   string   `json:"results"`
		Claim     *string  `json:"claim"`
	}{names, allCorrect, path, nil})
	fmt.Printf("summary: %s\n", summary)

	// The last line is the benchmark contract's result object.
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	fmt.Println(string(line))
	if !allCorrect {
		os.Exit(1)
	}
}

// printRun prints one workload's metrics by name with their units, its
// sample counts, its failure counts and any failed check.
func printRun(name string, res *runResult) {
	fmt.Printf("\n== %s ==\n", name)
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Printf("  %-40s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range sortedKeys(res.Ungated) {
		fmt.Printf("  %-40s %16.4f %s (not gated)\n", n, res.Ungated[n].Value, res.Ungated[n].Unit)
	}
	for _, k := range sortedKeys(res.Series) {
		fmt.Printf("  %s, each measurement: %.4g\n", k, res.Series[k])
	}
	if len(res.Samples) > 0 {
		fmt.Print("  samples:")
		for _, k := range sortedKeys(res.Samples) {
			fmt.Printf(" %s=%d", k, res.Samples[k])
		}
		fmt.Println()
	}
	if len(res.Facts) > 0 {
		fmt.Print("  facts:")
		for _, k := range sortedKeys(res.Facts) {
			fmt.Printf(" %s=%.4g", k, res.Facts[k])
		}
		fmt.Println()
	}
	if len(res.Layers) > 0 {
		fmt.Println("  self time by span name:")
		keys := sortedKeys(res.Layers)
		sort.SliceStable(keys, func(i, j int) bool { return res.Layers[keys[i]].Self > res.Layers[keys[j]].Self })
		for _, k := range keys {
			lt := res.Layers[k]
			fmt.Printf("    %-28s self %10.3f ms  total %10.3f ms  spans %6d  calls %8d\n",
				k, float64(lt.Self)/1e6, float64(lt.Total)/1e6, lt.Spans, lt.Calls)
		}
	}
	fmt.Printf("  ops_attempted=%d ops_failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
