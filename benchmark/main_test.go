package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"logsynergy/benchmark/trace"
)

// The load generator is this binary started again; under `go test` that is
// the test binary, so it must know how to be one.
func TestMain(m *testing.M) {
	if spec := os.Getenv(loadgenEnv); spec != "" {
		if err := loadgenMain(spec); err != nil {
			fatal(err)
		}
		return
	}
	os.Exit(m.Run())
}

// Every workload runs at smoke size, untraced and traced, with the output
// checks on and no bound enforced: this is what keeps the harness
// compiling and correct against internal/... as those APIs change.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			tracePath := filepath.Join(dir, "trace.json")
			res, err := runWorkload(runOpts{workload: name, seed: 3, seconds: 1, traced: traced, smoke: true, workdir: dir, tracePath: tracePath})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", name, traced, m.Name, got, ok, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", name, m.Name, got.Value)
				}
			}
			if !traced {
				continue
			}
			data, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatalf("%s: the traced run wrote no trace: %v", name, err)
			}
			var f trace.File
			if err := json.Unmarshal(data, &f); err != nil {
				t.Fatalf("%s: trace.json: %v", name, err)
			}
			for _, span := range []string{"saturation-traced", "ingest.handler", "replay", "stage.parse", "drain.parse", "core.detector_score", "broker.append"} {
				if f.Layers[span].Spans == 0 {
					t.Errorf("%s: trace has no %s span", name, span)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "*-*")); len(left) != 0 {
				t.Errorf("%s: run left temporary directories behind: %v", name, left)
			}
		}
	}
}

// BENCHMARK.json and the spec tables must name the same workloads and
// metrics with the same units, directions and bounds.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the spec table:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the spec table")
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, want %d", b.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) || !reflect.DeepEqual(b.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		hasSetup = hasSetup || m == metricSpec{"setup_s", "s", "lower", m.Bound}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
}

func TestSizing(t *testing.T) {
	for _, w := range workloadNames {
		sz, err := sizeFor(w, defaultSeconds, false)
		if err != nil {
			t.Fatal(err)
		}
		if sz.timed%postLines != 0 || sz.timed < 5000 || sz.setups < 3 || sz.rounds < 7 {
			t.Errorf("%s: sizing %+v", w, sz)
		}
	}
	if _, err := sizeFor("nope", defaultSeconds, false); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("q1=%v median=%v q3=%v, want 2.75 5.5 8.25", q1, median(v), q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("q1=%v q3=%v, want 1.5 12", q1, q3)
	}
}

func TestPercentile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i)
	}
	if p := percentile(v, 99); p != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", p)
	}
	if p := percentile(v, 50); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
	if p := percentile(nil, 99); p != 0 {
		t.Errorf("p99 of nothing = %v", p)
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, scale map[string]float64, failed int) string {
		set := setFile{Values: map[string]map[string][]float64{}, Failed: map[string]int{"novel": failed}}
		for _, w := range workloadNames {
			set.Values[w] = map[string][]float64{}
			for _, m := range endToEnd {
				for i := 0; i < 5; i++ {
					f := 1.0
					if s, ok := scale[w+"/"+m.Name]; ok {
						f = s
					}
					set.Values[w][m.Name] = append(set.Values[w][m.Name], f*(100+float64(i)))
				}
			}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := mk("a.json", nil, 0)
	var out bytes.Buffer
	if ok, err := compareSets(&out, a, mk("same.json", map[string]float64{"novel/lines_per_s": 1.05}, 0)); err != nil || !ok {
		t.Errorf("sets within the bound disagree: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err := compareSets(&out, a, mk("slow.json", map[string]float64{"steady/lines_per_s": 0.7}, 0))
	if err != nil || ok || !strings.Contains(out.String(), "DISAGREE") {
		t.Errorf("a 30%% throughput drop passed a 25%% bound: ok=%v err=%v", ok, err)
	}
	if ok, _ := compareSets(&out, a, mk("failed.json", nil, 3)); ok {
		t.Error("a set with failed operations passed")
	}
}
