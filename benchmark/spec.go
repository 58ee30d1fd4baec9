package main

import "fmt"

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the system sees, and what a later change is
// gated on. Every workload reports every one of them (see README.md for
// what each means on the train workload). The latency percentiles are
// measured on every run too but sit in perLayer, ungated: see README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"lines_per_s", "1/s", "higher", 0.25},
	{"train_seq_per_s", "1/s", "higher", 0.25},
}

// perLayer is the traced run's output, one layer (module) per prefix.
var perLayer = []metricSpec{
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.handler_us_per_line", Unit: "us", Better: "lower"},
	{Name: "shard.route_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "shard.partition_skew", Unit: "ratio", Better: "lower"},
	{Name: "shard.lines_per_s_1shard", Unit: "1/s", Better: "higher"},
	{Name: "shard.speedup_2_vs_1", Unit: "ratio", Better: "higher"},
	{Name: "shard.commits", Unit: "count", Better: "lower"},
	{Name: "shard.state_bytes", Unit: "bytes", Better: "lower"},
	{Name: "shard.backlog_end_lines", Unit: "count", Better: "lower"},
	{Name: "shard.cutover_us_per_moved_key", Unit: "us", Better: "lower"},
	{Name: "shard.cutover_moved_keys", Unit: "count", Better: "lower"},
	{Name: "broker.append_us_per_line", Unit: "us", Better: "lower"},
	{Name: "broker.consume_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "broker.bytes_per_line", Unit: "bytes", Better: "lower"},
	{Name: "broker.fsyncs", Unit: "count", Better: "lower"},
	{Name: "drain.parse_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "drain.templates", Unit: "count", Better: "lower"},
	{Name: "lei.interpret_us_cold", Unit: "us", Better: "lower"},
	{Name: "lei.renders", Unit: "count", Better: "lower"},
	{Name: "lei.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "embed.embed_us_cold", Unit: "us", Better: "lower"},
	{Name: "embed.embed_ns_warm", Unit: "ns", Better: "lower"},
	{Name: "repr.extend_us_mean", Unit: "us", Better: "lower"},
	{Name: "repr.table_rows", Unit: "count", Better: "lower"},
	{Name: "pipeline.library_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.library_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.library_store_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.windows", Unit: "count", Better: "higher"},
	{Name: "pipeline.detect_batch_mean", Unit: "count", Better: "higher"},
	{Name: "pipeline.keyed_feed_us_per_line", Unit: "us", Better: "lower"},
	{Name: "core.detector_score_us_per_window", Unit: "us", Better: "lower"},
	{Name: "core.model_score_us_per_window_b1", Unit: "us", Better: "lower"},
	{Name: "core.model_score_us_per_window_b16", Unit: "us", Better: "lower"},
	{Name: "core.model_score_us_per_window_b64", Unit: "us", Better: "lower"},
	{Name: "core.score_allocs_per_window", Unit: "count", Better: "lower"},
	{Name: "core.score_bytes_per_window", Unit: "bytes", Better: "lower"},
	{Name: "core.report_us", Unit: "us", Better: "lower"},
	{Name: "core.alerts", Unit: "count", Better: "lower"},
	{Name: "core.train_step_ms", Unit: "ms", Better: "lower"},
	{Name: "core.train_allocs_per_seq", Unit: "count", Better: "lower"},
	{Name: "tensor.matmul_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.matmul_allocs", Unit: "count", Better: "lower"},
	{Name: "tensor.bmm_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.softmax_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.flops_per_window", Unit: "count", Better: "lower"},
	{Name: "tensor.pool_tasks", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_line", Unit: "bytes", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "latency.verdict_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency.verdict_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "latency.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency.ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "latency.over_limit_share", Unit: "ratio", Better: "lower"},
	{Name: "attribution.coverage", Unit: "ratio", Better: "higher"},
	{Name: "attribution.parse_share", Unit: "ratio", Better: "lower"},
	{Name: "attribution.interpret_share", Unit: "ratio", Better: "lower"},
	{Name: "attribution.extend_share", Unit: "ratio", Better: "lower"},
	{Name: "attribution.lookup_share", Unit: "ratio", Better: "lower"},
	{Name: "attribution.score_share", Unit: "ratio", Better: "lower"},
	{Name: "attribution.report_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// defaultSeconds is BENCHMARK.json's run_seconds: how long one workload's
// timed phases take on the seed commit.
const defaultSeconds = 18

// verdictLimitMs is the ingest→verdict latency limit behind
// latency.over_limit_share.
const verdictLimitMs = 500

// postLines is how many lines one /ingest POST carries.
const postLines = 32

// sizing fixes how much work a run does. The rates are frozen from the
// seed commit's saturation throughput (README.md records the
// measurements); only the phase lengths scale with -seconds.
type sizing struct {
	// warm and timed are the corpus's untimed prefix and timed line count.
	warm, timed int
	// rate is the paced phase's open-loop send rate in lines per second.
	rate float64
	// rounds is how many times the saturation phase and the training probe
	// run, alternating; the fastest of each is reported.
	rounds int
	// setups is how many times set-up runs; the median is reported.
	setups int
	// bundle sizes the serving bundle's training run, probe the timed
	// training probe.
	bundle, probe trainSize
}

// trainSize fixes one transfer-training run.
type trainSize struct {
	sourceLines, targetLines, epochs int
	lr                               float64
}

// pacedRate is each workload's frozen open-loop rate: about a quarter of
// the seed commit's saturation throughput on that workload. At half, the
// queueing delay answers a 5 % drift in the machine's speed with a 20 %
// change in latency, and the medians would not hold still from run to run.
var pacedRate = map[string]float64{
	"novel":   5000,
	"steady":  20000,
	"onboard": 16000,
	"train":   5000,
}

// warmLines is each workload's untimed warm-up prefix: enough for every
// steady key to loop its script three times, and a few hundred windows
// elsewhere.
var warmLines = map[string]int{
	"novel":   2048,
	"steady":  4096,
	"onboard": 2048,
	"train":   2048,
}

// pacedShare is the part of -seconds the paced phase takes on the serving
// workloads; the alternating saturation rounds and training probes take
// the rest. The train workload gives its (longer) probes most of the time
// and serves a third as many lines.
const (
	pacedShare      = 0.25
	trainPacedShare = 0.08
)

// servingBundle is the fixed-scale transfer-training run whose model every
// workload scores with: source-heavy like the paper's protocol (n_s : n_t
// about 4 : 1), three epochs, enough for the detector to alert on some
// windows and not on others. servingProbe is one epoch over the same data:
// the serving workloads' timed training probe.
var (
	servingBundle = trainSize{sourceLines: 4000, targetLines: 1500, epochs: 3, lr: 1e-2}
	servingProbe  = trainSize{sourceLines: 4000, targetLines: 1500, epochs: 1, lr: 1e-2}
)

// trainFixture is the train workload's timed probe: one epoch at the
// default learning rate over the root bench_test.go trainFixture shape
// (6000 BGL lines, 4000 Thunderbird lines).
var trainFixture = trainSize{sourceLines: 6000, targetLines: 4000, epochs: 1, lr: 3e-3}

// bundleSeed seeds the serving bundle's corpora and model: fixed, so every
// seed's traffic meets the same detector.
const bundleSeed = 1

// sizeFor returns the sizing of one run.
func sizeFor(workload string, seconds int, smoke bool) (sizing, error) {
	rate, ok := pacedRate[workload]
	if !ok {
		return sizing{}, fmt.Errorf("unknown workload %q (want novel, steady, onboard or train)", workload)
	}
	if smoke {
		tiny := trainSize{sourceLines: 600, targetLines: 500, epochs: 1, lr: 1e-2}
		return sizing{warm: warmLines[workload], timed: 1920, rate: 4 * rate, rounds: 1, setups: 1, bundle: tiny, probe: tiny}, nil
	}
	s := sizing{warm: warmLines[workload], rate: rate, rounds: 7, setups: 3, bundle: servingBundle, probe: servingProbe}
	share := pacedShare
	if workload == "train" {
		s.probe, share = trainFixture, trainPacedShare
	}
	s.timed = int(rate*share*float64(seconds)) / postLines * postLines
	return s, nil
}
