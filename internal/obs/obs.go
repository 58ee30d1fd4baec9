// Package obs is a small, dependency-free metrics layer for observing a
// long-running deployment (paper §VI): atomic counters, gauges, and
// fixed-bucket latency histograms collected in a Registry, exported as
// mergeable Snapshots and as a plain-text /metrics page.
//
// Design constraints, in order:
//
//  1. Hot-path cost. Counter.Inc and Histogram.Observe are single atomic
//     operations (the histogram adds a branch-free bucket search over a
//     dozen bounds); they are safe to call from the tensor kernels'
//     dispatch path millions of times per second.
//  2. No dependencies. Only the standard library; the export format is a
//     stable line-oriented text page, trivially scrapable and greppable.
//  3. Mergeable snapshots. Snapshot is a plain value; Merge sums two of
//     them, so per-shard or per-pipeline registries roll up into one
//     fleet view (and expvar can publish the JSON form directly).
//
// Metric handles are get-or-create by name: callers keep the returned
// pointer and update it lock-free; the registry lock is only taken at
// registration and snapshot time.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; negative deltas belong on a Gauge).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (buffer occupancy, library size).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Max raises the gauge to v if v exceeds the current value (high-water
// marks such as peak buffer occupancy).
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets spans 100µs to 10s in roughly 1-2.5-5 decades —
// wide enough for both a sharded matmul span and a full detect batch.
// Values are seconds, matching Histogram.ObserveSince.
var DefaultLatencyBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with cumulative-friendly
// semantics: an observation v lands in the first bucket whose upper bound
// is >= v, or in the implicit +Inf overflow bucket. Sum and count are
// tracked alongside, so snapshots expose the mean. Observations are
// individually atomic; a concurrent snapshot may be torn by the handful
// of observations in flight, which is irrelevant at scrape granularity.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // math.Float64bits of the running sum
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// snapshot materializes the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry holds named metrics. The zero value is not usable; construct
// with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Package-level
// instrumentation (the tensor runtime, the core detector) registers
// here; components that want isolation (one registry per pipeline)
// construct their own and merge snapshots.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name with
// DefaultLatencyBuckets, creating it if new.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, DefaultLatencyBuckets)
}

// HistogramWith returns the histogram registered under name, creating it
// with the given bucket upper bounds if new. If the name already exists
// the existing histogram is returned and bounds are ignored (first
// registration wins).
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the materialized state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds, ascending.
	Bounds []float64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; Counts[i] is the number of
	// observations v with Bounds[i-1] < v <= Bounds[i]; the last entry is
	// the +Inf overflow bucket.
	Counts []int64 `json:"counts"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
	// Count is the total number of observations.
	Count int64 `json:"count"`
}

// Mean returns Sum/Count, or 0 with no observations.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry — a plain value, safe
// to retain, serialize (the JSON form is what expvar publishes), and
// merge with snapshots of other registries.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Merge combines two snapshots into a new one: counters and gauges sum
// (gauges from disjoint shards — e.g. per-pipeline buffer occupancy —
// add up to the fleet total), histograms with identical bounds merge
// bucket-wise. A histogram name present in both with differing bounds
// keeps s's buckets and only accumulates other's sum and count.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range other.Counters {
		out.Counters[k] += v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range other.Gauges {
		out.Gauges[k] += v
	}
	for k, h := range s.Histograms {
		out.Histograms[k] = h.clone()
	}
	for k, h := range other.Histograms {
		cur, ok := out.Histograms[k]
		if !ok {
			out.Histograms[k] = h.clone()
			continue
		}
		cur.Sum += h.Sum
		cur.Count += h.Count
		if len(cur.Bounds) == len(h.Bounds) && boundsEqual(cur.Bounds, h.Bounds) {
			for i := range cur.Counts {
				cur.Counts[i] += h.Counts[i]
			}
		}
		out.Histograms[k] = cur
	}
	return out
}

func (h HistogramSnapshot) clone() HistogramSnapshot {
	h.Bounds = append([]float64(nil), h.Bounds...)
	h.Counts = append([]int64(nil), h.Counts...)
	return h
}

func boundsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteText renders the snapshot as the /metrics text page: one line per
// counter and gauge ("counter <name> <value>"), one summary line plus one
// line per non-empty bucket for each histogram. Names sort
// lexicographically within each kind, so output is stable and diffable.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "histogram %s count %d sum %g mean %g\n",
			name, h.Count, h.Sum, h.Mean()); err != nil {
			return err
		}
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			bound := "+Inf"
			if i < len(h.Bounds) {
				bound = fmt.Sprintf("%g", h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "histogram %s bucket le=%s %d\n", name, bound, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Prefixed returns a copy of the snapshot with every metric name
// prefixed. It is the building block for federating scrapes across
// processes: a front router fetches each node's JSON snapshot, merges
// the raw copies into fleet totals and the Prefixed("node.<name>.")
// copies into per-node breakdowns, all on one page.
func (s Snapshot) Prefixed(prefix string) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[prefix+k] = v
	}
	for k, v := range s.Gauges {
		out.Gauges[prefix+k] = v
	}
	for k, h := range s.Histograms {
		out.Histograms[prefix+k] = h.clone()
	}
	return out
}

// ParseSnapshot decodes the JSON form of a Snapshot (what
// SnapshotJSONHandler serves and expvar publishes). Nil maps are normalized to empty so the
// result is always safe to Merge.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: parsing snapshot: %w", err)
	}
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]int64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistogramSnapshot{}
	}
	return s, nil
}

// WriteText renders the registry's current state (see Snapshot.WriteText).
func (r *Registry) WriteText(w io.Writer) error {
	return r.Snapshot().WriteText(w)
}

// SnapshotJSONHandler serves a snapshot function as JSON — the
// machine-readable cross-process scrape surface (text /metrics stays the
// human one). Cluster nodes mount it at /metrics.json and the front
// router's federated scrape consumes it with ParseSnapshot.
func SnapshotJSONHandler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snap())
	})
}

// Handler returns the /metrics HTTP handler: the text export of the
// registry's state at request time.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteText(w)
	})
}
