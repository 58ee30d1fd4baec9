package core

import (
	"fmt"
	"strings"
	"time"

	"logsynergy/internal/metrics"
	"logsynergy/internal/obs"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// Detector throughput metrics (obs.Default): scores-per-second falls out
// of core.scores_total over the sum of core.score_batch_seconds; report
// build latency is the cost of materializing one alert.
var (
	scoresTotal        = obs.Default().Counter("core.scores_total")
	scoreBatchSeconds  = obs.Default().Histogram("core.score_batch_seconds")
	reportBuildSeconds = obs.Default().Histogram("core.report_build_seconds")
)

// Threshold is the fixed anomaly decision threshold the paper uses for
// every classifier (§III-E, §IV-A3).
const Threshold = 0.5

// Report is the anomaly report generated for a detected sequence
// (paper §III-E and §VI-A "Report"): the original event templates, their
// LEI interpretations, the anomaly score, and metadata.
type Report struct {
	// System identifies the monitored (target) system.
	System string
	// Timestamp is when the detection was made.
	Timestamp time.Time
	// Score is the anomaly probability in [0,1].
	Score float64
	// EventIDs is the offending sequence.
	EventIDs []int
	// Templates holds the raw event templates of the sequence.
	Templates []string
	// Interpretations holds the LEI interpretation of each event.
	Interpretations []string
}

// String renders the report the way the on-call alert does.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ANOMALY system=%s score=%.3f time=%s\n", r.System, r.Score, r.Timestamp.Format(time.RFC3339))
	for i := range r.EventIDs {
		fmt.Fprintf(&b, "  [%d] %s\n      -> %s\n", r.EventIDs[i], r.Templates[i], r.Interpretations[i])
	}
	return b.String()
}

// Detector is the online detection phase: it embeds incoming sequences
// with the same event table used offline and scores them with the trained
// model's F + C_anomaly.
type Detector struct {
	Model *Model
	Table *repr.EventTable
	// Now supplies report timestamps (overridable in tests).
	Now func() time.Time
}

// NewDetector wires a trained model to the target system's event table.
func NewDetector(m *Model, table *repr.EventTable) *Detector {
	return &Detector{Model: m, Table: table, Now: time.Now}
}

// ScoreSequence scores a single event-id sequence: ScoreSequences on a
// batch of one.
func (d *Detector) ScoreSequence(eventIDs []int) float64 {
	return d.scoreRun([][]int{eventIDs})[0]
}

// ScoreSequences scores a batch of event-id sequences, in input order.
// Each run of equal-length sequences is embedded into one [b,T,D] tensor
// and scored by one Model.Score call, which spreads it over the tensor
// worker pool (the model and event table are read-only during inference).
// A score depends on its sequence alone — not on its neighbours in the
// batch, the batch size or the worker count — bit for bit.
//
// It panics on an event id outside the table or an empty sequence. Each run
// is checked on the calling goroutine before any of it is scored, so the
// panic is the caller's to recover at any worker count.
func (d *Detector) ScoreSequences(seqs [][]int) []float64 {
	if len(seqs) == 0 {
		return nil
	}
	start := time.Now()
	var scores []float64
	for lo := 0; lo < len(seqs); {
		hi := lo + 1
		for hi < len(seqs) && len(seqs[hi]) == len(seqs[lo]) {
			hi++
		}
		run := d.scoreRun(seqs[lo:hi])
		if lo == 0 {
			scores = run // the whole batch, when lengths agree
		} else {
			scores = append(scores, run...)
		}
		lo = hi
	}
	scoresTotal.Add(int64(len(seqs)))
	scoreBatchSeconds.ObserveSince(start)
	return scores
}

// stacked recycles the [b,T,D] input buffers of scoreRun: at
// 2.5 KB per ten-event window they would otherwise be most of what a
// scoring call allocates.
var stacked freeList[*[]float64]

// scoreRun scores sequences of one length.
func (d *Detector) scoreRun(seqs [][]int) []float64 {
	buf, ok := stacked.get()
	if !ok {
		buf = new([]float64)
	}
	scores := d.Model.Score(d.embed(seqs, buf), 0)
	stacked.put(buf)
	return scores
}

// Detect scores a sequence and, if it crosses the threshold, produces the
// anomaly report.
func (d *Detector) Detect(eventIDs []int) (float64, *Report) {
	score := d.ScoreSequence(eventIDs)
	if score <= Threshold {
		return score, nil
	}
	return score, d.BuildReport(eventIDs, score)
}

// BuildReport assembles the anomaly report for a sequence without running
// the model (used by the pattern library for cached anomalous patterns).
func (d *Detector) BuildReport(eventIDs []int, score float64) *Report {
	start := time.Now()
	defer reportBuildSeconds.ObserveSince(start)
	rep := &Report{
		System:    d.Table.System,
		Timestamp: d.Now(),
		Score:     score,
		EventIDs:  append([]int(nil), eventIDs...),
	}
	for _, id := range eventIDs {
		in := d.Table.Interps[id]
		rep.Templates = append(rep.Templates, in.Template)
		rep.Interpretations = append(rep.Interpretations, in.Text)
	}
	return rep
}

// embed stacks equal-length event-id sequences into a [b,T,D] tensor over
// *buf (grown as needed) via the event table.
func (d *Detector) embed(seqs [][]int, buf *[]float64) *tensor.Tensor {
	dim, t := d.Table.Dim, len(seqs[0])
	if n := len(seqs) * t * dim; cap(*buf) < n {
		*buf = make([]float64, n)
	}
	x := tensor.FromSlice((*buf)[:len(seqs)*t*dim], len(seqs), t, dim)
	for i, ids := range seqs {
		for j, id := range ids {
			if id < 0 || id >= d.Table.Vectors.Rows() {
				panic(fmt.Sprintf("core: event id %d outside table of %d events", id, d.Table.Vectors.Rows()))
			}
			copy(x.Data[(i*t+j)*dim:], d.Table.Vectors.Data[id*dim:(id+1)*dim])
		}
	}
	return x
}

// EvaluateDataset scores every sequence of a materialized dataset and
// returns the paper's (P, R, F1) triple at the fixed 0.5 threshold.
func EvaluateDataset(m *Model, d *repr.Dataset) metrics.Result {
	scores := m.Score(d.X, 0)
	return metrics.Evaluate(scores, d.Labels, Threshold)
}
