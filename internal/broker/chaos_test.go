package broker

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/fault"
	"logsynergy/internal/framelog"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
	"logsynergy/internal/window"
)

// The broker chaos suite proves the crash-recovery contract end to end:
// a consumer that committed offset N, killed mid-append, recovers and
// re-detects from N+1 with zero loss of acknowledged records and
// bit-identical scores for the replayed sequences. The broker's half of
// the commit protocol is all that is on trial here — each leg acks and
// commits what it consumed itself; what a window-exact resume needs on
// top (tails before offsets) is the shard runtime's suite. Faults are injected
// deterministically at the broker's named points (broker.append,
// broker.fsync, broker.read).

// brokerTemplates cycle six fixed log shapes, so drain assigns event ids
// 0..5 in first-seen order and tests know every window's contents.
var brokerTemplates = []string{
	"service heartbeat ok seq 42",
	"user alice login from 10.0.0.5",
	"db query finished in 12 ms",
	"cache miss for key session",
	"disk usage at 63 percent",
	"request GET /api/v1/items 200",
}

func brokerLines(start, n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = brokerTemplates[(start+i)%len(brokerTemplates)]
	}
	return lines
}

// detectorLeg builds one fresh untrained deployment (empty event table,
// fixed clock) plus a pipeline over it. Two legs fed identical lines
// mutate identically — the basis for the bit-identical replay check.
func detectorLeg(t testing.TB, reg *obs.Registry) (*pipeline.Pipeline, *pipeline.MemorySink, *core.Detector) {
	t.Helper()
	cfg := core.DefaultConfig()
	m := core.NewModel(cfg, 2)
	e := embed.New(cfg.EmbedDim)
	table := &repr.EventTable{System: "SystemB", Dim: cfg.EmbedDim, Vectors: tensor.New(0, cfg.EmbedDim)}
	det := core.NewDetector(m, table)
	det.Now = func() time.Time { return time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC) }

	pcfg := pipeline.DefaultConfig("a cloud data management system (SystemB)")
	pcfg.Metrics = reg
	sink := &pipeline.MemorySink{}
	p := pipeline.New(pcfg, drain.NewDefault(), det, lei.NewSimLLM(lei.Config{}), e, sink)
	return p, sink, det
}

// runLeg drains the remaining records of group through a fresh detector
// leg, commits everything it consumed, and returns the pipeline stats
// plus the leg itself.
func runLeg(t *testing.T, b *Broker, group string, reg *obs.Registry) (pipeline.Stats, *pipeline.Pipeline, *pipeline.MemorySink, *core.Detector) {
	t.Helper()
	p, sink, det := detectorLeg(t, reg)
	cons, err := b.Consumer(group)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	b.CloseIntake()
	stats := p.Run(context.Background(), cons)
	if cons.Err() != nil {
		t.Fatalf("consumer error: %v", cons.Err())
	}
	cons.Ack(cons.Position() - 1)
	if err := cons.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return stats, p, sink, det
}

// windowSeqs reconstructs the event-id windows a fresh leg forms over n
// cycling-template lines with the pipeline's window.Default(): drain
// numbers templates in first-seen order, so wherever in the cycle the run
// starts, its line i is event i mod 6.
func windowSeqs(n int) [][]int {
	win := window.Default()
	var seqs [][]int
	var buf []int
	since := 0
	for i := 0; i < n; i++ {
		buf = append(buf, i%len(brokerTemplates))
		since++
		if len(buf) > win.Length {
			buf = buf[1:]
		}
		if len(buf) == win.Length && since >= win.Step {
			seqs = append(seqs, append([]int(nil), buf...))
			since = 0
		}
	}
	return seqs
}

// TestCrashRecoveryReplay is the tentpole chaos scenario, in three acts:
//
//  1. Normal operation: 23 lines ingested, detected, and committed by
//     the leg that consumed them.
//  2. Crash: 10 more lines land, then an injected fault kills an append,
//     a panic rule crashes another (contained by fault.Safe), and the
//     process "dies" (Kill: no flush, no commit) mid-append, leaving a
//     torn frame on the active segment.
//  3. Recovery: reopen truncates the torn tail (counted in obs), all 33
//     acknowledged records survive, and the consumer resumes at offset
//     24 = committed + 1 — re-detecting the replayed suffix with scores
//     bit-identical to an in-memory SliceSource reference over the same
//     lines, which also proves the payloads byte-identical.
func TestCrashRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	const phase1Lines = 23
	const phase2Lines = 10

	// --- Act 1: normal ingest → detect → commit. ---
	reg1 := obs.NewRegistry()
	b1, err := Open(Config{Dir: dir, Fsync: FsyncNever, Metrics: reg1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b1.AppendBatch(brokerLines(0, phase1Lines)); err != nil {
		t.Fatal(err)
	}
	stats1, _, _, _ := runLeg(t, b1, "detector", reg1)
	if stats1.LinesCollected != phase1Lines {
		t.Fatalf("phase 1 collected %d lines", stats1.LinesCollected)
	}
	const wantCommitted = phase1Lines
	if got := b1.Committed("detector"); got != wantCommitted {
		t.Fatalf("phase 1 committed %d, want %d", got, wantCommitted)
	}
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	// --- Act 2: more traffic, injected append failures, crash. ---
	freg := fault.New(7)
	reg2 := obs.NewRegistry()
	b2, err := Open(Config{Dir: dir, Fsync: FsyncNever, Metrics: reg2, Faults: freg})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b2.AppendBatch(brokerLines(phase1Lines, phase2Lines)); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected append failure")
	freg.Enable(fault.Rule{Point: PointAppend, Err: injected})
	if _, err := b2.Append("doomed"); !errors.Is(err, injected) {
		t.Fatalf("append under fault = %v", err)
	}
	freg.Disable(PointAppend)
	freg.Enable(fault.Rule{Point: PointAppend, PanicMsg: "append crashed"})
	if err := fault.Safe(func() error {
		_, err := b2.Append("doomed too")
		return err
	}); err == nil || !strings.Contains(err.Error(), "append crashed") {
		t.Fatalf("contained panic = %v", err)
	}
	freg.Disable(PointAppend)
	if got := reg2.Snapshot().Counters["broker.append_errors_total"]; got != 1 {
		t.Fatalf("append_errors_total %d, want 1 (panic is counted by fault stats, not the broker)", got)
	}
	if freg.Injected(PointAppend) != 2 {
		t.Fatalf("fault registry injected %d, want 2", freg.Injected(PointAppend))
	}

	b2.Kill() // SIGKILL analogue: nothing flushed, sealed or persisted

	// The crash interrupted an append: a frame header promising 512
	// bytes, payload cut off after 7.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	active := segs[len(segs)-1]
	f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [framelog.HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 512)
	f.Write(hdr[:])
	f.Write([]byte("torn..."))
	f.Close()

	// --- Act 3: recovery and bit-identical replay. ---
	reg3 := obs.NewRegistry()
	b3, err := Open(Config{Dir: dir, Fsync: FsyncNever, Metrics: reg3})
	if err != nil {
		t.Fatal(err)
	}
	defer b3.Close()
	snap := reg3.Snapshot()
	if snap.Counters["broker.truncated_total"] != 1 {
		t.Fatalf("truncated_total %d, want 1", snap.Counters["broker.truncated_total"])
	}
	if snap.Counters["broker.truncated_bytes"] != framelog.HeaderSize+7 {
		t.Fatalf("truncated_bytes %d", snap.Counters["broker.truncated_bytes"])
	}
	const totalRecords = phase1Lines + phase2Lines
	if got := b3.NextOffset(); got != totalRecords+1 {
		t.Fatalf("NextOffset %d, want %d: acknowledged records lost", got, totalRecords+1)
	}
	cons, err := b3.Consumer("detector")
	if err != nil {
		t.Fatal(err)
	}
	if got := cons.Position(); got != wantCommitted+1 {
		t.Fatalf("resume position %d, want %d", got, wantCommitted+1)
	}
	cons.Close()

	stats3, p3, sink3, det3 := runLeg(t, b3, "detector", reg3)
	replayed := totalRecords - wantCommitted // offsets 24..33
	if stats3.LinesCollected != replayed {
		t.Fatalf("phase 3 collected %d lines, want %d", stats3.LinesCollected, replayed)
	}

	// Reference: the identical line suffix through an identical fresh
	// leg, fed from memory.
	refReg := obs.NewRegistry()
	pRef, sinkRef, detRef := detectorLeg(t, refReg)
	refLines := brokerLines(wantCommitted, replayed)
	refStats := pRef.Run(context.Background(), pipeline.NewSliceSource(refLines))
	if refStats.SequencesFormed != stats3.SequencesFormed {
		t.Fatalf("sequences: broker %d, reference %d", stats3.SequencesFormed, refStats.SequencesFormed)
	}

	// Every window's score, bit for bit, out of each leg's pattern
	// library (the library caches the model score per unique pattern).
	seqs := windowSeqs(replayed)
	if len(seqs) == 0 || len(seqs) != stats3.SequencesFormed {
		t.Fatalf("reconstructed %d windows, pipeline formed %d", len(seqs), stats3.SequencesFormed)
	}
	for i, seq := range seqs {
		got, okG := p3.Library().Lookup(seq)
		want, okW := pRef.Library().Lookup(seq)
		if !okG || !okW {
			t.Fatalf("window %d %v missing from a library (broker %v, ref %v)", i, seq, okG, okW)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("window %d score %v != reference %v", i, got, want)
		}
	}

	// Anomaly reports (if any crossed the threshold) must agree exactly.
	gotReps, wantReps := sink3.Reports(), sinkRef.Reports()
	if len(gotReps) != len(wantReps) {
		t.Fatalf("reports: broker %d, reference %d", len(gotReps), len(wantReps))
	}
	for i := range gotReps {
		if math.Float64bits(gotReps[i].Score) != math.Float64bits(wantReps[i].Score) {
			t.Fatalf("report %d score %v != %v", i, gotReps[i].Score, wantReps[i].Score)
		}
	}

	// The two detectors saw identical online traffic, so probing them
	// with fixed sequences must agree bit for bit.
	probe := [][]int{{0, 1, 2, 3}, {3, 4, 5, 0}, {5, 5, 5, 5}}
	gotScores := det3.ScoreSequences(probe)
	wantScores := detRef.ScoreSequences(probe)
	for i := range probe {
		if math.Float64bits(gotScores[i]) != math.Float64bits(wantScores[i]) {
			t.Fatalf("probe %d: %v != %v", i, gotScores[i], wantScores[i])
		}
	}

	// Replay committed through the end of the log.
	if got := b3.Committed("detector"); got != totalRecords {
		t.Fatalf("phase 3 committed %d, want %d", got, totalRecords)
	}
}

// TestFsyncFaultInjection holds FsyncAlways to its contract under an
// injected fsync failure: the append reports the error (the record is
// written but not provably durable), the failure is counted, and the
// next clean Sync acks the backlog.
func TestFsyncFaultInjection(t *testing.T) {
	freg := fault.New(3)
	b, reg := openTest(t, t.TempDir(), func(c *Config) {
		c.Fsync = FsyncAlways
		c.Faults = freg
	})
	defer b.Close()

	injected := errors.New("injected fsync failure")
	freg.Enable(fault.Rule{Point: PointFsync, Err: injected, Limit: 1})
	if _, err := b.Append("not provably durable"); !errors.Is(err, injected) {
		t.Fatalf("append = %v, want injected fsync error", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["broker.fsync_errors_total"] != 1 {
		t.Fatalf("fsync_errors_total %d", snap.Counters["broker.fsync_errors_total"])
	}
	if snap.Counters["broker.acked_total"] != 0 {
		t.Fatalf("acked_total %d after failed fsync", snap.Counters["broker.acked_total"])
	}
	// The record itself was appended; a clean sync acks it.
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["broker.acked_total"]; got != 1 {
		t.Fatalf("acked_total %d after recovery sync", got)
	}
	got := drainAll(t, b, "g")
	if len(got) != 1 || got[0] != "not provably durable" {
		t.Fatalf("records %v", got)
	}
}

// TestReadFaultInjection: a failing record read ends that consumer with
// a diagnosable error instead of wedging or fabricating data, and other
// consumers are unaffected.
func TestReadFaultInjection(t *testing.T) {
	freg := fault.New(5)
	b, reg := openTest(t, t.TempDir(), func(c *Config) { c.Faults = freg })
	defer b.Close()
	for i := 0; i < 5; i++ {
		if _, err := b.Append(fmt.Sprintf("rf%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	b.CloseIntake()

	injected := errors.New("injected read failure")
	freg.Enable(fault.Rule{Point: PointRead, After: 2, Limit: 1, Err: injected})

	c, err := b.Consumer("broken")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var seen int
	for {
		if _, ok := c.Next(); !ok {
			break
		}
		seen++
	}
	if seen != 2 {
		t.Fatalf("consumed %d before injected failure, want 2", seen)
	}
	if !errors.Is(c.Err(), injected) {
		t.Fatalf("consumer Err = %v", c.Err())
	}
	if reg.Snapshot().Counters["broker.read_errors_total"] != 1 {
		t.Fatal("read_errors_total missed")
	}

	freg.Disable(PointRead)
	c2, err := b.Consumer("healthy")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var all int
	for {
		if _, ok := c2.Next(); !ok {
			break
		}
		all++
	}
	if all != 5 || c2.Err() != nil {
		t.Fatalf("healthy consumer saw %d records, err %v", all, c2.Err())
	}
}

// TestWriteFailurePoisonsBroker: a failed segment write marks the broker
// failed so later appends cannot interleave with a torn tail; recovery
// on reopen truncates the damage.
func TestWriteFailurePoisonsBroker(t *testing.T) {
	dir := t.TempDir()
	b, _ := openTest(t, dir, nil)
	if _, err := b.Append("before"); err != nil {
		t.Fatal(err)
	}
	// Force the next write to fail by closing the active file descriptor
	// out from under the broker (an EBADF stands in for a full disk).
	b.mu.Lock()
	b.active.Close()
	b.mu.Unlock()
	if _, err := b.Append("will fail"); err == nil {
		t.Fatal("append on closed fd succeeded")
	}
	if _, err := b.Append("still failing"); err == nil {
		t.Fatal("poisoned broker accepted an append")
	}
	b.Kill()

	b2, _ := openTest(t, dir, nil)
	defer b2.Close()
	got := drainAll(t, b2, "g")
	if len(got) != 1 || got[0] != "before" {
		t.Fatalf("recovered records %v", got)
	}
}
