package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"logsynergy/internal/framelog"
	"logsynergy/internal/obs"
)

// openTest opens a broker on its own registry in dir, applying mutate to
// the config first. Tests default to FsyncNever: durability against a
// real machine crash is irrelevant under t.TempDir, and skipping fsync
// keeps the suite fast.
func openTest(t testing.TB, dir string, mutate func(*Config)) (*Broker, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{Dir: dir, Fsync: FsyncNever, Metrics: reg}
	if mutate != nil {
		mutate(&cfg)
	}
	b, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return b, reg
}

// drain reads every remaining record from a fresh consumer for group.
func drainAll(t *testing.T, b *Broker, group string) []string {
	t.Helper()
	c, err := b.Consumer(group)
	if err != nil {
		t.Fatalf("Consumer: %v", err)
	}
	defer c.Close()
	b.CloseIntake()
	var lines []string
	for {
		line, ok := c.Next()
		if !ok {
			break
		}
		lines = append(lines, line)
	}
	if c.Err() != nil {
		t.Fatalf("consumer error: %v", c.Err())
	}
	return lines
}

func TestAppendConsumeRoundtrip(t *testing.T) {
	b, reg := openTest(t, t.TempDir(), nil)
	defer b.Close()

	want := make([]string, 50)
	for i := range want {
		want[i] = fmt.Sprintf("log line %d", i)
	}
	first, last, err := b.AppendBatch(want[:30])
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || last != 30 {
		t.Fatalf("batch offsets %d..%d, want 1..30", first, last)
	}
	for _, l := range want[30:] {
		if _, err := b.Append(l); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.NextOffset(); got != 51 {
		t.Fatalf("NextOffset %d, want 51", got)
	}

	got := drainAll(t, b, "g")
	if len(got) != len(want) {
		t.Fatalf("consumed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %q want %q", i, got[i], want[i])
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["broker.appended_total"] != 50 || snap.Counters["broker.consumed_total"] != 50 {
		t.Fatalf("counters: %v", snap.Counters)
	}
	// FsyncNever acks at append time.
	if snap.Counters["broker.acked_total"] != 50 {
		t.Fatalf("acked_total %d, want 50", snap.Counters["broker.acked_total"])
	}
}

func TestTailingConsumerSeesLiveAppends(t *testing.T) {
	b, _ := openTest(t, t.TempDir(), nil)
	defer b.Close()

	c, err := b.Consumer("tail")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := b.Append(fmt.Sprintf("live %d", i)); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
		b.CloseIntake()
	}()
	var got int
	for {
		line, ok := c.Next()
		if !ok {
			break
		}
		if want := fmt.Sprintf("live %d", got); line != want {
			t.Fatalf("record %d: %q want %q", got, line, want)
		}
		got++
	}
	wg.Wait()
	if got != n {
		t.Fatalf("tailed %d records, want %d", got, n)
	}
}

func TestRestartResumesAtCommitted(t *testing.T) {
	dir := t.TempDir()
	b, _ := openTest(t, dir, nil)
	for i := 1; i <= 10; i++ {
		if _, err := b.Append(fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Consumer("detector")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.Next(); !ok {
			t.Fatalf("Next %d failed: %v", i, c.Err())
		}
	}
	c.Ack(4) // records through offset 4 fully processed...
	if got := b.Committed("detector"); got != 0 {
		t.Fatalf("Ack alone moved the committed offset to %d", got)
	}
	if err := c.Commit(); err != nil { // ...and now durably so
		t.Fatal(err)
	}
	if got := b.Committed("detector"); got != 4 {
		t.Fatalf("committed %d, want 4", got)
	}
	c.Close()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, reg2 := openTest(t, dir, nil)
	defer b2.Close()
	if got := b2.Committed("detector"); got != 4 {
		t.Fatalf("committed after restart %d, want 4", got)
	}
	if snap := reg2.Snapshot(); snap.Counters["broker.replayed_total"] != 10 {
		t.Fatalf("replayed_total %d, want 10", snap.Counters["broker.replayed_total"])
	}
	c2, err := b2.Consumer("detector")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Position(); got != 5 {
		t.Fatalf("resume position %d, want 5", got)
	}
	b2.CloseIntake()
	var got []string
	for {
		line, ok := c2.Next()
		if !ok {
			break
		}
		got = append(got, line)
	}
	if len(got) != 6 || got[0] != "r5" || got[5] != "r10" {
		t.Fatalf("resumed records %v", got)
	}
}

func TestSegmentRollAndRecovery(t *testing.T) {
	dir := t.TempDir()
	b, _ := openTest(t, dir, func(c *Config) { c.SegmentBytes = 256 })
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := b.Append(fmt.Sprintf("segment roll record %04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if b.SegmentCount() < 3 {
		t.Fatalf("expected several segments, got %d", b.SegmentCount())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, reg2 := openTest(t, dir, func(c *Config) { c.SegmentBytes = 256 })
	defer b2.Close()
	if got := b2.NextOffset(); got != n+1 {
		t.Fatalf("NextOffset after recovery %d, want %d", got, n+1)
	}
	if snap := reg2.Snapshot(); snap.Counters["broker.replayed_total"] != n {
		t.Fatalf("replayed %d, want %d", snap.Counters["broker.replayed_total"], n)
	}
	got := drainAll(t, b2, "g")
	for i, line := range got {
		if want := fmt.Sprintf("segment roll record %04d", i); line != want {
			t.Fatalf("record %d: %q want %q", i, line, want)
		}
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	b, _ := openTest(t, dir, nil)
	for i := 0; i < 8; i++ {
		if _, err := b.Append(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	b.Kill() // crash: no flush, no offsets, no sealing

	// Simulate a crash mid-append: a frame header promising 64 payload
	// bytes, with only 5 on disk.
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
	binary.LittleEndian.PutUint32(hdr[0:4], 64)
	f.Write(hdr[:])
	f.Write([]byte("oops!"))
	f.Close()

	b2, reg2 := openTest(t, dir, nil)
	defer b2.Close()
	snap := reg2.Snapshot()
	if snap.Counters["broker.truncated_total"] != 1 {
		t.Fatalf("truncated_total %d, want 1", snap.Counters["broker.truncated_total"])
	}
	if snap.Counters["broker.truncated_bytes"] != framelog.HeaderSize+5 {
		t.Fatalf("truncated_bytes %d, want %d", snap.Counters["broker.truncated_bytes"], framelog.HeaderSize+5)
	}
	if got := b2.NextOffset(); got != 9 {
		t.Fatalf("NextOffset %d, want 9 (8 intact records)", got)
	}
	// The log stays appendable after truncation.
	if _, err := b2.Append("t8"); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, b2, "g")
	if len(got) != 9 || got[8] != "t8" {
		t.Fatalf("post-recovery records %v", got)
	}
}

func TestSealedSegmentCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	b, _ := openTest(t, dir, func(c *Config) { c.SegmentBytes = 128 })
	for i := 0; i < 40; i++ {
		if _, err := b.Append(fmt.Sprintf("sealed corruption %04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if b.SegmentCount() < 2 {
		t.Fatalf("need a sealed segment, got %d", b.SegmentCount())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the first (sealed) segment.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[framelog.HeaderSize+2] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(Config{Dir: dir, Fsync: FsyncNever, Metrics: obs.NewRegistry()})
	if err == nil || !strings.Contains(err.Error(), "sealed segment") {
		t.Fatalf("Open = %v, want sealed segment corruption error", err)
	}
}

func TestRetentionDeletesConsumedSegments(t *testing.T) {
	dir := t.TempDir()
	b, reg := openTest(t, dir, func(c *Config) { c.SegmentBytes = 256 })
	defer b.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := b.Append(fmt.Sprintf("retention record %04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := b.SegmentCount()
	if before < 3 {
		t.Fatalf("need several segments, got %d", before)
	}

	c, err := b.Consumer("only")
	if err != nil {
		t.Fatal(err)
	}
	b.CloseIntake()
	var seen uint64
	for {
		if _, ok := c.Next(); !ok {
			break
		}
		seen++
	}
	if seen != n {
		t.Fatalf("consumed %d, want %d", seen, n)
	}
	c.Ack(seen)
	if err := c.Commit(); err != nil { // the whole log; retention runs inside Commit
		t.Fatal(err)
	}
	c.Close()

	if after := b.SegmentCount(); after >= before {
		t.Fatalf("retention kept %d segments (was %d)", after, before)
	}
	if b.firstOff == 1 {
		t.Fatal("oldest offset never advanced")
	}
	if snap := reg.Snapshot(); snap.Counters["broker.retention_deleted_total"] == 0 {
		t.Fatal("retention_deleted_total stayed zero")
	}
}

func TestBacklogReject(t *testing.T) {
	b, reg := openTest(t, t.TempDir(), func(c *Config) {
		c.MaxBacklogBytes = 64
		c.FullPolicy = FullReject
	})
	defer b.Close()
	if _, err := b.Append(strings.Repeat("a", 40)); err != nil {
		t.Fatal(err)
	}
	_, err := b.Append(strings.Repeat("b", 40))
	if !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("got %v, want ErrBacklogFull", err)
	}
	if snap := reg.Snapshot(); snap.Counters["broker.rejected_appends_total"] != 1 {
		t.Fatalf("rejected_appends_total %d", snap.Counters["broker.rejected_appends_total"])
	}
}

func TestBacklogBlockUnblocksOnRetention(t *testing.T) {
	b, reg := openTest(t, t.TempDir(), func(c *Config) {
		c.SegmentBytes = 64
		c.MaxBacklogBytes = 200
		c.FullPolicy = FullBlock
	})
	defer b.Close()

	c, err := b.Consumer("g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fill the backlog close to the cap.
	var appended int
	for b.SegmentCount() < 3 {
		if _, err := b.Append(strings.Repeat("x", 30)); err != nil {
			t.Fatal(err)
		}
		appended++
	}
	for {
		if _, err := b.Append(strings.Repeat("x", 30)); errors.Is(err, ErrBacklogFull) {
			t.Fatal("FullBlock must not reject")
		} else if err != nil {
			t.Fatal(err)
		}
		appended++
		b.mu.Lock()
		full := b.liveBytes+(framelog.HeaderSize+30) > b.cfg.MaxBacklogBytes
		b.mu.Unlock()
		if full {
			break
		}
	}

	// The next append must block until the consumer commits and retention
	// frees a sealed segment.
	done := make(chan error, 1)
	go func() {
		_, err := b.Append(strings.Repeat("y", 30))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("append returned early (err=%v) instead of blocking", err)
	case <-time.After(50 * time.Millisecond):
	}

	var seen uint64
	for seen < uint64(appended) {
		if _, ok := c.Next(); !ok {
			t.Fatalf("consumer ended early: %v", c.Err())
		}
		seen++
	}
	c.Ack(seen)
	if err := c.Commit(); err != nil { // commit → retention → space freed
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unblocked append failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append never unblocked after retention freed space")
	}
	if snap := reg.Snapshot(); snap.Counters["broker.blocked_appends_total"] == 0 {
		t.Fatal("blocked_appends_total stayed zero")
	}
}

func TestFsyncAlwaysAcksEveryAppend(t *testing.T) {
	b, reg := openTest(t, t.TempDir(), func(c *Config) { c.Fsync = FsyncAlways })
	defer b.Close()
	for i := 0; i < 5; i++ {
		if _, err := b.Append("durable"); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["broker.acked_total"] != 5 {
		t.Fatalf("acked_total %d, want 5", snap.Counters["broker.acked_total"])
	}
	if snap.Histograms["broker.fsync_seconds"].Count < 5 {
		t.Fatalf("fsync histogram count %d", snap.Histograms["broker.fsync_seconds"].Count)
	}
}

func TestFsyncIntervalEventuallyAcks(t *testing.T) {
	b, reg := openTest(t, t.TempDir(), func(c *Config) {
		c.Fsync = FsyncInterval
		c.FsyncEvery = 5 * time.Millisecond
	})
	defer b.Close()
	if _, err := b.Append("interval"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Counters["broker.acked_total"] == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background fsync never acked the append")
}

func TestPolicyParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"always", FsyncAlways}, {"interval", FsyncInterval}, {"", FsyncInterval}, {"never", FsyncNever}} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Fatal("empty String()")
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("bogus fsync policy accepted")
	}
	for _, tc := range []struct {
		in   string
		want FullPolicy
	}{{"block", FullBlock}, {"", FullBlock}, {"reject", FullReject}} {
		got, err := ParseFullPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFullPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseFullPolicy("bogus"); err == nil {
		t.Fatal("bogus full policy accepted")
	}
}

func TestOversizedRecordRefused(t *testing.T) {
	b, _ := openTest(t, t.TempDir(), nil)
	defer b.Close()
	if _, err := b.Append(strings.Repeat("z", MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if _, err := b.Append(strings.Repeat("z", MaxRecordBytes)); err != nil {
		t.Fatalf("record at the limit refused: %v", err)
	}
}

func TestCorruptOffsetsFileRefused(t *testing.T) {
	dir := t.TempDir()
	b, _ := openTest(t, dir, nil)
	b.Append("x")
	b.Close()
	if err := os.WriteFile(offsetsPath(dir), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config{Dir: dir, Fsync: FsyncNever, Metrics: obs.NewRegistry()})
	if err == nil || !strings.Contains(err.Error(), "corrupt offsets") {
		t.Fatalf("Open = %v, want corrupt offsets error", err)
	}
}

func TestAppendAfterCloseIntake(t *testing.T) {
	b, _ := openTest(t, t.TempDir(), nil)
	defer b.Close()
	b.CloseIntake()
	if _, err := b.Append("late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestOffsetsClampAfterWALWipe(t *testing.T) {
	dir := t.TempDir()
	b, _ := openTest(t, dir, nil)
	for i := 0; i < 6; i++ {
		b.Append("w")
	}
	c, _ := b.Consumer("g")
	for i := 0; i < 6; i++ {
		c.Next()
	}
	c.Ack(6)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	b.Close()

	// Wipe the segments but keep the offsets file: the committed offset
	// (6) now points past the log and must clamp, not wedge the broker.
	segs, _ := listSegments(dir)
	for _, s := range segs {
		os.Remove(s.path)
	}
	b2, _ := openTest(t, dir, nil)
	if got := b2.Committed("g"); got != 0 {
		t.Fatalf("clamped committed %d, want 0", got)
	}
	// The repair is on disk before anything reuses offsets 1–6: records
	// appended after it and never consumed stay unconsumed across a crash.
	for i := 0; i < 4; i++ {
		b2.Append("new")
	}
	b2.Kill()
	b3, _ := openTest(t, dir, nil)
	defer b3.Close()
	if got := b3.Committed("g"); got != 0 {
		t.Fatalf("after a crash the group is at %d, want 0: the stale offsets file counted new records consumed", got)
	}
}

// TestAckRecordsCommitPersists: Ack only raises the mark — a crash (Kill)
// after it resumes where the last Commit left the group — and Commit is
// what reaches the offsets file.
func TestAckRecordsCommitPersists(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Broker, *Consumer) {
		b, _ := openTest(t, dir, nil)
		c, err := b.Consumer("g")
		if err != nil {
			t.Fatal(err)
		}
		return b, c
	}

	b, c := open()
	for i := 0; i < 10; i++ {
		if _, err := b.Append("s"); err != nil {
			t.Fatal(err)
		}
	}
	c.Next()
	c.Next()
	c.Next()
	c.Ack(3)
	if got := b.Committed("g"); got != 0 {
		t.Fatalf("committed %d after a bare Ack, want 0", got)
	}
	c.Close()
	b.Kill()

	b, c = open()
	if got := c.Position(); got != 1 {
		t.Fatalf("resumed at %d after an uncommitted Ack, want 1", got)
	}
	for i := 0; i < 5; i++ {
		c.Next()
	}
	c.Ack(5)
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Ack(2) // behind the mark: never moves it backwards
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	b.Kill()

	b, c = open()
	defer b.Close()
	defer c.Close()
	if got := b.Committed("g"); got != 5 {
		t.Fatalf("committed after crash %d, want 5", got)
	}
	if got := c.Position(); got != 6 {
		t.Fatalf("resumed at %d, want committed + 1 = 6", got)
	}
}

// WaitIdle tells a quiet stream from a consumer that merely caught up: it
// sits out the whole delay only when nothing arrives and the intake stays
// open, and returns at once when Next would not block.
func TestConsumerWaitIdle(t *testing.T) {
	b, _ := openTest(t, t.TempDir(), nil)
	defer b.Close()
	c, err := b.Consumer("g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	if !c.WaitIdle(5 * time.Millisecond) {
		t.Fatal("an empty, open log did not count as idle")
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("reported idle after %v, before the 5ms delay had passed", d)
	}

	go func() {
		time.Sleep(time.Millisecond)
		b.Append("late line")
	}()
	start = time.Now()
	if c.WaitIdle(30 * time.Second) {
		t.Fatal("reported idle although a record arrived")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("an append took %v to end the wait", d)
	}
	if c.WaitIdle(30 * time.Second) {
		t.Fatal("reported idle with a record ready to read")
	}
	if line, ok := c.Next(); !ok || line != "late line" {
		t.Fatalf("Next = %q, %v", line, ok)
	}

	b.CloseIntake()
	if c.WaitIdle(30 * time.Second) {
		t.Fatal("reported idle on a closed intake, where Next returns the end of the stream")
	}
}
