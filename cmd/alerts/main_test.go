package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/embed"
	"logsynergy/internal/framelog"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
	"logsynergy/internal/pipeline"
	"logsynergy/internal/repr"
	"logsynergy/internal/shard"
	"logsynergy/internal/tensor"
)

// writeCommits appends one commit record per alert group to partition
// part's commit log under root, the way a runtime's commit does.
func writeCommits(t *testing.T, root string, part int, groups ...[]*core.Report) {
	t.Helper()
	b, err := broker.Open(broker.Config{
		Dir:     filepath.Join(shard.PartitionDir(root, part), "commits"),
		Fsync:   broker.FsyncNever,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, alerts := range groups {
		rec, err := json.Marshal(struct {
			Consumed int            `json:"consumed"`
			Alerts   []*core.Report `json:"alerts"`
		}{100 * (i + 1), alerts})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Append(string(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// seed writes a root of four alerts over two partitions, p0-1-1
// acknowledged, and returns it.
func seed(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	at := time.Date(2023, 5, 1, 12, 0, 0, 0, time.UTC)
	rep := func(i int, system string, score float64) *core.Report {
		return &core.Report{System: system, Score: score, Timestamp: at.Add(time.Duration(i) * time.Hour)}
	}
	writeCommits(t, root, 0, []*core.Report{rep(0, "SystemA", 0.95), rep(1, "SystemB", 0.91)})
	writeCommits(t, root, 1, []*core.Report{rep(2, "SystemA", 0.62)}, []*core.Report{rep(3, "SystemB", 0.99)})
	alerts(t, "-root", root, "ack", "-id", "p0-1-1")
	return root
}

// alerts runs the command and returns its stdout.
func alerts(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("alerts %v: %v (stderr %q)", args, err, stderr.String())
	}
	return stdout.String()
}

func TestList(t *testing.T) {
	root := seed(t)
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{nil, "p0-1-0 SystemA score=0.950 2023-05-01T12:00:00 [open]\n" +
			"p0-1-1 SystemB score=0.910 2023-05-01T13:00:00 [acked]\n" +
			"p1-1-0 SystemA score=0.620 2023-05-01T14:00:00 [open]\n" +
			"p1-2-0 SystemB score=0.990 2023-05-01T15:00:00 [open]\n"},
		{[]string{"-system", "SystemB"}, "p0-1-1 SystemB score=0.910 2023-05-01T13:00:00 [acked]\n" +
			"p1-2-0 SystemB score=0.990 2023-05-01T15:00:00 [open]\n"},
		{[]string{"-min-score", "0.9", "-open"}, "p0-1-0 SystemA score=0.950 2023-05-01T12:00:00 [open]\n" +
			"p1-2-0 SystemB score=0.990 2023-05-01T15:00:00 [open]\n"},
		{[]string{"-limit", "1"}, "p0-1-0 SystemA score=0.950 2023-05-01T12:00:00 [open]\n"},
	} {
		args := append([]string{"-root", root, "list"}, c.flags...)
		if got := alerts(t, args...); got != c.want {
			t.Errorf("list %v:\n%s\nwant:\n%s", c.flags, got, c.want)
		}
	}
}

func TestAck(t *testing.T) {
	root := seed(t)
	if got := alerts(t, "-root", root, "ack", "-id", "p1-1-0"); got != "acknowledged p1-1-0\n" {
		t.Fatalf("ack p1-1-0: %q", got)
	}
	if got := alerts(t, "-root", root, "list", "-open"); strings.Count(got, "\n") != 2 || strings.Contains(got, "p1-1-0 ") {
		t.Fatalf("after ack p1-1-0, open alerts:\n%s", got)
	}
	err := run([]string{"-root", root, "ack", "-id", "p1-9-0"}, &bytes.Buffer{}, &bytes.Buffer{})
	var usage usageError
	if err == nil || !strings.Contains(err.Error(), "no alert p1-9-0") || errors.As(err, &usage) {
		t.Fatalf("ack of an unknown id: %v", err)
	}
}

// An ack is kept with its alert's timestamp: a later alert at the same log
// position — the commit log lost its unsynced tail to a power cut and the
// next commit reused the offset — is open, not acked.
func TestAckReusedPositionIsOpen(t *testing.T) {
	root := seed(t)
	alerts(t, "-root", root, "ack", "-id", "p1-2-0")
	if err := os.RemoveAll(filepath.Join(shard.PartitionDir(root, 1), "commits")); err != nil {
		t.Fatal(err)
	}
	later := &core.Report{System: "SystemB", Score: 0.97, Timestamp: time.Date(2023, 5, 1, 16, 0, 0, 0, time.UTC)}
	writeCommits(t, root, 1, []*core.Report{{System: "SystemA", Score: 0.62, Timestamp: time.Date(2023, 5, 1, 14, 0, 0, 0, time.UTC)}}, []*core.Report{later})
	if got, want := alerts(t, "-root", root, "list", "-system", "SystemB"), "p0-1-1 SystemB score=0.910 2023-05-01T13:00:00 [acked]\n"+
		"p1-2-0 SystemB score=0.970 2023-05-01T16:00:00 [open]\n"; got != want {
		t.Fatalf("list after the position was reused:\n%s\nwant:\n%s", got, want)
	}
}

// The ack file's torn tail — an ack cut short — is not an error: list
// leaves it where it is, and the next ack cuts it before it appends, so
// the file holds whole frames only and every ack survives.
func TestAckCutsTornTail(t *testing.T) {
	root := seed(t)
	path := filepath.Join(root, ackFile)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [framelog.HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], 40)
	torn := append(append(append([]byte(nil), whole...), hdr[:]...), `{"id":"p1`...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := alerts(t, "-root", root, "list", "-open"); strings.Count(got, "\n") != 3 {
		t.Fatalf("list over a torn ack file:\n%s", got)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, torn) {
		t.Fatal("list changed the ack file")
	}
	alerts(t, "-root", root, "ack", "-id", "p1-2-0")
	if got := alerts(t, "-root", root, "list", "-open"); got != "p0-1-0 SystemA score=0.950 2023-05-01T12:00:00 [open]\n"+
		"p1-1-0 SystemA score=0.620 2023-05-01T14:00:00 [open]\n" {
		t.Fatalf("after an ack over the torn tail, open alerts:\n%s", got)
	}
	frames, valid, stop, err := framelog.Scan(path, maxAck, func([]byte) {})
	if err != nil || stop != nil || frames != 2 {
		t.Fatalf("the ack file holds %d whole frames over %d bytes, then %v (%v)", frames, valid, stop, err)
	}
}

// TestUsageErrorsCreateNoStore: a missing or unknown command, a bad
// subcommand flag or no -root is a usage error, and a -root that does not
// exist — a typo, most likely — or holds no partition directory fails
// every command (exit 1, naming the root) instead of reporting an empty
// history. None of them writes anything.
func TestUsageErrorsCreateNoStore(t *testing.T) {
	empty := t.TempDir()
	missing := filepath.Join(empty, "typo")
	for _, tc := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"-root", missing, "lst"}, true},
		{[]string{"-root", missing}, true},
		{[]string{"list"}, true},
		{[]string{"-root", missing, "list", "-bogus"}, true},
		{[]string{"-root", missing, "compact"}, true},
		{[]string{"-root", missing, "list"}, false},
		{[]string{"-root", missing, "ack", "-id", "p0-1-0"}, false},
		{[]string{"-root", empty, "list"}, false},
		{[]string{"-root", empty, "ack", "-id", "p0-1-0"}, false},
	} {
		err := run(tc.args, &bytes.Buffer{}, &bytes.Buffer{})
		var usage usageError
		switch {
		case tc.usage && !errors.As(err, &usage):
			t.Errorf("alerts %v: %v, want a usage error", tc.args, err)
		case !tc.usage && (err == nil || errors.As(err, &usage) || !strings.Contains(err.Error(), tc.args[1])):
			t.Errorf("alerts %v: %v, want a failure naming the root", tc.args, err)
		}
		if entries, _ := os.ReadDir(empty); len(entries) != 0 {
			t.Fatalf("alerts %v wrote %s", tc.args, entries[0].Name())
		}
	}
}

// TestForeignStoreRefused: an ack file that is no framed ack log — here a
// model bundle — fails the command (exit 1, not a usage error) and is left
// byte-identical.
func TestForeignStoreRefused(t *testing.T) {
	root := seed(t)
	path := filepath.Join(root, ackFile)
	bundle := []byte(`{"config":{"embed_dim":24},"num_systems":2,"system":"Thunderbird"}` + "\n#lsbundle v1 crc32c=00000000\n")
	if err := os.WriteFile(path, bundle, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"list"}, {"ack", "-id", "p0-1-0"}} {
		err := run(append([]string{"-root", root}, args...), &bytes.Buffer{}, &bytes.Buffer{})
		var usage usageError
		if err == nil || errors.As(err, &usage) || !strings.Contains(err.Error(), "not an ack file") {
			t.Fatalf("%s over a model bundle: %v, want a failure naming it no ack file", args[0], err)
		}
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(bundle, after) {
		t.Fatal("the command changed the model bundle")
	}
}

// newestSegment returns the newest segment of partition part's commit log
// under root.
func newestSegment(t *testing.T, root string, part int) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(shard.PartitionDir(root, part), "commits", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("p%d's commit log has segments %v (%v)", part, segs, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// snapshot reads every file under root, by path.
func snapshot(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// An ack made by one invocation holds in every later one; acking an
// acked id again succeeds without a second frame, and an unknown id adds
// nothing. Acks never add or drop alerts.
func TestAckPersists(t *testing.T) {
	root := seed(t)
	path := filepath.Join(root, ackFile)
	alerts(t, "-root", root, "ack", "-id", "p0-1-0")
	if got := alerts(t, "-root", root, "ack", "-id", "p0-1-0"); got != "acknowledged p0-1-0\n" {
		t.Fatalf("second ack of p0-1-0: %q", got)
	}
	before, _ := os.ReadFile(path)
	if err := run([]string{"-root", root, "ack", "-id", "p0-9-0"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Fatal("ack of an unknown id succeeded")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatal("a failed ack changed the ack file")
	}
	if frames, _, stop, err := framelog.Scan(path, maxAck, func([]byte) {}); err != nil || stop != nil || frames != 2 {
		t.Fatalf("the ack file holds %d frames, then %v (%v), want the two acks", frames, stop, err)
	}
	if all := listing(t, root); len(all) != 4 {
		t.Fatalf("list shows %d alerts after the acks, want 4", len(all))
	}
	if open := listing(t, root, "-open"); len(open) != 2 || open["p1-1-0"] == "" || open["p1-2-0"] == "" {
		t.Fatalf("open alerts after acking p0-1-0 and p0-1-1: %v", open)
	}
}

// Commits appended after a listing — to a partition's log, past its last
// offset, and to a partition that had none — show in the next one, in
// partition and offset order, under the filters.
func TestListSeesNewCommits(t *testing.T) {
	root := seed(t)
	at := time.Date(2023, 5, 2, 0, 0, 0, 0, time.UTC)
	writeCommits(t, root, 0, []*core.Report{{System: "SystemA", Score: 0.8, Timestamp: at}})
	writeCommits(t, root, 3, []*core.Report{{System: "SystemB", Score: 0.7, Timestamp: at.Add(time.Hour)}, {System: "SystemA", Score: 0.97, Timestamp: at.Add(2 * time.Hour)}})
	if got, want := alerts(t, "-root", root, "list", "-open"), "p0-1-0 SystemA score=0.950 2023-05-01T12:00:00 [open]\n"+
		"p0-2-0 SystemA score=0.800 2023-05-02T00:00:00 [open]\n"+
		"p1-1-0 SystemA score=0.620 2023-05-01T14:00:00 [open]\n"+
		"p1-2-0 SystemB score=0.990 2023-05-01T15:00:00 [open]\n"+
		"p3-1-0 SystemB score=0.700 2023-05-02T01:00:00 [open]\n"+
		"p3-1-1 SystemA score=0.970 2023-05-02T02:00:00 [open]\n"; got != want {
		t.Fatalf("list -open after new commits:\n%s\nwant:\n%s", got, want)
	}
	if got, want := alerts(t, "-root", root, "list", "-system", "SystemA", "-min-score", "0.9"), "p0-1-0 SystemA score=0.950 2023-05-01T12:00:00 [open]\n"+
		"p3-1-1 SystemA score=0.970 2023-05-02T02:00:00 [open]\n"; got != want {
		t.Fatalf("list -system SystemA -min-score 0.9:\n%s\nwant:\n%s", got, want)
	}
}

// An ack file that is no framed ack log — a JSON-lines alert store from
// before the framing, moved to the ack path — fails list and ack, naming
// the file, and is left byte-identical.
func TestForeignAckFileRefused(t *testing.T) {
	root := seed(t)
	path := filepath.Join(root, ackFile)
	var jsonLines []byte
	for id := 1; id <= 3; id++ {
		line, err := json.Marshal(map[string]any{"id": id, "report": core.Report{System: "SystemA", Score: 0.9}, "acknowledged": id == 2})
		if err != nil {
			t.Fatal(err)
		}
		jsonLines = append(append(jsonLines, line...), '\n')
	}
	if err := os.WriteFile(path, jsonLines, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"list"}, {"ack", "-id", "p0-1-0"}} {
		err := run(append([]string{"-root", root}, args...), &bytes.Buffer{}, &bytes.Buffer{})
		var usage usageError
		if err == nil || errors.As(err, &usage) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "not an ack file") {
			t.Fatalf("%s over a JSON-lines store: %v, want a failure naming %s no ack file", args[0], err, path)
		}
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(jsonLines, after) {
		t.Fatal("the command changed the JSON-lines store")
	}
}

// A -root that is a regular file, or lies under a directory that does
// not exist, fails list and ack (exit 1, naming the root) and writes
// nothing.
func TestRootNotADirectory(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "alerts.log")
	if err := os.WriteFile(file, []byte("not a root\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{file, filepath.Join(dir, "nonexistent-dir", "root")} {
		for _, args := range [][]string{{"list"}, {"ack", "-id", "p0-1-0"}} {
			err := run(append([]string{"-root", root}, args...), &bytes.Buffer{}, &bytes.Buffer{})
			var usage usageError
			if err == nil || errors.As(err, &usage) || !strings.Contains(err.Error(), root) {
				t.Errorf("alerts -root %s %s: %v, want a failure naming the root", root, args[0], err)
			}
		}
	}
	if got := snapshot(t, dir); len(got) != 1 || got[file] != "not a root\n" {
		t.Fatalf("the commands left %v", got)
	}
}

// Reading changes nothing under the root: list, an ack of an acked id and
// a refused ack leave every commit-log segment — a torn one included —
// and the ack file byte-identical.
func TestListLeavesRootUnchanged(t *testing.T) {
	root := seed(t)
	f, err := os.OpenFile(newestSegment(t, root, 1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{64, 0, 0, 0, 1, 2, 3})
	f.Close()
	before := snapshot(t, root)

	alerts(t, "-root", root, "list")
	alerts(t, "-root", root, "list", "-open", "-limit", "1")
	alerts(t, "-root", root, "ack", "-id", "p0-1-1")
	if err := run([]string{"-root", root, "ack", "-id", "p1-3-0"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Fatal("ack of an id past the torn tail succeeded")
	}
	if after := snapshot(t, root); !reflect.DeepEqual(before, after) {
		t.Fatalf("reading changed the root: %d files before, %d after", len(before), len(after))
	}
}

// A commit cut short — half a frame header at the end of a partition's
// newest segment — is dropped from the listing; once the log is opened
// again and the next commit appended, that commit takes the next offset
// and is listed after the intact ones.
func TestTornCommitTailDropped(t *testing.T) {
	root := seed(t)
	want := alerts(t, "-root", root, "list")
	f, err := os.OpenFile(newestSegment(t, root, 1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, framelog.HeaderSize/2))
	f.Close()
	if got := alerts(t, "-root", root, "list"); got != want {
		t.Fatalf("list over a torn commit:\n%s\nwant the intact alerts:\n%s", got, want)
	}
	writeCommits(t, root, 1, []*core.Report{{System: "SystemA", Score: 0.6, Timestamp: time.Date(2023, 5, 1, 16, 0, 0, 0, time.UTC)}})
	if got := alerts(t, "-root", root, "list"); got != want+"p1-3-0 SystemA score=0.600 2023-05-01T16:00:00 [open]\n" {
		t.Fatalf("list after the next commit:\n%s", got)
	}
}

// liveBodies are line shapes the parser masks to one template each.
var liveBodies = []string{
	"gc freed %d",
	"cache hit key 0x%08x",
	"job %d queued on partition %d",
	"query ok rows %d in %d ms",
	"connection accepted from 10.0.%d.%d port 443 tls on",
	"rpc deadline exceeded method Charge dur %d ms budget %d ms",
}

// liveLines renders n fixed-seed lines over eight stream keys.
func liveLines(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	lines := make([]string, n)
	for i := range lines {
		body := liveBodies[rng.Intn(len(liveBodies))]
		args := []any{rng.Intn(1000), rng.Intn(1000)}
		lines[i] = fmt.Sprintf("%d %s", 7001+rng.Intn(8), fmt.Sprintf(body, args[:strings.Count(body, "%")]...))
	}
	return lines
}

// openLive opens a runtime at root with retention off, whose untrained
// model alerts on plenty of windows, delivering into sink.
func openLive(t *testing.T, root string, shards int, sink pipeline.Sink) *shard.Runtime {
	t.Helper()
	ccfg := core.DefaultConfig()
	det := core.NewDetector(core.NewModel(ccfg, 2),
		&repr.EventTable{System: "SystemX", Dim: ccfg.EmbedDim, Vectors: tensor.New(0, ccfg.EmbedDim)})
	rt, err := shard.Open(shard.Config{
		Shards:   shards,
		Dir:      root,
		Broker:   broker.Config{SegmentBytes: 4 << 10, Fsync: broker.FsyncNever, DisableRetention: true},
		Pipeline: pipeline.DefaultConfig("a sharded test deployment"),
		Detector: det,
		Interp:   lei.NewSimLLM(lei.Config{}),
		Embedder: embed.New(ccfg.EmbedDim),
		Sink:     sink,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// feedLive appends lines in batches and waits until every alert they
// raise is delivered.
func feedLive(t *testing.T, rt *shard.Runtime, lines []string) {
	t.Helper()
	for i := 0; i < len(lines); i += 50 {
		if _, err := rt.AppendBatch(lines[i:min(i+50, len(lines))]); err != nil {
			t.Errorf("AppendBatch: %v", err)
			return
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Errorf("Drain: %v", err)
	}
}

// listing runs list over root and returns its rows by id, failing on a
// repeated id.
func listing(t *testing.T, root string, flags ...string) map[string]string {
	t.Helper()
	rows := map[string]string{}
	for _, row := range strings.Split(strings.TrimSpace(alerts(t, append([]string{"-root", root, "list"}, flags...)...)), "\n") {
		id, rest, _ := strings.Cut(row, " ")
		if _, dup := rows[id]; dup {
			t.Fatalf("list printed %s twice", id)
		}
		if id != "" {
			rows[id] = rest
		}
	}
	return rows
}

// The command over a live root: while a runtime (retention off) appends
// to its commit logs, and across a 3→2 shrink that retires p2, list shows
// every alert the sink received exactly once; an ack holds across a
// runtime restart and a fresh invocation; a torn commit-log tail is no
// error, and a corrupt frame is refused by file and byte.
func TestListLiveRoot(t *testing.T) {
	root, sink := t.TempDir(), &pipeline.MemorySink{}
	lines := liveLines(5, 2400)
	rt := openLive(t, root, 3, sink)
	feedLive(t, rt, lines[:600])

	done := make(chan struct{})
	go func() {
		defer close(done)
		feedLive(t, rt, lines[600:1200])
	}()
	for reads := 0; ; reads++ {
		listing(t, root)
		select {
		case <-done:
		default:
			continue
		}
		t.Logf("listed %d times while the runtime appended", reads+1)
		break
	}
	if _, err := rt.LiveRebalance(2); err != nil {
		t.Fatal(err)
	}
	feedLive(t, rt, lines[1200:1800])

	rows := listing(t, root)
	var got, want []string
	retired := 0
	for id, row := range rows {
		got = append(got, strings.TrimSuffix(row, " [open]"))
		if strings.HasPrefix(id, "p2-") {
			retired++
		}
	}
	for _, r := range sink.Reports() {
		want = append(want, fmt.Sprintf("%s score=%.3f %s", r.System, r.Score, r.Timestamp.Format("2006-01-02T15:04:05")))
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(want) == 0 || retired == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("list shows %d alerts (%d from the retired p2), the sink received %d", len(got), retired, len(want))
	}
	t.Logf("list shows the %d alerts the sink received, %d from the retired p2", len(got), retired)

	var acked []string
	for id := range rows {
		if len(acked) == 0 || (strings.HasPrefix(id, "p2-") && len(acked) == 1) {
			alerts(t, "-root", root, "ack", "-id", id)
			acked = append(acked, id)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	rt = openLive(t, root, 2, sink)
	feedLive(t, rt, lines[1800:])
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	after := listing(t, root)
	if len(after) != len(sink.Reports()) {
		t.Fatalf("after the restart list shows %d alerts, the sink received %d", len(after), len(sink.Reports()))
	}
	for _, id := range acked {
		if want := strings.TrimSuffix(rows[id], "[open]") + "[acked]"; after[id] != want {
			t.Fatalf("%s after the restart: %q, want %q", id, after[id], want)
		}
	}
	if open := listing(t, root, "-open"); len(open) != len(after)-len(acked) {
		t.Fatalf("%d open alerts of %d, %d acked", len(open), len(after), len(acked))
	}

	segs, err := filepath.Glob(filepath.Join(shard.PartitionDir(root, 0), "commits", "*.wal"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("p0's commit log has segments %v (%v)", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{200, 0, 0, 0, 1, 2})
	f.Close()
	if torn := listing(t, root); !reflect.DeepEqual(torn, after) {
		t.Fatalf("over a torn tail list shows %d alerts, want %d", len(torn), len(after))
	}

	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[framelog.HeaderSize+1] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-root", root, "list"}, &bytes.Buffer{}, &bytes.Buffer{})
	if want := segs[0] + " at byte 0"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("list over a corrupt frame: %v, want a refusal naming %q", err, want)
	}
}
