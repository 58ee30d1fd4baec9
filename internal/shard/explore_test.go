package shard

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/core"
	"logsynergy/internal/fault"
	"logsynergy/internal/framelog"
	"logsynergy/internal/logdata"
	"logsynergy/internal/pipeline"
)

// The explorer: crash schedules drawn from a seed, checked against the
// unsharded reference. A schedule picks a shard count, a WAL segment
// size, a stretch of seeded traffic and the prefix of it sent before the
// crash, one fault rule at one of the runtime's named points on one
// partition, two points in the prefix where the traffic pauses until the
// runtime has gone quiet (and committed, and maybe taken a snapshot), and
// a kill point counted in lines fed to detection. The runtime takes the prefix under the fault
// and is killed where it stands once its workers have fed that many
// lines, without a Drain; a reopen without the fault takes the rest and
// drains. A drawn share of schedules also walks the runtime to other
// partition counts with liveRebalance at one of the quiet points — a grow
// by one or two, a shrink by one or two, or a shrink and a regrow over the
// directories the shrink retired — and some of those walks fail at a drawn
// cutover phase: the runtime is then killed at once, and the reopen is at
// the journal's target, which finishes the cutover before it serves. A
// schedule at one shard that walks nowhere sends a paper corpus (BGL,
// Thunderbird or SystemA, cut to the drawn length) instead of the
// generated traffic: its bodies share Drain leaves, so a restart that
// parsed a line a second time could mint another template than the
// reference did.
// Whatever the schedule, the outcome must be the reference's:
//
//   - every key's window scores, bit for bit: what was scored before the
//     kill is a prefix of the key's reference sequence, what was scored
//     after it a suffix, and together they cover it (a window re-scored
//     across the kill may appear in both);
//   - every reference alert reaches the sink, and an alert arrives twice
//     only if it was delivered before the kill from a commit the sink
//     group had not committed yet (a kill between a Notify and the sink
//     group's commit);
//   - no acknowledged line is lost: every key ends with the reference's
//     window tail;
//   - every partition's commit position is its WAL tail;
//   - no cutover journal is left once the reopened runtime serves.
//
// A failing schedule names the command that replays it.

var (
	exploreSeed = flag.Int64("seed", 0, "run only this explorer schedule (TestExplore)")
	exploreRuns = flag.Int("explore", 4, "number of explorer schedules TestExplore runs")
)

// explorePoints are the fault points a schedule draws from. The
// interpreter fault is transient (never twice in a row), so the pipeline's
// retries absorb it and scores stay the reference's. A failing snapshot
// leaves commits past the snapshot, so a kill lands between a commit and
// its snapshot and the reopen replays across them.
var explorePoints = []string{
	broker.PointAppend, broker.PointFsync, broker.PointRead,
	PointCommit, PointSnapshot, pipeline.PointSink, pipeline.PointInterpret,
}

// exploreAfter bounds how many calls a point sees before its rule may
// fire: each point is called at its own rate (a read per record, a commit
// per stride), and a rule past the traffic never fires.
var exploreAfter = map[string]int{
	broker.PointAppend: 12, broker.PointFsync: 3, broker.PointRead: 400,
	PointCommit: 3, PointSnapshot: 2, pipeline.PointSink: 30, pipeline.PointInterpret: 6,
}

// schedule is one explored crash schedule.
type schedule struct {
	seed    int64
	shards  int
	segment int64  // WAL segment bytes: small ones roll, seal and retain often
	corpus  string // the paper corpus lines was cut from; "" for generated traffic
	lines   []string
	prefix  int   // lines sent before the kill
	pauses  []int // lines sent before each pause for quiet
	kill    int   // lines fed to detection before the kill
	faulted int   // the partition the rule is armed on
	rule    fault.Rule
	// walk lists the partition counts liveRebalance moves the runtime to,
	// in order, at quiet point walkAt (none when empty); crashStep, when
	// not -1, is the step whose hook fails at crashPhase.
	walk       []int
	walkAt     int
	crashStep  int
	crashPhase string
}

// walkPhases are the cutover hook points a walk's crash is drawn from.
var walkPhases = []string{"begun", "tail-landed", "staged", "committed", "finish"}

func (s schedule) String() string {
	str := fmt.Sprintf("seed %d: %d shards, %d-byte segments, %d lines, %d sent (quiet after %v) before a kill after %d fed, %s on partition %d (after %d, every %d, limit %d)",
		s.seed, s.shards, s.segment, len(s.lines), s.prefix, s.pauses, s.kill, s.rule.Point, s.faulted, s.rule.After, s.rule.Every, s.rule.Limit)
	if s.corpus != "" {
		str += fmt.Sprintf(", traffic from the %s corpus", s.corpus)
	}
	if len(s.walk) > 0 {
		str += fmt.Sprintf(", a walk to %v at quiet point %d", s.walk, s.walkAt)
		if s.crashStep >= 0 {
			str += fmt.Sprintf(" failing step %d at %q", s.crashStep, s.crashPhase)
		}
	}
	return str
}

// drawSchedule derives a schedule from its seed.
func drawSchedule(seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	s := schedule{seed: seed, shards: 1 + rng.Intn(4), segment: 4096 << (8 * rng.Intn(2))}
	s.lines = genEqLines(seed, 300+rng.Intn(700), eqKeys(4+rng.Intn(9)))
	s.prefix = 1 + rng.Intn(len(s.lines)-1)
	s.pauses = []int{rng.Intn(s.prefix + 1), rng.Intn(s.prefix + 1)}
	sort.Ints(s.pauses)
	s.kill = s.pauses[1] + rng.Intn(s.prefix-s.pauses[1]+1)
	s.faulted = rng.Intn(s.shards)
	point := explorePoints[rng.Intn(len(explorePoints))]
	s.rule = fault.Rule{
		Point: point,
		After: uint64(rng.Intn(exploreAfter[point] + 1)),
		Every: uint64(1 + rng.Intn(4)),
		Limit: uint64(rng.Intn(6)), // 0 = unlimited
		Err:   errors.New("explored fault"),
	}
	switch s.rule.Point {
	case pipeline.PointInterpret:
		s.rule.Every = 2 + uint64(rng.Intn(3))
	case broker.PointAppend, broker.PointFsync:
		// A rejected append is sent again: the rule must let it through.
		if s.rule.Every == 1 && s.rule.Limit == 0 {
			s.rule.Limit = 5
		}
	}
	s.crashStep = -1
	if rng.Intn(5) < 2 {
		if s.shards == 1 {
			spec := []*logdata.SystemSpec{logdata.BGL(), logdata.Thunderbird(), logdata.SystemA()}[rng.Intn(3)]
			s.corpus, s.lines = spec.Name, paperCorpus(spec)[:len(s.lines)]
		}
		return s
	}
	k := 1 + rng.Intn(2)
	switch kind := rng.Intn(3); {
	case kind == 0 || s.shards == 1:
		s.walk = []int{s.shards + k}
	case kind == 1:
		s.walk = []int{max(1, s.shards-k)}
	default:
		s.walk = []int{max(1, s.shards-k), s.shards}
	}
	s.walkAt = rng.Intn(len(s.pauses))
	if rng.Intn(2) == 0 {
		s.crashStep = rng.Intn(len(s.walk))
		s.crashPhase = walkPhases[rng.Intn(len(walkPhases))]
	}
	return s
}

func TestExplore(t *testing.T) {
	seeds := make([]int64, *exploreRuns)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *exploreSeed != 0 {
		seeds = []int64{*exploreSeed}
	}
	for _, seed := range seeds {
		s := drawSchedule(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("%v\nreplay: cd internal/shard && go test -run TestExplore -seed %d", s, seed)
				}
			})
			explore(t, s)
		})
	}
}

// explore runs one schedule and checks its outcome.
func explore(t *testing.T, s schedule) {
	ref := runReference(t, s.lines)
	dir := t.TempDir()
	freg := fault.New(s.seed)
	freg.SetSleep(noSleep)
	freg.Enable(s.rule)
	withFaults := func(cfg *Config) {
		cfg.Broker = broker.Config{SegmentBytes: s.segment}
		cfg.Pipeline.Resilience = pipeline.ResilienceConfig{
			RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond, Sleep: noSleep}
		cfg.ShardFaults = func(i int) *fault.Registry {
			if i == s.faulted {
				return freg
			}
			return nil
		}
	}
	h := openHarness(t, dir, s.shards, withFaults)
	sent, prefix, walked := 0, s.prefix, false
	for i, p := range s.pauses {
		feedAcked(t, h.rt, s.lines[sent:p])
		awaitFed(h.rt, math.MaxInt)
		sent = p
		if i == s.walkAt && len(s.walk) > 0 && !exploreWalk(h.rt, s) {
			// The walk stopped partway: this is the kill.
			prefix, walked = sent, true
			break
		}
	}
	if !walked {
		feedAcked(t, h.rt, s.lines[sent:s.prefix])
		awaitFed(h.rt, s.kill)
	}
	shards := h.rt.Shards()
	h.rt.Kill()
	before := h.result()
	uncommitted := map[string]int{}
	dirs, err := filepath.Glob(filepath.Join(dir, "p*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pdir := range dirs {
		for sig, n := range alertSigs(undeliveredCommits(t, pdir)) {
			uncommitted[sig] += n
		}
	}

	// A journal left by the walk pins the reopen to its target.
	j, err := LoadCutoverJournal(filepath.Join(dir, CutoverJournalName))
	if err != nil {
		t.Fatal(err)
	}
	if j != nil {
		shards = j.To
	}
	after := openHarness(t, dir, shards, func(cfg *Config) {
		withFaults(cfg)
		cfg.ShardFaults = nil
	})
	defer after.rt.Close()
	if _, err := os.Stat(filepath.Join(dir, CutoverJournalName)); !os.IsNotExist(err) {
		t.Fatalf("the cutover journal is still there after the reopen (stat: %v)", err)
	}
	feedAcked(t, after.rt, s.lines[prefix:])
	after.drain(t)

	for _, h := range after.rt.Health() {
		if h.Committed != h.NextOffset-1 {
			t.Fatalf("partition %d drained with its commit at %d and its WAL tail at %d", h.Partition, h.Committed, h.NextOffset-1)
		}
	}
	// Window scores: a prefix before the kill, a suffix after, covering.
	got := after.result()
	for key, want := range ref.scores {
		pre, post := before.scores[key], got.scores[key]
		if len(pre) > len(want) || len(post) > len(want) || len(pre)+len(post) < len(want) {
			t.Fatalf("key %s: %d windows before the kill and %d after, the reference scored %d", key, len(pre), len(post), len(want))
		}
		for i, sc := range pre {
			if sc != want[i] {
				t.Fatalf("key %s window %d before the kill: score %v, reference %v", key, i, sc, want[i])
			}
		}
		for i, sc := range post {
			if j := len(want) - len(post) + i; sc != want[j] {
				t.Fatalf("key %s window %d after the kill: score %v, reference %v", key, j, sc, want[j])
			}
		}
	}
	for key := range got.scores {
		if _, ok := ref.scores[key]; !ok {
			t.Fatalf("key %s scored windows the reference never formed", key)
		}
	}
	// Alerts: every reference alert, and a duplicate only of one the sink
	// took before the kill from a commit its group had not committed.
	pre := alertSigs(h.sink.Reports())
	total := alertSigs(after.sink.Reports())
	for sig, n := range pre {
		total[sig] += n
	}
	for sig, n := range total {
		if want := ref.alerts[sig]; n < want || n > want+min(pre[sig], uncommitted[sig]) {
			t.Fatalf("alert %q reached the sink %d times (%d before the kill, %d in commits the sink group had not committed), the reference raised it %d times",
				sig[:min(len(sig), 60)], n, pre[sig], uncommitted[sig], want)
		}
	}
	for sig, want := range ref.alerts {
		if total[sig] < want {
			t.Fatalf("alert %q reached the sink %d times, the reference raised it %d times", sig[:min(len(sig), 60)], total[sig], want)
		}
	}
	// Acknowledged lines: every key ends on the reference's window tail.
	// One partition that never walked numbers its events as the reference
	// does, so its ids must match too.
	tails, sameIDs := ref.tails, s.shards == 1 && len(s.walk) == 0
	for _, pt := range after.rt.partitions() {
		pt.feedMu.Lock()
		for key, tail := range pt.keyed.Tails() {
			want := tails[key]
			if sameIDs && !reflect.DeepEqual(tail, want) || !sameTail(tail, pt.pipe.Parser(), want, ref.parser) {
				pt.feedMu.Unlock()
				t.Fatalf("key %s ends on window tail %v, the reference on %v", key, tail, want)
			}
			delete(tails, key)
		}
		pt.feedMu.Unlock()
	}
	if len(tails) > 0 {
		keys := make([]string, 0, len(tails))
		for k := range tails {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		t.Fatalf("keys %v lost their window tails", keys)
	}
}

// exploreWalk moves rt along s.walk, reporting whether every step
// finished. A step fails at its drawn crash phase, or wherever the armed
// fault stops it.
func exploreWalk(rt *Runtime, s schedule) bool {
	for step, to := range s.walk {
		_, err := rt.liveRebalance(to, func(phase, _ string) error {
			if step == s.crashStep && phase == s.crashPhase {
				return errors.New("explored cutover crash")
			}
			return nil
		})
		if err != nil {
			return false
		}
	}
	return true
}

// undeliveredCommits reads the alerts of the commits in partition
// directory dir's commit log that its sink group has not committed.
func undeliveredCommits(t *testing.T, dir string) (alerts []*core.Report) {
	t.Helper()
	log := filepath.Join(dir, commitLogName)
	var offsets struct{ Groups map[string]uint64 }
	if data, err := os.ReadFile(filepath.Join(log, "offsets.json")); err == nil {
		if err := json.Unmarshal(data, &offsets); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(log, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs { // the names sort by base offset
		off, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(seg), ".wal"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := framelog.Scan(seg, broker.MaxRecordBytes, func(p []byte) {
			if rec, err := decodeCommit(string(p)); err == nil && off > offsets.Groups[sinkGroup] {
				alerts = append(alerts, rec.Alerts...)
			}
			off++
		}); err != nil {
			t.Fatal(err)
		}
	}
	return alerts
}

// feedAcked appends lines in batches the way the fleet router does: the
// lines a batch's answer names as rejected are sent again, alone, until
// they are acknowledged, before anything later is sent.
func feedAcked(t *testing.T, rt *Runtime, lines []string) {
	t.Helper()
	const batch = 48
	for i := 0; i < len(lines); i += batch {
		todo := lines[i:min(i+batch, len(lines))]
		for try := 0; len(todo) > 0; try++ {
			if try == 200 {
				t.Fatalf("%d lines still rejected after %d tries", len(todo), try)
			}
			resp, _ := rt.AppendBatch(todo)
			retry := make([]string, 0, len(resp.RejectedLines))
			for _, j := range resp.RejectedLines {
				retry = append(retry, todo[j])
			}
			todo = retry
		}
	}
}

// awaitFed returns once the runtime's workers have fed n lines to
// detection, or can feed no more: every worker has stopped, or waits at
// the end of its log past its idle commit.
func awaitFed(rt *Runtime, n int) {
	for rt.Stats().LinesCollected < n {
		stuck := true
		for _, pt := range rt.partitions() {
			pt.feedMu.Lock()
			consumed := pt.consumed
			pt.feedMu.Unlock()
			stuck = stuck && (pt.finished() || pt.idle.Load() && consumed == pt.bk.NextOffset()-1)
		}
		if stuck {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}
