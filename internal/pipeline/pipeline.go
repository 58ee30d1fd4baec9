// Package pipeline implements LogSynergy's production deployment workflow
// (paper §VI, Fig. 7) as an in-process streaming system:
//
//	Collection: a parser stage (Logstash analogue) structures raw lines
//	with Drain and segments each stream key with the sliding window
//	(10 logs, 5-step shift). The Kafka-analogue buffer in front of it is
//	the shard runtime's WAL; Run feeds an in-memory source directly.
//
//	Detection: each completed sequence is first matched against a pattern
//	library of previously scored sequences; only new patterns reach the
//	offline-trained LogSynergy model, minimizing redundant inference.
//
//	Report: detected anomalies become reports carrying the original
//	sequence, LEI interpretations and metadata, fanned out to sinks (the
//	SMS/email analogues).
//
// Every stage is instrumented through an obs.Registry (Config.Metrics):
// per-stage counters, a pattern-library gauge, and a detect-batch
// latency histogram, so a long-running deployment can be observed live
// via obs.Snapshot() or the logsynergy serve /metrics endpoint.
//
// Every stage call also runs under the fault-tolerance layer
// (resilience.go): named injection points (PointParse …PointDetect) for
// deterministic chaos rehearsal, per-stage retries with exponential
// backoff and jitter, per-call timeouts, a circuit breaker on the
// interpreter, and graceful degradation — LEI failure falls back to
// template-text interpretation. Reports go to the sinks as they are
// raised; making them durable and retrying a failing alert channel is the
// shard runtime's job (its commit log and delivery loop).
package pipeline

import (
	"container/list"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/fault"
	"logsynergy/internal/lei"
	"logsynergy/internal/obs"
)

// Source supplies raw log lines. Next returns false when the stream ends.
type Source interface {
	Next() (string, bool)
}

// SliceSource replays a fixed slice of lines.
type SliceSource struct {
	lines []string
	pos   int
}

// NewSliceSource wraps lines as a Source.
func NewSliceSource(lines []string) *SliceSource { return &SliceSource{lines: lines} }

// Next implements Source.
func (s *SliceSource) Next() (string, bool) {
	if s.pos >= len(s.lines) {
		return "", false
	}
	l := s.lines[s.pos]
	s.pos++
	return l, true
}

// Sink receives anomaly reports (the SMS/email channel analogue).
type Sink interface {
	Notify(r *core.Report)
}

// MemorySink collects reports in memory (test and example sink).
type MemorySink struct {
	mu      sync.Mutex
	reports []*core.Report
}

// Notify implements Sink.
func (m *MemorySink) Notify(r *core.Report) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reports = append(m.reports, r)
}

// Reports returns a snapshot of received reports.
func (m *MemorySink) Reports() []*core.Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*core.Report(nil), m.reports...)
}

// Stats is a typed view of the pipeline's twelve pipeline.* obs counters
// (Config.Metrics): each field is the growth of one counter since New.
type Stats struct {
	// LinesCollected counts raw lines fed to the pipeline.
	LinesCollected int
	// SequencesFormed counts completed sliding windows.
	SequencesFormed int
	// PatternHits counts sequences answered from the pattern library.
	PatternHits int
	// PatternMisses counts sequences that required model inference.
	PatternMisses int
	// PatternEvictions counts LRU evictions from the pattern library.
	PatternEvictions int
	// Anomalies counts reported anomalous sequences.
	Anomalies int
	// NewEvents counts templates first seen online.
	NewEvents int

	// Retries counts stage-call retries across all guarded stages.
	Retries int
	// Degraded counts LEI failures that fell back to template-text
	// interpretation.
	Degraded int
	// BreakerOpens counts interpreter circuit-breaker open transitions.
	BreakerOpens int
	// ParseFailures counts lines abandoned after the parse or embed
	// stage terminally failed (the line is skipped; windows continue
	// from the next line).
	ParseFailures int
	// DetectFailures counts windows abandoned after the detect stage
	// terminally failed.
	DetectFailures int
}

// PatternLibrary caches per-pattern verdicts: a pattern is the exact event
// id sequence. Real deployments key historical anomaly patterns the same
// way; the cache also suppresses redundant inference on the dominant
// repeating patterns (paper §VI-A "Detection"). When Cap is set the
// library evicts in LRU order (map + doubly-linked list), so a workload
// shift replaces stale patterns instead of freezing the cache on the
// first Cap entries seen.
type PatternLibrary struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	// Cap bounds the library size; 0 = unbounded.
	Cap int
}

// libEntry is one cached pattern; list.Element.Value holds *libEntry.
type libEntry struct {
	key   string
	score float64
}

// NewPatternLibrary creates a library with the given capacity (0 = unbounded).
func NewPatternLibrary(capacity int) *PatternLibrary {
	return &PatternLibrary{
		entries: make(map[string]*list.Element),
		order:   list.New(),
		Cap:     capacity,
	}
}

// Lookup returns the cached score for the pattern, refreshing its LRU
// position on a hit.
func (p *PatternLibrary) Lookup(eventIDs []int) (float64, bool) {
	s, ok, _ := p.LookupOrKey(eventIDs)
	return s, ok
}

// LookupOrKey is Lookup plus the rendered map key, so the hot online loop
// can follow a miss with StoreKey without rendering the key a second time.
func (p *PatternLibrary) LookupOrKey(eventIDs []int) (score float64, ok bool, key string) {
	key = patternKey(eventIDs)
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, hit := p.entries[key]; hit {
		p.order.MoveToFront(el)
		return el.Value.(*libEntry).score, true, key
	}
	return 0, false, key
}

// Store records a verdict, evicting the least recently used pattern when
// the library is at Cap. It reports whether an eviction occurred.
func (p *PatternLibrary) Store(eventIDs []int, score float64) bool {
	return p.StoreKey(patternKey(eventIDs), score)
}

// StoreKey is Store for a key already rendered by LookupOrKey.
func (p *PatternLibrary) StoreKey(key string, score float64) (evicted bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.entries[key]; ok {
		el.Value.(*libEntry).score = score
		p.order.MoveToFront(el)
		return false
	}
	p.entries[key] = p.order.PushFront(&libEntry{key: key, score: score})
	if p.Cap > 0 && len(p.entries) > p.Cap {
		oldest := p.order.Back()
		p.order.Remove(oldest)
		delete(p.entries, oldest.Value.(*libEntry).key)
		return true
	}
	return false
}

// patternKey renders an event-id sequence as the library's map key.
func patternKey(ids []int) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(id))
	}
	return b.String()
}

// parsePatternKey inverts patternKey. It reports false for keys not in
// the rendered format (defensive: the library only ever stores keys it
// rendered itself).
func parsePatternKey(key string) ([]int, bool) {
	if key == "" {
		return nil, false
	}
	parts := strings.Split(key, ",")
	seq := make([]int, len(parts))
	for i, s := range parts {
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, false
		}
		seq[i] = n
	}
	return seq, true
}

// PatternEntry is one exported pattern-library verdict: the event-id
// sequence and its cached score. Event ids are only meaningful alongside
// the parser state that assigned them, so entries live only beside a
// snapshot's events, and a restart imports both; a move hands over no
// verdicts.
type PatternEntry struct {
	Seq   []int   `json:"seq"`
	Score float64 `json:"score"`
}

// Export snapshots every cached verdict, least recently used first, so
// importing the slice in order rebuilds both the verdicts and the LRU
// order exactly.
func (p *PatternLibrary) Export() []PatternEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PatternEntry, 0, len(p.entries))
	for el := p.order.Back(); el != nil; el = el.Prev() {
		le := el.Value.(*libEntry)
		seq, ok := parsePatternKey(le.key)
		if !ok {
			continue
		}
		out = append(out, PatternEntry{Seq: seq, Score: le.score})
	}
	return out
}

// Import stores every entry in order, respecting Cap and LRU eviction.
// Combined with Export's least-recent-first ordering this restores the
// library bit-for-bit; on a smaller Cap the oldest entries evict first,
// exactly as if they had been stored live.
func (p *PatternLibrary) Import(entries []PatternEntry) {
	for _, e := range entries {
		p.Store(e.Seq, e.Score)
	}
}

// Size returns the number of cached patterns.
func (p *PatternLibrary) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Config assembles a pipeline. Every stream is segmented with
// window.Default() (paper: length 10, step 5), the shape the model is
// trained on.
type Config struct {
	// SystemHint feeds LEI prompts for events first seen online.
	SystemHint string
	// PatternCap bounds the pattern library (0 = unbounded); over-cap
	// inserts evict the least recently used pattern.
	PatternCap int
	// DisablePatternLibrary forces model inference on every sequence
	// (ablation for the deployment benchmark).
	DisablePatternLibrary bool
	// DetectBatch caps how many completed windows are scored together in
	// one parallel flush (0 = 2× the tensor worker count). The caller
	// flushes early whenever its source runs dry (the shard runtime's
	// partition worker does; Run flushes at end of stream), so batching
	// adds no latency on a trickling stream; reports are always delivered
	// in input order. 1 forces the serial one-window-at-a-time path.
	DetectBatch int
	// Metrics receives the pipeline's counters, gauges and histograms
	// (nil = obs.Default()). Stats is read back from these counters as the
	// growth since New, so pipelines built one after the other may share a
	// registry, but two concurrently live pipelines must not: each would
	// report the other's events as its own.
	Metrics *obs.Registry
	// Faults is the injection registry consulted at the pipeline's named
	// injection points (nil = nothing injected; the disarmed check is one
	// atomic load).
	Faults *fault.Registry
	// Resilience tunes retries, timeouts and the interpreter breaker
	// (zero value = production defaults).
	Resilience ResilienceConfig
}

// DefaultConfig returns production defaults.
func DefaultConfig(systemHint string) Config {
	return Config{SystemHint: systemHint}
}

// counter is a registry counter plus its value when this pipeline was
// built. reg.Counter is get-or-create, so a registry that outlives one
// pipeline hands the next one counters that are already non-zero; since
// is what this pipeline added.
type counter struct {
	*obs.Counter
	base int64
}

func newCounter(reg *obs.Registry, name string) counter {
	c := reg.Counter(name)
	return counter{Counter: c, base: c.Value()}
}

func (c counter) since() int { return int(c.Value() - c.base) }

// pipelineObs caches the pipeline's metric handles so hot-path updates
// are single atomic operations.
type pipelineObs struct {
	linesCollected   counter
	sequencesFormed  counter
	patternHits      counter
	patternMisses    counter
	patternEvictions counter
	anomalies        counter
	newEvents        counter
	retries          counter
	breakerOpen      counter
	degraded         counter
	parseFailures    counter
	detectFailures   counter
	librarySize      *obs.Gauge
	detectBatch      *obs.Histogram
}

func newPipelineObs(reg *obs.Registry) pipelineObs {
	return pipelineObs{
		linesCollected:   newCounter(reg, "pipeline.lines_collected"),
		sequencesFormed:  newCounter(reg, "pipeline.sequences_formed"),
		patternHits:      newCounter(reg, "pipeline.pattern_hits"),
		patternMisses:    newCounter(reg, "pipeline.pattern_misses"),
		patternEvictions: newCounter(reg, "pipeline.pattern_evictions"),
		anomalies:        newCounter(reg, "pipeline.anomalies"),
		newEvents:        newCounter(reg, "pipeline.new_events"),
		retries:          newCounter(reg, "pipeline.retries_total"),
		breakerOpen:      newCounter(reg, "pipeline.breaker_open_total"),
		degraded:         newCounter(reg, "pipeline.degraded_total"),
		parseFailures:    newCounter(reg, "pipeline.parse_failures_total"),
		detectFailures:   newCounter(reg, "pipeline.detect_failures_total"),
		librarySize:      reg.Gauge("pipeline.pattern_library_size"),
		detectBatch:      reg.Histogram("pipeline.detect_batch_seconds"),
	}
}

// Pipeline wires collection, detection and reporting for one target system.
type Pipeline struct {
	cfg      Config
	parser   *drain.Parser
	detector *core.Detector
	interp   lei.Interpreter
	embedder *embed.Embedder
	library  *PatternLibrary
	sinks    []Sink
	om       pipelineObs
	retryer  *fault.Retryer // every guarded stage call
	breaker  *fault.Breaker // the interpreter's
}

// New creates a pipeline around a trained model. parser must be the same
// parser used to build the event table offline (its event-id space extends
// seamlessly online); interp and embedder must match the offline stages.
func New(cfg Config, parser *drain.Parser, det *core.Detector, interp lei.Interpreter, e *embed.Embedder, sinks ...Sink) *Pipeline {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	cfg.Resilience = cfg.Resilience.withDefaults()
	res := cfg.Resilience
	p := &Pipeline{
		cfg:      cfg,
		parser:   parser,
		detector: det,
		interp:   interp,
		embedder: e,
		library:  NewPatternLibrary(cfg.PatternCap),
		sinks:    sinks,
		om:       newPipelineObs(reg),
		breaker:  &fault.Breaker{Threshold: res.BreakerThreshold, Cooldown: res.BreakerCooldown, Now: res.Now},
	}
	p.retryer = res.Retryer()
	p.retryer.OnRetry = func(int, error) { p.om.retries.Inc() }
	return p
}

// Stats reads the counters. It is safe to call while Run or a Keyed feed
// is in progress: every field is one atomic load and never decreases.
func (p *Pipeline) Stats() Stats {
	// detectBatch adds a batch to sequencesFormed before it counts any of
	// the batch's outcomes, so reading the outcomes first keeps
	// hits + misses + failures <= SequencesFormed in a concurrent sample.
	hits, misses, failures := p.om.patternHits.since(), p.om.patternMisses.since(), p.om.detectFailures.since()
	return Stats{
		LinesCollected:   p.om.linesCollected.since(),
		SequencesFormed:  p.om.sequencesFormed.since(),
		PatternHits:      hits,
		PatternMisses:    misses,
		PatternEvictions: p.om.patternEvictions.since(),
		Anomalies:        p.om.anomalies.since(),
		NewEvents:        p.om.newEvents.since(),
		Retries:          p.om.retries.since(),
		Degraded:         p.om.degraded.since(),
		BreakerOpens:     p.om.breakerOpen.since(),
		ParseFailures:    p.om.parseFailures.since(),
		DetectFailures:   failures,
	}
}

// Library exposes the pattern library (diagnostics).
func (p *Pipeline) Library() *PatternLibrary { return p.library }

// Parser exposes the drain parser (state export, diagnostics).
func (p *Pipeline) Parser() *drain.Parser { return p.parser }

// SeededParser returns a fresh parser whose event i is the detector
// table's template i, so live event ids align with the table's rows. The
// templates are imported as saved groups, not parsed: Drain can merge two
// table templates when it parses them, which hands a live line another
// row's id and lets the first online mint take an existing row's id.
func SeededParser(det *core.Detector) *drain.Parser {
	seeds := make([]drain.SavedEvent, len(det.Table.Interps))
	for i, in := range det.Table.Interps {
		seeds[i] = drain.SavedEvent{ID: i, Template: in.Template, Example: in.Template, Count: 1}
	}
	p := drain.NewDefault()
	if err := p.Import(seeds); err != nil {
		panic(err) // unreachable: the parser is empty and the ids are contiguous
	}
	return p
}

// SyncTable extends the detector's event table to cover every template
// the parser currently knows, in event-id order, interpreting and
// embedding each exactly as online discovery did: from the template the
// event was minted with, not the one later messages widened. It is the
// one way the table grows: parseLine calls it for a line whose event id is
// past the table's end, and a restore or a cutover's merge calls it after
// importing parser state, so rows follow ids even when imported ids have
// no row yet. New templates are interpreted with breaker-guarded
// degradation (see interpret) and embedded under PointEmbed.
func (p *Pipeline) SyncTable() error {
	table := p.detector.Table
	for _, tpl := range p.parser.MintedTemplates(table.Len()) {
		in, id := p.interpret(tpl), table.Len()
		if err := p.guard(PointEmbed, 0, func() error {
			table.Extend(in, p.embedder)
			return nil
		}); err != nil {
			return fmt.Errorf("pipeline: extending event table for event %d: %w", id, err)
		}
	}
	return nil
}

// runKey is the one stream key Run feeds its Keyed under.
const runKey = ""

// Run feeds the source to exhaustion (or ctx cancellation) through a
// Keyed over one constant key, on the calling goroutine, and returns the
// final stats. Completed windows are scored in batches of up to
// cfg.DetectBatch with reports delivered in input order; the last partial
// batch flushes before Run returns, and every line Run takes from the
// source is fed. Run is the in-memory path — detect, the experiments, the
// examples: a source that must survive a crash goes through the shard
// runtime, which feeds a Keyed itself and commits window tails with its
// offsets.
func (p *Pipeline) Run(ctx context.Context, src Source) Stats {
	k := NewKeyed(p)
	for ctx.Err() == nil {
		line, ok := src.Next()
		if !ok {
			break
		}
		k.Feed(runKey, line)
	}
	k.Flush()
	return p.Stats()
}

// parseLine structures one raw line, extending the event table through
// SyncTable when its event id has no row yet; the rows that adds count as
// new events. Parsing runs under the fault layer: a parser panic or
// injected error is retried, and a terminally failed line is abandoned
// (reported false) rather than blocking the stream.
func (p *Pipeline) parseLine(line string) (int, bool) {
	var m drain.Match
	if err := p.guard(PointParse, 0, func() error {
		m = p.parser.Parse(line)
		return nil
	}); err != nil {
		p.om.parseFailures.Inc()
		return 0, false
	}
	if table := p.detector.Table; table.Len() <= m.EventID {
		rows := table.Len()
		err := p.SyncTable()
		p.om.newEvents.Add(int64(table.Len() - rows))
		if err != nil {
			// The table could not grow to cover this event id; scoring the
			// line would crash, so abandon it.
			p.om.parseFailures.Inc()
			return 0, false
		}
	}
	return m.EventID, true
}

// detectBatch scores a batch of sequences through the pattern library +
// model, preserving the serial one-at-a-time semantics: library hits (and
// duplicates of an earlier window in the same batch, which the serial path
// would have stored before reaching them) skip the model; the remaining
// unique patterns are scored in one parallel pass; then scores, library
// inserts, stats, and report delivery are applied in input order. Each
// pattern's map key is rendered exactly once (LookupOrKey → StoreKey).
// It returns every sequence's score in input order, plus an abandoned
// mask for windows whose detect stage terminally failed (their score
// entry is meaningless).
func (p *Pipeline) detectBatch(seqs [][]int) (batchScores []float64, abandoned []bool) {
	if len(seqs) == 0 {
		return nil, nil
	}
	start := time.Now()
	p.om.sequencesFormed.Add(int64(len(seqs)))

	n := len(seqs)
	scores := make([]float64, n)
	hit := make([]bool, n)
	keys := make([]string, n)
	dupOf := make([]int, n) // index of this pattern's first in-batch occurrence, or -1
	var missIdx []int       // batch indices that need the model
	firstSeen := make(map[string]int)
	for i, seq := range seqs {
		dupOf[i] = -1
		if !p.cfg.DisablePatternLibrary {
			cached, ok, k := p.library.LookupOrKey(seq)
			keys[i] = k
			if ok {
				scores[i], hit[i] = cached, true
				continue
			}
			if j, dup := firstSeen[k]; dup {
				dupOf[i], hit[i] = j, true
				continue
			}
			firstSeen[k] = i
		}
		missIdx = append(missIdx, i)
	}

	failed := make([]bool, n)
	if len(missIdx) > 0 {
		missSeqs := make([][]int, len(missIdx))
		for pos, i := range missIdx {
			missSeqs[pos] = seqs[i]
		}
		var missScores []float64
		err := p.guard(PointDetect, 0, func() error {
			missScores = p.detector.ScoreSequences(missSeqs)
			return nil
		})
		if err == nil {
			for pos, s := range missScores {
				scores[missIdx[pos]] = s
			}
		} else {
			// The model terminally failed on this batch: the unscored
			// windows (and their in-batch duplicates) are abandoned rather
			// than reported with garbage scores. Library hits still deliver.
			for _, i := range missIdx {
				failed[i] = true
			}
		}
	}
	for i, j := range dupOf {
		if j >= 0 {
			scores[i] = scores[j]
			failed[i] = failed[j]
		}
	}

	for i, seq := range seqs {
		if failed[i] {
			p.om.detectFailures.Inc()
			continue
		}
		if hit[i] {
			p.om.patternHits.Inc()
		} else {
			p.om.patternMisses.Inc()
		}
		if !hit[i] && !p.cfg.DisablePatternLibrary {
			if p.library.StoreKey(keys[i], scores[i]) {
				p.om.patternEvictions.Inc()
			}
		}
		if scores[i] > core.Threshold {
			// For cached anomalous patterns this rebuilds the report without
			// re-running the model, exactly like the serial path.
			p.deliver(p.detector.BuildReport(seq, scores[i]))
		}
	}
	p.om.librarySize.Set(int64(p.library.Size()))
	p.om.detectBatch.ObserveSince(start)
	return scores, failed
}

func (p *Pipeline) deliver(rep *core.Report) {
	p.om.anomalies.Inc()
	for _, s := range p.sinks {
		s.Notify(rep)
	}
}
