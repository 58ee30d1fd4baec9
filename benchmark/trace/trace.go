// Package trace is the benchmark's in-memory span recorder. The harness
// opens a span around each call it makes into a layer (or, for calls too
// short to time one by one, around each chunk of calls), keeps the spans
// in memory, and writes them out when the run ends. A layer's self time is
// its spans' duration minus the part of that interval their child spans
// cover.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one recorded interval. Times are nanoseconds since the recorder
// was created.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Calls is how many calls the span covers: 1 for a span around one
	// call, up to ChunkCalls for a chunk span.
	Calls int `json:"calls"`
}

// ChunkCalls is how many sub-10µs calls share one chunk span.
const ChunkCalls = 256

// Recorder collects spans. The zero value is not usable; a nil *Recorder
// records nothing, so untraced runs pay one nil check per call site.
type Recorder struct {
	epoch    time.Time
	workload string

	mu    sync.Mutex
	spans []Span
}

// New creates a recorder whose spans carry the workload name.
func New(workload string) *Recorder {
	return &Recorder{epoch: time.Now(), workload: workload}
}

// Open is an in-flight span.
type Open struct {
	r      *Recorder
	id     int
	parent int
	name   string
	start  time.Time
}

// Begin opens a span under parent (nil = root).
func (r *Recorder) Begin(name string, parent *Open) *Open {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{})
	id := len(r.spans)
	r.mu.Unlock()
	o := &Open{r: r, id: id, name: name, start: time.Now()}
	if parent != nil {
		o.parent = parent.id
	}
	return o
}

// End closes the span.
func (o *Open) End() {
	if o == nil {
		return
	}
	o.r.put(o.id, o.parent, o.name, o.start, time.Now(), 1)
}

func (r *Recorder) put(id, parent int, name string, start, end time.Time, calls int) {
	s := Span{
		ID: id, Parent: parent, Name: name, Workload: r.workload,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), Calls: calls,
	}
	r.mu.Lock()
	if id == 0 {
		r.spans = append(r.spans, s)
		r.spans[len(r.spans)-1].ID = len(r.spans)
	} else {
		r.spans[id-1] = s
	}
	r.mu.Unlock()
}

// Chunk accumulates calls too short to record one by one: every
// ChunkCalls calls become one span that starts when the chunk's first call
// started and lasts as long as the calls took in total, so time spent
// between the calls is not charged to the layer. A Chunk belongs to one
// goroutine.
type Chunk struct {
	r      *Recorder
	name   string
	parent int
	first  time.Time
	busy   time.Duration
	calls  int
}

// Chunk starts a chunk accumulator under parent (nil = root).
func (r *Recorder) Chunk(name string, parent *Open) *Chunk {
	if r == nil {
		return nil
	}
	c := &Chunk{r: r, name: name}
	if parent != nil {
		c.parent = parent.id
	}
	return c
}

// Add records one call that started at start and took d.
func (c *Chunk) Add(start time.Time, d time.Duration) {
	if c == nil {
		return
	}
	if c.calls == 0 {
		c.first = start
	}
	c.busy += d
	c.calls++
	if c.calls == ChunkCalls {
		c.Flush()
	}
}

// Flush records the calls accumulated so far as one span.
func (c *Chunk) Flush() {
	if c == nil || c.calls == 0 {
		return
	}
	c.r.put(0, c.parent, c.name, c.first, c.first.Add(c.busy), c.calls)
	c.busy, c.calls = 0, 0
}

// Spans returns a copy of everything recorded so far, closed spans only.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// LayerTime is one span name's totals.
type LayerTime struct {
	Spans int   `json:"spans"`
	Calls int   `json:"calls"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// SelfTimes returns, per span name, the summed duration and the summed
// self time: a span's duration minus the length of the union of its
// children's intervals, clipped to the span.
func SelfTimes(spans []Span) map[string]LayerTime {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]LayerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Spans++
		lt.Calls += s.Calls
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start // everything before edge is already counted
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// File is the layout of trace.json.
type File struct {
	Layers map[string]LayerTime `json:"layers"`
	Spans  []Span               `json:"spans"`
}

// Write stores the spans and their per-name self times at path.
func Write(path string, spans []Span) error {
	data, err := json.Marshal(File{Layers: SelfTimes(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
