package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []Span
		self  map[string]int64
	}{
		{
			name: "nested",
			spans: []Span{
				{ID: 1, Name: "root", Start: 0, End: 100, Calls: 1},
				{ID: 2, Parent: 1, Name: "mid", Start: 10, End: 60, Calls: 1},
				{ID: 3, Parent: 2, Name: "leaf", Start: 20, End: 30, Calls: 1},
			},
			self: map[string]int64{"root": 50, "mid": 40, "leaf": 10},
		},
		{
			name: "overlapping children count their union once",
			spans: []Span{
				{ID: 1, Name: "root", Start: 0, End: 100, Calls: 1},
				{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50, Calls: 1},
				{ID: 3, Parent: 1, Name: "a", Start: 30, End: 70, Calls: 1},
				{ID: 4, Parent: 1, Name: "b", Start: 35, End: 40, Calls: 1},
			},
			self: map[string]int64{"root": 40, "a": 80, "b": 5},
		},
		{
			name: "children are clipped to the parent",
			spans: []Span{
				{ID: 1, Name: "root", Start: 10, End: 20, Calls: 1},
				{ID: 2, Parent: 1, Name: "early", Start: 0, End: 12, Calls: 1},
				{ID: 3, Parent: 1, Name: "late", Start: 18, End: 40, Calls: 1},
			},
			self: map[string]int64{"root": 6, "early": 12, "late": 22},
		},
		{
			name: "zero-length spans",
			spans: []Span{
				{ID: 1, Name: "root", Start: 5, End: 5, Calls: 1},
				{ID: 2, Parent: 1, Name: "kid", Start: 5, End: 5, Calls: 1},
				{ID: 3, Name: "other", Start: 0, End: 10, Calls: 1},
				{ID: 4, Parent: 3, Name: "kid", Start: 4, End: 4, Calls: 1},
			},
			self: map[string]int64{"root": 0, "kid": 0, "other": 10},
		},
	}
	for _, tc := range cases {
		got := SelfTimes(tc.spans)
		for name, want := range tc.self {
			if got[name].Self != want {
				t.Errorf("%s: %s self %d, want %d", tc.name, name, got[name].Self, want)
			}
		}
		if len(got) != len(tc.self) {
			t.Errorf("%s: %d layers, want %d", tc.name, len(got), len(tc.self))
		}
	}
}

func TestRecorderNestingAndChunks(t *testing.T) {
	r := New("w")
	root := r.Begin("root", nil)
	kid := r.Begin("kid", root)
	kid.End()
	ch := r.Chunk("fast", root)
	base := time.Now()
	for i := 0; i < ChunkCalls+3; i++ {
		ch.Add(base.Add(time.Duration(i)*time.Millisecond), time.Microsecond)
	}
	ch.Flush()
	if open := r.Spans(); len(open) != 3 {
		t.Fatalf("%d closed spans before the root ends, want 3 (the open root is withheld)", len(open))
	}
	root.End()

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	byName := map[string][]Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Workload != "w" || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
	rootID := byName["root"][0].ID
	if byName["kid"][0].Parent != rootID {
		t.Errorf("kid's parent is %d, want %d", byName["kid"][0].Parent, rootID)
	}
	fast := byName["fast"]
	if len(fast) != 2 || fast[0].Calls != ChunkCalls || fast[1].Calls != 3 {
		t.Fatalf("chunk spans %+v", fast)
	}
	// A chunk lasts as long as its calls took, not from first to last call.
	if d := fast[0].End - fast[0].Start; d != int64(ChunkCalls*time.Microsecond) {
		t.Errorf("chunk lasts %dns, want %d", d, int64(ChunkCalls*time.Microsecond))
	}
	if fast[0].Parent != rootID {
		t.Errorf("chunk's parent is %d, want %d", fast[0].Parent, rootID)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	o := r.Begin("x", nil)
	o.End()
	c := r.Chunk("y", o)
	c.Add(time.Now(), time.Second)
	c.Flush()
	if r.Spans() != nil {
		t.Error("nil recorder returned spans")
	}
}

func TestWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := []Span{
		{ID: 1, Name: "root", Workload: "w", Start: 0, End: 10, Calls: 1},
		{ID: 2, Parent: 1, Name: "kid", Workload: "w", Start: 2, End: 6, Calls: 1},
	}
	if err := Write(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) != 2 || f.Layers["root"].Self != 6 || f.Layers["kid"].Total != 4 {
		t.Errorf("round trip lost data: %+v", f)
	}
}
