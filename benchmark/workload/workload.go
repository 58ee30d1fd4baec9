package workload

import (
	"math"
	"math/rand"
	"sort"

	"logsynergy/internal/drain"
	"logsynergy/internal/logdata"
	"logsynergy/internal/window"
)

// Corpus is one serving workload's input: "key message" lines in arrival
// order. The first Warm lines are the untimed warm-up prefix.
type Corpus struct {
	Lines []string
	Warm  int
	Keys  int
}

// Timed returns the lines after the warm-up prefix.
func (c *Corpus) Timed() []string { return c.Lines[c.Warm:] }

// KeyOf extracts a generated line's stream key (its first token).
func KeyOf(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] == ' ' {
			return line[:i]
		}
	}
	return line
}

// novelKeys is the novel and steady workloads' stream-key count.
const novelKeys = 64

// Novel draws every line from the target-system generator and gives it a
// uniformly random key. A key's stream is a random thinning of the
// generator's, so almost no window repeats and the pattern library misses.
func Novel(seed int64, warm, timed int) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	gen := logdata.NewGenerator(Target(), rng.Int63())
	c := &Corpus{Lines: make([]string, warm+timed), Warm: warm, Keys: novelKeys}
	for i := range c.Lines {
		c.Lines[i] = Key(rng.Intn(novelKeys)) + " " + gen.Next().Message
	}
	return c
}

const (
	// steadyScript is the length of the line script each steady key loops:
	// a multiple of the window step, so a key cycles through
	// steadyScript/Step distinct windows.
	steadyScript = 20
	// steadyFresh is the share of steady lines replaced by a fresh
	// generator line; each spoils the (at most two) windows it falls in.
	steadyFresh = 0.005
)

// Steady gives each key a fixed script of generator lines to loop, with a
// small share of fresh lines. Once each key's few windows are in the
// pattern library the model is bypassed. Whatever the generator drew, key
// i's script also carries the target's i-th anomaly concept, so a detector
// that recognizes any of them alerts on some windows; and at least one
// script carries no anomalous line, so it does not alert on all.
func Steady(seed int64, warm, timed int) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	spec := Target()
	gen := logdata.NewGenerator(spec, rng.Int63())
	scripts := make([][]string, novelKeys)
	for clean := 0; clean == 0; {
		for k := range scripts {
			scripts[k] = make([]string, steadyScript)
			bad := k < len(spec.Anomalies)
			for i := range scripts[k] {
				l := gen.Next()
				scripts[k][i] = l.Message
				bad = bad || l.Anomalous
			}
			if k < len(spec.Anomalies) {
				scripts[k][steadyScript/2] = expand(rng, spec.Renderings[spec.Anomalies[k]][0])
			}
			if !bad {
				clean++
			}
		}
	}
	pos := make([]int, novelKeys)
	c := &Corpus{Lines: make([]string, warm+timed), Warm: warm, Keys: novelKeys}
	for i := range c.Lines {
		k := rng.Intn(novelKeys)
		msg := scripts[k][pos[k]%steadyScript]
		pos[k]++
		if i >= warm && rng.Float64() < steadyFresh {
			msg = gen.Next().Message
		}
		c.Lines[i] = Key(k) + " " + msg
	}
	return c
}

const (
	// onboardKeys is the onboard workload's stream-key count.
	onboardKeys = 512
	// onboardScript is each onboard key's script length.
	onboardScript = 10
	// onboardPrivate is how many of a key's script lines use templates no
	// other key emits; the rest come from a shared platform pool.
	onboardPrivate = 5
	// onboardShared is the size of the shared platform template pool.
	onboardShared = 48
)

// Onboard models a brand-new system coming online component by component:
// keys are Zipf-skewed, each loops a script over its own minted templates
// plus a few shared ones, and cold keys keep appearing for the first time
// throughout the stream, so templates never stop being discovered.
func Onboard(seed int64, warm, timed int) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	words := vocabulary()
	p := newPool()
	shared := mint(rng, p, words, onboardShared)
	scripts := make([][]string, onboardKeys)
	for k := range scripts {
		private := mint(rng, p, words, onboardPrivate)
		scripts[k] = make([]string, onboardScript)
		for i := range scripts[k] {
			if i%2 == 0 {
				scripts[k][i] = private[i/2]
			} else {
				scripts[k][i] = shared[rng.Intn(len(shared))]
			}
		}
	}
	zipf := newZipf(onboardKeys)
	pos := make([]int, onboardKeys)
	c := &Corpus{Lines: make([]string, warm+timed), Warm: warm, Keys: onboardKeys}
	for i := range c.Lines {
		k := zipf.draw(rng)
		c.Lines[i] = Key(k) + " " + expand(rng, scripts[k][pos[k]%onboardScript])
		pos[k]++
	}
	return c
}

// zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1).
type zipf struct{ cdf []float64 }

func newZipf(n int) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	return int(math.Min(float64(sort.SearchFloat64s(z.cdf, rng.Float64())), float64(len(z.cdf)-1)))
}

// TrainSet is the transfer-training input: one source system and the
// target's small labelled slice, windowed and labelled.
type TrainSet struct {
	Source *logdata.Sequences
	Target *logdata.Sequences
}

// Training builds the transfer-training datasets: a BGL source corpus and a
// keyed target corpus windowed per key like the serving path windows it.
func Training(seed int64, sourceLines, targetLines int) *TrainSet {
	cfg := window.Default()
	source := logdata.Build(logdata.BGL(), seed, float64(sourceLines)/float64(logdata.BGL().Lines), cfg)

	rng := rand.New(rand.NewSource(seed + 1))
	gen := logdata.NewGenerator(Target(), rng.Int63())
	parser := drain.NewDefault()
	type keyState struct {
		ids    []int
		labels []bool
	}
	keys := make([]keyState, novelKeys)
	target := &logdata.Sequences{System: "Thunderbird"}
	for i := 0; i < targetLines; i++ {
		l := gen.Next()
		k := rng.Intn(novelKeys)
		m := parser.Parse(Key(k) + " " + l.Message)
		ks := &keys[k]
		ks.ids = append(ks.ids, m.EventID)
		ks.labels = append(ks.labels, l.Anomalous)
		if n := len(ks.ids); n >= cfg.Length && (n-cfg.Length)%cfg.Step == 0 {
			span := window.Span{Start: n - cfg.Length, End: n}
			target.Samples = append(target.Samples, logdata.Sample{
				EventIDs: append([]int(nil), ks.ids[span.Start:span.End]...),
				Label:    window.AnyTrue(ks.labels, span),
			})
		}
	}
	for _, ev := range parser.Events() {
		target.Templates = append(target.Templates, ev.Template)
	}
	return &TrainSet{Source: source, Target: target}
}
