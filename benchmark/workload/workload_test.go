package workload

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"logsynergy/internal/drain"
	"logsynergy/internal/window"
)

var generators = map[string]func(seed int64, warm, timed int) *Corpus{
	"novel":   Novel,
	"steady":  Steady,
	"onboard": Onboard,
}

func TestSameSeedSameCorpus(t *testing.T) {
	for name, gen := range generators {
		a, b, c := gen(3, 500, 4000), gen(3, 500, 4000), gen(4, 500, 4000)
		if !reflect.DeepEqual(a.Lines, b.Lines) {
			t.Errorf("%s: seed 3 generated two different corpora", name)
		}
		if reflect.DeepEqual(a.Lines, c.Lines) {
			t.Errorf("%s: seeds 3 and 4 generated the same corpus", name)
		}
		if len(a.Lines) != 4500 || a.Warm != 500 {
			t.Errorf("%s: %d lines, warm %d", name, len(a.Lines), a.Warm)
		}
	}
	a, b, c := Training(5, 1500, 1000), Training(5, 1500, 1000), Training(6, 1500, 1000)
	if !reflect.DeepEqual(a.Target, b.Target) || !reflect.DeepEqual(a.Source, b.Source) {
		t.Error("train: seed 5 generated two different datasets")
	}
	if reflect.DeepEqual(a.Target.Samples, c.Target.Samples) {
		t.Error("train: seeds 5 and 6 generated the same target dataset")
	}
}

// parseAll feeds lines to a fresh Drain parser and returns each distinct
// template's group id, failing if any group's template text ever changes
// (a merge) or a template lands in two groups.
func parseAll(t *testing.T, name string, lines []string) map[string]int {
	t.Helper()
	p := drain.NewDefault()
	groupOf := make(map[string]int)
	textOf := make(map[int]string)
	for _, l := range lines {
		want := strings.Join(masked(l), " ")
		m := p.Parse(l)
		if m.Template != want {
			t.Fatalf("%s: line %q parsed to template %q, want its own masked form %q", name, l, m.Template, want)
		}
		if prev, ok := textOf[m.EventID]; ok && prev != m.Template {
			t.Fatalf("%s: group %d changed template %q -> %q", name, m.EventID, prev, m.Template)
		}
		textOf[m.EventID] = m.Template
		if g, ok := groupOf[want]; ok && g != m.EventID {
			t.Fatalf("%s: template %q in groups %d and %d", name, want, g, m.EventID)
		}
		groupOf[want] = m.EventID
	}
	return groupOf
}

// Every template must be its own Drain group whatever order lines arrive
// in: forwards, reversed, and shuffled all find the same template set.
func TestTemplatesPinnedToOneDrainGroup(t *testing.T) {
	for name, gen := range generators {
		lines := gen(11, 1000, 20000).Lines
		fwd := parseAll(t, name, lines)
		rev := make([]string, len(lines))
		for i, l := range lines {
			rev[len(lines)-1-i] = l
		}
		shuf := append([]string(nil), lines...)
		rand.New(rand.NewSource(1)).Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		for _, other := range []map[string]int{parseAll(t, name, rev), parseAll(t, name, shuf)} {
			if len(other) != len(fwd) {
				t.Errorf("%s: %d templates forwards, %d in another order", name, len(fwd), len(other))
			}
			for tpl := range fwd {
				if _, ok := other[tpl]; !ok {
					t.Errorf("%s: template %q missing in another order", name, tpl)
				}
			}
		}
	}
}

// hitShare replays per-key sliding windows and returns the share of timed
// windows whose template sequence was seen before, as the pattern library
// would see it.
func hitShare(c *Corpus) float64 {
	cfg := window.Default()
	seen := make(map[string]bool)
	perKey := make(map[string][]string)
	hits, total := 0, 0
	for i, l := range c.Lines {
		k := KeyOf(l)
		perKey[k] = append(perKey[k], strings.Join(masked(l)[1:], " "))
		n := len(perKey[k])
		if n < cfg.Length || (n-cfg.Length)%cfg.Step != 0 {
			continue
		}
		pat := strings.Join(perKey[k][n-cfg.Length:], "|")
		if i >= c.Warm {
			total++
			if seen[pat] {
				hits++
			}
		}
		seen[pat] = true
	}
	return float64(hits) / float64(total)
}

func TestHitShareBands(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		if s := hitShare(Novel(seed, 2000, 40000)); s > 0.05 {
			t.Errorf("novel seed %d: hit share %.3f, want <= 0.05", seed, s)
		}
		if s := hitShare(Steady(seed, 4000, 40000)); s < 0.9 {
			t.Errorf("steady seed %d: hit share %.3f, want >= 0.9", seed, s)
		}
	}
}

func TestOnboardTemplateFloorAndSkew(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := Onboard(seed, 1000, 30000)
		templates := make(map[string]bool)
		perKey := make(map[string]int)
		firstSeen := 0 // templates first seen in the last half of the stream
		for i, l := range c.Lines {
			tpl := strings.Join(masked(l)[1:], " ")
			if !templates[tpl] && i >= len(c.Lines)/2 {
				firstSeen++
			}
			templates[tpl] = true
			perKey[KeyOf(l)]++
		}
		if len(templates) < 2000 {
			t.Errorf("seed %d: %d distinct templates, want >= 2000", seed, len(templates))
		}
		if firstSeen < 100 {
			t.Errorf("seed %d: only %d templates first appear in the second half", seed, firstSeen)
		}
		hot, cold := perKey[Key(0)], perKey[Key(onboardKeys-1)]
		if hot < 50*cold || hot < len(c.Lines)/10 {
			t.Errorf("seed %d: hottest key has %d lines, coldest %d: not Zipf-skewed", seed, hot, cold)
		}
	}
}

// Every anomaly concept of the target appears in some steady script, and
// some script has no anomalous line at all, for any seed.
func TestSteadyScriptsMixAnomalies(t *testing.T) {
	spec := Target()
	conceptOf := make(map[string]string)
	for _, c := range spec.Anomalies {
		for _, tpl := range spec.Renderings[c] {
			conceptOf[strings.Join(masked(Key(0) + " " + expand(rand.New(rand.NewSource(1)), tpl))[1:], " ")] = c
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		keysBad := make(map[string]bool)
		seen := make(map[string]bool)
		c := Steady(seed, 64*steadyScript*4, 0)
		for _, l := range c.Lines {
			if concept, ok := conceptOf[strings.Join(masked(l)[1:], " ")]; ok {
				keysBad[KeyOf(l)] = true
				seen[concept] = true
			}
		}
		if len(seen) != len(spec.Anomalies) {
			t.Errorf("seed %d: %d of %d anomaly concepts appear", seed, len(seen), len(spec.Anomalies))
		}
		if len(keysBad) == novelKeys {
			t.Errorf("seed %d: every key carries an anomalous line", seed)
		}
	}
}

func TestTrainingShapes(t *testing.T) {
	ts := Training(1, 3000, 2000)
	if got, want := len(ts.Source.Samples), window.Count(3000, window.Default()); got != want {
		t.Errorf("source windows %d, want %d", got, want)
	}
	pos := 0
	for _, s := range ts.Target.Samples {
		if len(s.EventIDs) != 10 {
			t.Fatalf("target window of %d events", len(s.EventIDs))
		}
		if s.Label {
			pos++
		}
	}
	if pos == 0 || pos == len(ts.Target.Samples) || len(ts.Target.Samples) < 200 {
		t.Errorf("target: %d of %d windows anomalous", pos, len(ts.Target.Samples))
	}
}
