// Package workload generates the benchmark's seeded inputs: the keyed log
// streams of the three serving workloads (novel, steady, onboard) and the
// transfer-training datasets. The program under test only ever sees the
// generated lines.
//
// Every generated line is mask-stable: its variable fields are exactly the
// shapes drain's default maskers replace (integers, IPv4, hex), so a
// template's masked token sequence is the same on every line, and no two
// templates of a workload are similar enough for Drain to merge them. That
// pins every template to one Drain group whatever order lines reach a
// parser in, which is what lets the harness demand bit-identical per-key
// scores across the paced phase, the saturation phase and the one-shard
// re-run of the same corpus.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"logsynergy/internal/drain"
	"logsynergy/internal/logdata"
)

// firstKey is the numerically smallest stream key. Keys are pure integers,
// so the key token itself masks to the Drain wildcard.
const firstKey = 7001

// Key renders stream key i.
func Key(i int) string { return fmt.Sprint(firstKey + i) }

// literals replaces the placeholder kinds whose values Drain does not mask.
var literals = map[string]string{
	"user": "alice",
	"path": "/var/log/app.log",
	"node": "R07-M1-N3",
	"list": "item7",
}

// glueLiterals replaces a maskable placeholder that touches a word
// character ("tbird{n}", "{n}s"): the masker needs a word boundary on both
// sides of the number, so a glued value would survive masking and vary.
var glueLiterals = map[string]string{
	"n": "7", "big": "70007", "ms": "70", "port": "7007", "hex": "0x7007beef", "ip": "10.7.7.7",
}

func isWord(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// stabilize rewrites one logdata rendering so that every expansion masks to
// the same token sequence.
func stabilize(tpl string) string {
	var b strings.Builder
	for i := 0; i < len(tpl); {
		if tpl[i] != '{' {
			b.WriteByte(tpl[i])
			i++
			continue
		}
		j := strings.IndexByte(tpl[i:], '}')
		if j < 0 {
			b.WriteString(tpl[i:])
			break
		}
		kind := tpl[i+1 : i+j]
		end := i + j + 1
		glued := i > 0 && isWord(tpl[i-1]) || end < len(tpl) && isWord(tpl[end])
		switch lit, fixed := literals[kind]; {
		case fixed:
			b.WriteString(lit)
		case glued && glueLiterals[kind] != "":
			b.WriteString(glueLiterals[kind])
		default:
			b.WriteString(tpl[i:end])
		}
		i = end
	}
	return b.String()
}

// masked returns the token sequence Drain sees for a line: the default
// maskers applied, then whitespace tokenization.
func masked(line string) []string {
	for _, re := range maskers {
		line = re.ReplaceAllString(line, drain.Wildcard)
	}
	return strings.Fields(line)
}

var maskers = drain.DefaultConfig().Maskers

// mergeThreshold is drain's default SimThreshold: a line joins a group of
// the same token count when at least this share of positions agree.
const mergeThreshold = 0.4

// conflict reports whether Drain could merge two masked templates.
func conflict(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same)/float64(len(a)) >= mergeThreshold
}

// pool collects pairwise conflict-free masked templates, bucketed by token
// count.
type pool struct {
	byLen map[int][][]string
}

func newPool() *pool { return &pool{byLen: make(map[int][][]string)} }

// add accepts the template unless Drain could merge it with one already in
// the pool.
func (p *pool) add(tokens []string) bool {
	for _, other := range p.byLen[len(tokens)] {
		if conflict(tokens, other) {
			return false
		}
	}
	p.byLen[len(tokens)] = append(p.byLen[len(tokens)], tokens)
	return true
}

// Target returns the serving workloads' target system: logdata's
// Thunderbird with every rendering made mask-stable and every rendering
// that Drain could merge with an earlier one dropped. The result feeds the
// real logdata.Generator, so traffic keeps its workflows, background
// chatter, rare events and anomaly bursts.
func Target() *logdata.SystemSpec {
	spec := logdata.Thunderbird()
	concepts := make([]string, 0, len(spec.Renderings))
	for c := range spec.Renderings {
		concepts = append(concepts, c)
	}
	sort.Strings(concepts)
	p := newPool()
	rng := rand.New(rand.NewSource(1))
	out := make(map[string][]string, len(concepts))
	for _, c := range concepts {
		for _, tpl := range spec.Renderings[c] {
			st := stabilize(tpl)
			if p.add(masked(Key(0) + " " + expand(rng, st))) {
				out[c] = append(out[c], st)
			}
		}
		// A concept whose every rendering conflicts keeps its first one,
		// lengthened until its token count sets it apart.
		for st := stabilize(spec.Renderings[c][0]); len(out[c]) == 0; {
			st += " done"
			if p.add(masked(Key(0) + " " + expand(rng, st))) {
				out[c] = append(out[c], st)
			}
		}
	}
	spec.Renderings = out
	return spec
}

// expand substitutes the maskable placeholders with random values, the way
// logdata.Generator does.
func expand(rng *rand.Rand, tpl string) string {
	var b strings.Builder
	for {
		i := strings.IndexByte(tpl, '{')
		if i < 0 {
			b.WriteString(tpl)
			return b.String()
		}
		j := strings.IndexByte(tpl[i:], '}')
		if j < 0 {
			b.WriteString(tpl)
			return b.String()
		}
		b.WriteString(tpl[:i])
		switch kind := tpl[i+1 : i+j]; kind {
		case "ip":
			fmt.Fprintf(&b, "%d.%d.%d.%d", 10+rng.Intn(160), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
		case "port":
			fmt.Fprint(&b, 1024+rng.Intn(64000))
		case "n":
			fmt.Fprint(&b, rng.Intn(1000))
		case "big":
			fmt.Fprint(&b, 10000+rng.Intn(99999999))
		case "hex":
			fmt.Fprintf(&b, "0x%08x", rng.Uint32())
		case "ms":
			fmt.Fprint(&b, 1+rng.Intn(5000))
		default:
			b.WriteString(tpl[i : i+j+1])
		}
		tpl = tpl[i+j+1:]
	}
}

// vocabulary returns the alphabetic words of every logdata system's
// renderings, sorted: operational and failure vocabulary that the LEI
// lexicon partly recognizes and partly falls back on, like a real new
// system's logs.
func vocabulary() []string {
	seen := make(map[string]bool)
	for _, spec := range logdata.Systems() {
		for _, tpls := range spec.Renderings {
			for _, tpl := range tpls {
				for _, tok := range strings.Fields(strings.ToLower(tpl)) {
					tok = strings.Trim(tok, ".,:;()[]\"'=-")
					if len(tok) < 3 || len(tok) > 12 || strings.IndexFunc(tok, func(r rune) bool { return r < 'a' || r > 'z' }) >= 0 {
						continue
					}
					// Eight or more hex letters would mask as a long hex id.
					if len(masked(tok)) != 1 || masked(tok)[0] != tok {
						continue
					}
					seen[tok] = true
				}
			}
		}
	}
	words := make([]string, 0, len(seen))
	for w := range seen {
		words = append(words, w)
	}
	sort.Strings(words)
	return words
}

// mint draws n pairwise conflict-free templates of 5 to 10 body tokens
// from the vocabulary, each with one or two maskable parameters.
func mint(rng *rand.Rand, p *pool, words []string, n int) []string {
	params := []string{"{n}", "{big}", "{ip}", "{hex}", "{ms}", "{port}"}
	out := make([]string, 0, n)
	for len(out) < n {
		toks := make([]string, 5+rng.Intn(6))
		for i := range toks {
			toks[i] = words[rng.Intn(len(words))]
		}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			toks[1+rng.Intn(len(toks)-1)] = params[rng.Intn(len(params))]
		}
		tpl := strings.Join(toks, " ")
		if p.add(masked(Key(0) + " " + expand(rng, tpl))) {
			out = append(out, tpl)
		}
	}
	return out
}
