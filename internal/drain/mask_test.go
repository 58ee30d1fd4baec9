package drain

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// newChain builds a parser that masks with the regex chain even when cfg
// holds the default maskers: the oracle the scanner is checked against.
func newChain(cfg Config) *Parser {
	p := New(cfg)
	p.scan = false
	return p
}

var chainParser = newChain(DefaultConfig())

// chainMask is DefaultConfig's four regexes applied as a chain.
func chainMask(s string) string {
	masked, _, _ := chainParser.maskChain(s)
	return masked
}

// checkMask fails unless maskScan agrees with the regex chain on s and
// reports a change exactly when it made one.
func checkMask(t *testing.T, s string) string {
	t.Helper()
	got, changed := maskScan(s)
	if want := chainMask(s); got != want {
		t.Fatalf("maskScan(%q) = %q, regex chain %q", s, got, want)
	}
	if changed != (got != s) {
		t.Fatalf("maskScan(%q) = %q reports changed=%v", s, got, changed)
	}
	return got
}

var maskCases = []struct{ in, want string }{
	{"1.2.3.4:80abc", "<*>:80abc"},
	{"1.2.3.4:80", "<*>"},
	{"1.2.3.4:5:6", "<*>:<*>"},
	{"1.2.3.4:", "<*>:"},
	{"1.2.3.4_", "<*>.<*>.<*>.4_"},
	{"1.2.3.4é", "<*>é"},
	{"1234.1.2.3.4", "<*>.<*>"},
	{"1.2.3.4.5.6.7.8", "<*>.<*>"},
	{"1.2.3", "<*>.<*>.<*>"},
	{"10.0.0.1234", "<*>.<*>.<*>.<*>"},
	{"x1.2.3.4", "x1.<*>.<*>.<*>"},
	{"0X1F", "0X1F"},
	{"0x", "0x"},
	{"0xBEEF", "<*>"},
	{"0x1g", "0x1g"},
	{"deadbeef", "<*>"},
	{"acceded", "acceded"},
	{"ABCDEF12", "<*>"},
	{"abc-123", "abc-<*>"},
	{"a_1", "a_1"},
	{"日志 42", "日志 <*>"},
	{"\xff12", "\xff<*>"},
	{"req 0xBEEF from 10.0.0.1:8080 took 12ms id=DEADBEEF01", "req <*> from <*> took 12ms id=<*>"},
	{"<*>", "<*>"},
	{"", ""},
	{" \t", " \t"},
}

// TestMaskMatchesRegexChain: the scanner equals the four default regexes
// on a table of edge cases and on random strings built from the shapes
// the rules turn on.
func TestMaskMatchesRegexChain(t *testing.T) {
	for _, c := range maskCases {
		if got := checkMask(t, c.in); got != c.want {
			t.Errorf("maskScan(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	frags := []string{"1", "12", "123", "1234", ".", ":", "0x", "0X", "ab", "deadbeef",
		"g", "_", " ", "\t", "é", "\xff", "<*>", "10.0.0.1", ":80", "x", "-"}
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < 20000; i++ {
		b.Reset()
		for n := 1 + rng.Intn(10); n > 0; n-- {
			b.WriteString(frags[rng.Intn(len(frags))])
		}
		checkMask(t, b.String())
	}
}

// TestNewPicksScanner: only DefaultConfig's masker set, in its order, runs
// as the scanner.
func TestNewPicksScanner(t *testing.T) {
	if !NewDefault().scan {
		t.Fatal("default maskers must use the scanner")
	}
	reversed := DefaultConfig()
	for i, j := 0, len(reversed.Maskers)-1; i < j; i, j = i+1, j-1 {
		reversed.Maskers[i], reversed.Maskers[j] = reversed.Maskers[j], reversed.Maskers[i]
	}
	extra := DefaultConfig()
	extra.Maskers = append(extra.Maskers, regexp.MustCompile(`\bblk_-?\d+\b`))
	for name, cfg := range map[string]Config{"none": {}, "reordered": reversed, "extra": extra} {
		if New(cfg).scan {
			t.Errorf("%s maskers must keep the regex chain", name)
		}
	}
}

// TestParseAllocs: a warm, already-known line costs a bounded handful of
// allocations (its tokens, masked tokens and params), not one string per
// masker.
func TestParseAllocs(t *testing.T) {
	p := NewDefault()
	line := "session a3f9c2e1d4b5 from 10.0.0.5:443 closed after 42 requests"
	p.Parse(line)
	if n := testing.AllocsPerRun(200, func() { p.Parse(line) }); n > 5 {
		t.Fatalf("Parse of a known line: %.0f allocations, want <= 5", n)
	}
}

// FuzzMask: the scanner equals the regex chain on any string.
func FuzzMask(f *testing.F) {
	for _, c := range maskCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, s string) { checkMask(t, s) })
}
