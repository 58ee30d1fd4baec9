package drain

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParse throws arbitrary byte soup at the online parser — malformed
// lines, truncated multibyte runes, control characters, pathological
// whitespace — and holds it to its structural invariants: never panic,
// return a valid event id backed by the event list, keep template and
// params consistent, and assign the same event to an immediately
// re-parsed identical line. It is also differential: every line is parsed
// by the default (scanner) parser and by the regex-chain oracle, which
// must agree on every Match and on the whole event list after each call.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		" ",
		"\t\n\r",
		"service heartbeat ok seq 42",
		"user alice login from 10.0.0.5",
		"Receiving block blk_-1608999687919862906 src: /10.250.19.102:54106",
		"0x1f deadbeefcafe 255.255.255.255:65535",
		strings.Repeat("a ", 300),
		strings.Repeat("\x00", 16),
		"日志 解析 器 收到 消息 编号 42",
		"truncated multibyte \xe6\x97",
		"<*> already has wildcards <*> in it",
		"tab\tseparated\tfields\t1\t2\t3",
		"mixed 中文 and ascii ids 0xabc123 10.0.0.1",
		"\xff\xfe\xfd invalid utf8 bytes",
		"1234.1.2.3.4 x1.2.3.4 1.2.3.4:80abc 1.2.3.4.5.6.7.8",
		"0X1F 0x acceded deadbeef abc-123 a_1 \xff12",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		p, oracle := NewDefault(), newChain(DefaultConfig())
		parse := func(line string) Match {
			t.Helper()
			m, want := p.Parse(line), oracle.Parse(line)
			if !reflect.DeepEqual(m, want) {
				t.Fatalf("parse %q: scanner %+v, regex chain %+v", line, m, want)
			}
			if got, want := p.Events(), oracle.Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %q: scanner events %+v, regex chain %+v", line, got, want)
			}
			return m
		}
		// Warm the tree with realistic traffic so fuzz lines also exercise
		// group matching and template updating, not just group creation.
		parse("service heartbeat ok seq 42")
		parse("user alice login from 10.0.0.5")

		m := parse(line)
		if m.EventID < 0 || m.EventID >= p.NumEvents() {
			t.Fatalf("event id %d outside [0,%d)", m.EventID, p.NumEvents())
		}
		events := p.Events()
		if events[m.EventID].Template != m.Template {
			t.Fatalf("match template %q != event %d template %q", m.Template, m.EventID, events[m.EventID].Template)
		}
		if n := strings.Count(m.Template, Wildcard); len(m.Params) > n {
			t.Fatalf("%d params for %d wildcard positions in %q", len(m.Params), n, m.Template)
		}
		if !utf8.ValidString(line) {
			// Invalid input must not poison the parser; valid lines still parse.
			parse("service heartbeat ok seq 43")
		}

		// Parsing the identical line again must hit the same event.
		m2 := parse(line)
		if m2.EventID != m.EventID {
			t.Fatalf("re-parse of %q moved from event %d to %d", line, m.EventID, m2.EventID)
		}
	})
}
