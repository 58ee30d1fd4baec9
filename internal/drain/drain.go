// Package drain implements the Drain online log parsing algorithm
// (He, Zhu, Zheng, Lyu: "Drain: An Online Log Parsing Approach with Fixed
// Depth Tree", ICWS 2017), the parser LogSynergy's pre-processing phase
// uses to turn raw log messages into structured log events and parameters.
//
// Drain routes each tokenized message through a fixed-depth prefix tree:
// the first level branches on token count, the next levels branch on the
// leading tokens (tokens containing digits collapse to a wildcard), and
// each leaf holds a list of log groups. A message joins the group whose
// template it is most similar to, or starts a new group; template positions
// that disagree become the <*> wildcard parameter marker.
package drain

import (
	"regexp"
	"strings"
	"sync"
)

// Wildcard is the template placeholder for a parameter position.
const Wildcard = "<*>"

// Config controls tree shape and matching thresholds.
type Config struct {
	// Depth is the total tree depth including the root and leaf levels.
	// Depth-2 token prefixes are used for routing. Default 4.
	Depth int
	// SimThreshold is the minimum token-level similarity for a message to
	// join an existing group. Default 0.4.
	SimThreshold float64
	// MaxChildren caps the branching factor of internal nodes; overflow
	// tokens route through a shared wildcard child. Default 100.
	MaxChildren int
	// Maskers are applied to the raw message before tokenization, replacing
	// every match with the wildcard. Use them for timestamps, IPs, hex ids.
	// DefaultConfig's set runs as one byte scan (maskScan); any other set
	// runs as a chain of regex replacements.
	Maskers []*regexp.Regexp
}

// DefaultConfig returns the configuration used in the Drain paper, plus
// maskers for the value shapes that appear in this project's log corpora.
func DefaultConfig() Config {
	maskers := make([]*regexp.Regexp, len(defaultMaskers))
	for i, src := range defaultMaskers {
		maskers[i] = regexp.MustCompile(src)
	}
	return Config{
		Depth:        4,
		SimThreshold: 0.4,
		MaxChildren:  100,
		Maskers:      maskers,
	}
}

// defaultMaskers are DefaultConfig's masker sources. A parser whose
// maskers are exactly these (same sources, same order) masks with
// maskScan, a one-pass byte scanner equal to this chain on every input.
var defaultMaskers = []string{
	`\b\d{1,3}(\.\d{1,3}){3}(:\d+)?\b`, // IPv4, optional port
	`\b0x[0-9a-fA-F]+\b`,               // hex literals
	`\b[0-9a-fA-F]{8,}\b`,              // long hex ids
	`\b\d+\b`,                          // integers
}

// isDefaultMaskers reports whether maskers is the default chain.
func isDefaultMaskers(maskers []*regexp.Regexp) bool {
	if len(maskers) != len(defaultMaskers) {
		return false
	}
	for i, re := range maskers {
		if re.String() != defaultMaskers[i] {
			return false
		}
	}
	return true
}

// Event is one discovered log template.
type Event struct {
	// ID is a stable identifier assigned in discovery order, starting at 0.
	ID int
	// Template is the event text with parameters replaced by <*>.
	Template string
	// Example is the first raw (masked) message that created the group.
	Example string
	// Count is how many messages matched this event.
	Count int

	tokens []string
}

// Match is the parse result for a single message.
type Match struct {
	// EventID identifies the matched template.
	EventID int
	// Template is the (possibly updated) template text.
	Template string
	// Params holds the concrete values at wildcard positions, in order.
	Params []string
}

// Parser is a thread-safe online Drain parser.
type Parser struct {
	cfg Config
	// scan selects maskScan over the regex chain: set by New when
	// cfg.Maskers is the default set.
	scan bool

	mu     sync.Mutex
	root   map[int]*node // keyed by token count
	events []*Event
}

// node is an internal routing node or a leaf holding candidate groups.
type node struct {
	children map[string]*node
	groups   []*Event // non-nil only at leaves
}

// New creates a parser with the given configuration, applying defaults for
// zero-valued fields.
func New(cfg Config) *Parser {
	if cfg.Depth <= 2 {
		cfg.Depth = 4
	}
	if cfg.SimThreshold <= 0 {
		cfg.SimThreshold = 0.4
	}
	if cfg.MaxChildren <= 0 {
		cfg.MaxChildren = 100
	}
	return &Parser{cfg: cfg, scan: isDefaultMaskers(cfg.Maskers), root: make(map[int]*node)}
}

// NewDefault creates a parser with DefaultConfig.
func NewDefault() *Parser { return New(DefaultConfig()) }

// Parse routes one raw log message through the tree, creating or updating
// a template, and returns the matched event with extracted parameters.
func (p *Parser) Parse(message string) Match {
	// tokens are the masked tokens the tree matches on; parameters are
	// taken from rawTokens to preserve the concrete values.
	var masked string
	var tokens, rawTokens []string
	if p.scan {
		// The default maskers match only whole-word spans, so masking
		// token by token equals masking the message: one Fields call, and
		// the masked message is built only when a group is minted.
		rawTokens = strings.Fields(message)
		if len(rawTokens) == 0 {
			rawTokens = []string{""}
		}
		tokens = maskTokens(rawTokens)
	} else {
		masked, tokens, rawTokens = p.maskChain(message)
	}

	p.mu.Lock()
	defer p.mu.Unlock()

	leaf := p.route(tokens)
	best, bestSim := p.bestGroup(leaf, tokens)
	if best == nil || bestSim < p.cfg.SimThreshold {
		if p.scan {
			masked, _ = maskScan(message)
		}
		// tokens is this call's own slice, so the group can keep it.
		ev := &Event{
			ID:       len(p.events),
			Template: strings.Join(tokens, " "),
			Example:  masked,
			Count:    1,
			tokens:   tokens,
		}
		p.events = append(p.events, ev)
		leaf.groups = append(leaf.groups, ev)
		return Match{EventID: ev.ID, Template: ev.Template, Params: extractParams(ev.tokens, rawTokens)}
	}

	// Merge: positions that disagree become wildcards.
	changed := false
	for i, tok := range tokens {
		if best.tokens[i] != tok && best.tokens[i] != Wildcard {
			best.tokens[i] = Wildcard
			changed = true
		}
	}
	if changed {
		best.Template = strings.Join(best.tokens, " ")
	}
	best.Count++
	return Match{EventID: best.ID, Template: best.Template, Params: extractParams(best.tokens, rawTokens)}
}

// maskChain is the tokenizer for any non-default masker set: it applies
// the maskers to the raw message as a chain of regex replacements and
// tokenizes the masked and the raw message.
func (p *Parser) maskChain(message string) (masked string, tokens, rawTokens []string) {
	masked = message
	for _, re := range p.cfg.Maskers {
		masked = re.ReplaceAllString(masked, Wildcard)
	}
	tokens = strings.Fields(masked)
	if len(tokens) == 0 {
		tokens = []string{""}
	}
	// A custom masker may match or produce whitespace; when the two
	// tokenizations disagree, parameters fall back to the masked values.
	rawTokens = strings.Fields(message)
	if len(rawTokens) != len(tokens) {
		rawTokens = tokens
	}
	return masked, tokens, rawTokens
}

// maskTokens masks each raw token with maskScan. It returns raw itself
// when no token changed.
func maskTokens(raw []string) []string {
	var tokens []string
	for i, tok := range raw {
		m, changed := maskScan(tok)
		if !changed {
			continue
		}
		if tokens == nil {
			tokens = append([]string(nil), raw...)
		}
		tokens[i] = m
	}
	if tokens == nil {
		return raw
	}
	return tokens
}

// Byte classes for maskScan. Word bytes are ASCII [0-9A-Za-z_], the bytes
// regexp's \b tests; every other byte — including each byte of a
// multibyte or invalid UTF-8 sequence — is a non-word byte.
const (
	classWord = 1 << iota
	classDigit
	classHex
)

var byteClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case '0' <= c && c <= '9':
			t[c] = classWord | classDigit | classHex
		case 'a' <= c && c <= 'f', 'A' <= c && c <= 'F':
			t[c] = classWord | classHex
		case 'g' <= c && c <= 'z', 'G' <= c && c <= 'Z', c == '_':
			t[c] = classWord
		}
	}
	return t
}()

func isWord(c byte) bool { return byteClass[c]&classWord != 0 }

// maskScan is the default masker chain as one left-to-right byte scan,
// returning s itself when nothing matched. Each default masker matches
// only spans that start and end at a word boundary, and the wildcard
// begins and ends with non-word bytes, so no replacement changes what a
// later masker sees and the chain reduces to two rules tried at the
// start of each maximal word run:
//   - IPv4 (ipv4End), which may span several word runs;
//   - otherwise the whole run is masked if it is all digits, all hex and
//     at least 8 long, or 0x followed by hex (maskedRun).
func maskScan(s string) (string, bool) {
	var b strings.Builder
	done := 0 // s[:done] has been written to b
	for i := 0; i < len(s); {
		if !isWord(s[i]) {
			i++
			continue
		}
		end := ipv4End(s, i)
		hit := end >= 0
		if !hit {
			end = i + 1
			for end < len(s) && isWord(s[end]) {
				end++
			}
			hit = maskedRun(s[i:end])
		}
		if hit {
			if i == 0 && end == len(s) {
				return Wildcard, true
			}
			if done == 0 {
				b.Grow(len(s) + len(Wildcard))
			}
			b.WriteString(s[done:i])
			b.WriteString(Wildcard)
			done = end
		}
		i = end
	}
	if done == 0 {
		return s, false
	}
	b.WriteString(s[done:])
	return b.String(), true
}

// ipv4End returns where the IPv4 masker's match starting at word-run
// start i ends, or -1. The match is four dot-separated octets, each a
// whole digit run of length 1–3, then ":port" if a word boundary follows
// the port's digits; otherwise a word boundary must follow the last
// octet.
func ipv4End(s string, i int) int {
	j := i
	for octet := 0; octet < 4; octet++ {
		if octet > 0 {
			if j >= len(s) || s[j] != '.' {
				return -1
			}
			j++
		}
		k := digitsEnd(s, j)
		if n := k - j; n < 1 || n > 3 {
			return -1
		}
		j = k
	}
	if j < len(s) && s[j] == ':' {
		if k := digitsEnd(s, j+1); k > j+1 && (k == len(s) || !isWord(s[k])) {
			return k
		}
	}
	if j < len(s) && isWord(s[j]) {
		return -1
	}
	return j
}

func digitsEnd(s string, j int) int {
	for j < len(s) && byteClass[s[j]]&classDigit != 0 {
		j++
	}
	return j
}

// maskedRun reports whether the hex-literal, long-hex or integer masker
// replaces the maximal word run r. Uppercase 0X is not a hex literal.
func maskedRun(r string) bool {
	if all(r, classDigit) || len(r) >= 8 && all(r, classHex) {
		return true
	}
	return len(r) > 2 && r[:2] == "0x" && all(r[2:], classHex)
}

// all reports whether every byte of s is in class.
func all(s string, class uint8) bool {
	for i := 0; i < len(s); i++ {
		if byteClass[s[i]]&class == 0 {
			return false
		}
	}
	return true
}

// route walks (and lazily builds) the internal levels, returning the leaf.
func (p *Parser) route(tokens []string) *node {
	n, ok := p.root[len(tokens)]
	if !ok {
		n = &node{}
		p.root[len(tokens)] = n
	}
	prefixLevels := p.cfg.Depth - 2
	for d := 0; d < prefixLevels; d++ {
		key := Wildcard
		if d < len(tokens) {
			key = routingKey(tokens[d])
		}
		if n.children == nil {
			n.children = make(map[string]*node)
		}
		child, ok := n.children[key]
		if !ok {
			if len(n.children) >= p.cfg.MaxChildren {
				key = Wildcard
				child, ok = n.children[key]
			}
			if !ok {
				child = &node{}
				n.children[key] = child
			}
		}
		n = child
	}
	return n
}

// routingKey collapses digit-bearing tokens to the wildcard so variable
// values do not explode the tree, per the Drain paper.
func routingKey(token string) string {
	if token == Wildcard || strings.ContainsAny(token, "0123456789") {
		return Wildcard
	}
	return token
}

// bestGroup returns the most similar group at the leaf and its similarity.
// Ties keep the first group, so the scan can stop at a perfect match.
func (p *Parser) bestGroup(leaf *node, tokens []string) (*Event, float64) {
	var best *Event
	bestSim := -1.0
	for _, ev := range leaf.groups {
		sim := similarity(ev.tokens, tokens)
		if sim > bestSim {
			best, bestSim = ev, sim
			if sim == 1 {
				break
			}
		}
	}
	return best, bestSim
}

// similarity is the fraction of positions where the template token equals
// the message token (Drain's simSeq definition). A wildcard template
// position counts as a match only against a masked (wildcard) message
// token: masked tokens can never be anything but parameters, and without
// this rule a fully-masked message scores 0 against its own template and
// mints a fresh group on every parse — unbounded growth on numeric-heavy
// streams (found by FuzzParse).
func similarity(template, tokens []string) float64 {
	if len(template) != len(tokens) {
		return 0
	}
	same := 0
	for i := range template {
		if template[i] == tokens[i] {
			same++
		}
	}
	return float64(same) / float64(len(tokens))
}

// extractParams returns the message tokens at wildcard template positions.
func extractParams(template, tokens []string) []string {
	var params []string
	for i, t := range template {
		if t == Wildcard {
			params = append(params, tokens[i])
		}
	}
	return params
}

// Events returns a snapshot of every discovered event, in ID order.
func (p *Parser) Events() []*Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Event, len(p.events))
	for i, ev := range p.events {
		cp := *ev
		cp.tokens = nil
		out[i] = &cp
	}
	return out
}

// MintedTemplates returns, in id order from id from onward, the template
// each event had when it was minted: its example's masked tokens, before
// later messages widened positions to wildcards. The event-table row of an
// event is built from it, so a rebuilt table embeds what the live one did.
func (p *Parser) MintedTemplates(from int) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, ev := range p.events[min(from, len(p.events)):] {
		out = append(out, strings.Join(strings.Fields(ev.Example), " "))
	}
	return out
}

// NumEvents returns how many distinct templates have been discovered.
func (p *Parser) NumEvents() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.events)
}
