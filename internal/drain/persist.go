package drain

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// SavedEvent is the serialized form of one template group — the unit the
// parser's state exports and imports. Event ids are positions: a valid
// slice is contiguous from 0, which is what lets an importer reproduce
// the exporter's id space exactly.
type SavedEvent struct {
	ID       int    `json:"id"`
	Template string `json:"template"`
	Example  string `json:"example"`
	Count    int    `json:"count"`
}

// Export snapshots every template group in id order. The routing tree is
// not exported: Import rebuilds it deterministically from the templates.
// Together with Import this is the parser half of a shard state handoff —
// a partition persists its groups on commit and a rebalance splices them
// into another partition's state without re-minting ids for templates the
// stream has already taught the parser.
func (p *Parser) Export() []SavedEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SavedEvent, len(p.events))
	for i, ev := range p.events {
		out[i] = SavedEvent{ID: ev.ID, Template: ev.Template, Example: ev.Example, Count: ev.Count}
	}
	return out
}

// Import replays exported events into a fresh parser, preserving ids,
// templates, examples and counts. Subsequent parsing continues the id
// space exactly where the exporter left off. The parser must be empty —
// importing over live groups would fork the id space.
func (p *Parser) Import(events []SavedEvent) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.events) != 0 {
		return fmt.Errorf("drain: importing into a parser that already has %d events", len(p.events))
	}
	for i, se := range events {
		if se.ID != i {
			return fmt.Errorf("drain: non-contiguous event id %d at position %d", se.ID, i)
		}
		tokens := strings.Fields(se.Template)
		if len(tokens) == 0 {
			tokens = []string{""}
		}
		ev := &Event{
			ID:       se.ID,
			Template: se.Template,
			Example:  se.Example,
			Count:    se.Count,
			tokens:   tokens,
		}
		leaf := p.route(tokens)
		leaf.groups = append(leaf.groups, ev)
		p.events = append(p.events, ev)
	}
	return nil
}

// Merge splices exported events from another parser into this one, which
// may already hold live groups — the online half of a key handoff, where
// the destination parser keeps serving its own streams while a moved
// key's history arrives. Events whose template this parser already knows
// keep the local group (the donor's count is not re-added: the merge must
// be idempotent, because a move the cutover journal has not committed is
// installed again after a crash or a failed step); unknown templates
// are appended at the next local id. The returned map translates every
// donor id to its local id, so pattern verdicts and window sequences
// captured in the donor's id space can follow the key across.
func (p *Parser) Merge(events []SavedEvent) (map[int]int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	byTemplate := make(map[string]*Event, len(p.events))
	for _, ev := range p.events {
		byTemplate[ev.Template] = ev
	}
	translate := make(map[int]int, len(events))
	for _, se := range events {
		if ev, ok := byTemplate[se.Template]; ok {
			translate[se.ID] = ev.ID
			continue
		}
		tokens := strings.Fields(se.Template)
		if len(tokens) == 0 {
			tokens = []string{""}
		}
		ev := &Event{
			ID:       len(p.events),
			Template: se.Template,
			Example:  se.Example,
			Count:    se.Count,
			tokens:   tokens,
		}
		leaf := p.route(tokens)
		leaf.groups = append(leaf.groups, ev)
		p.events = append(p.events, ev)
		byTemplate[se.Template] = ev
		translate[se.ID] = ev.ID
	}
	return translate, nil
}

// SaveState serializes the parser's template groups as JSON. The routing
// tree itself is not stored: it is rebuilt deterministically from the
// templates on load.
func (p *Parser) SaveState(w io.Writer) error {
	return json.NewEncoder(w).Encode(p.Export())
}

// LoadState reconstructs a parser from SaveState output, preserving event
// ids, templates and counts. Subsequent parsing continues the id space
// exactly where the saved parser left off — the property a restart-safe
// deployment needs so stored models keep referencing the right events.
func LoadState(r io.Reader, cfg Config) (*Parser, error) {
	var in []SavedEvent
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("drain: decoding state: %w", err)
	}
	p := New(cfg)
	if err := p.Import(in); err != nil {
		return nil, err
	}
	return p, nil
}
