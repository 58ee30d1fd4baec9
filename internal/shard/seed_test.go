package shard

import (
	"testing"

	"logsynergy/internal/core"
	"logsynergy/internal/drain"
	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/logdata"
	"logsynergy/internal/repr"
	"logsynergy/internal/window"
)

// A fresh partition's parser is seeded with the offline table's rows as
// they are, one event per row. Parsing the templates instead lets Drain
// merge two of them: on the README quickstart's Thunderbird table (34
// rows) that left 33 groups, gave about a tenth of live lines another
// row's id, and let the first online mint take row 33's id and vector.
func TestFreshPartitionParserMatchesOfflineIDs(t *testing.T) {
	// The table `logsynergy train -target Thunderbird` bundles at -nt 400.
	const nt = 400
	spec := logdata.Thunderbird()
	lines := (nt-1)*5 + 11
	offline := drain.NewDefault()
	parsed := logdata.Parse(logdata.GenerateScaled(spec, 11, float64(lines)/float64(spec.Lines)), offline)
	cfg := core.DefaultConfig()
	e := embed.New(cfg.EmbedDim)
	table := repr.BuildEventTable(parsed.Windows(window.Default()).Head(nt), lei.NewSimLLM(lei.Config{}), e)

	h := openHarness(t, t.TempDir(), 1, func(c *Config) {
		c.Detector = core.NewDetector(core.NewModel(cfg, 2), table)
		c.Embedder = e
	})
	defer h.rt.Close()
	pt := h.rt.partitionAt(0)
	pt.feedMu.Lock()
	defer pt.feedMu.Unlock()
	parser := pt.pipe.Parser()
	if parser.NumEvents() != table.Len() {
		t.Fatalf("fresh partition's parser has %d events, the table %d rows", parser.NumEvents(), table.Len())
	}
	mismatched := 0
	for _, msg := range logdata.Generate(spec, 99, 3000).Messages() {
		if want, got := offline.Parse(msg).EventID, parser.Parse(msg).EventID; got != want {
			if mismatched++; mismatched <= 3 {
				t.Errorf("%q: partition id %d, offline id %d", msg, got, want)
			}
		}
	}
	if mismatched > 0 {
		t.Fatalf("%d of 3000 live lines got an id other than the offline parser's", mismatched)
	}
}
