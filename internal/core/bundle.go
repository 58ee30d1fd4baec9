package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/repr"
)

// Bundle is the serialized form of a deployed LogSynergy model: the
// configuration, trained parameters, and the target system's event table
// (templates + interpretations; embeddings are recomputed from the
// deterministic embedder on load).
type Bundle struct {
	Config     Config               `json:"config"`
	NumSystems int                  `json:"num_systems"`
	System     string               `json:"system"`
	EmbedDim   int                  `json:"embed_dim"`
	Interps    []lei.Interpretation `json:"interps"`
	Params     json.RawMessage      `json:"params"`
}

// SaveBundle serializes a trained model and its target event table.
func SaveBundle(w io.Writer, m *Model, table *repr.EventTable) error {
	var paramBuf bytes.Buffer
	if err := m.Params.Save(&paramBuf); err != nil {
		return fmt.Errorf("core: saving parameters: %w", err)
	}
	b := Bundle{
		Config:     m.Cfg,
		NumSystems: m.numSystems,
		System:     table.System,
		EmbedDim:   table.Dim,
		Interps:    table.Interps,
		Params:     json.RawMessage(paramBuf.Bytes()),
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(b); err != nil {
		return err
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return err
	}
	// Integrity footer: format version + CRC32C over the JSON body
	// (including its trailing newline). LoadBundle verifies it, turning
	// silent truncation and bit flips into loud checksum errors.
	_, err := fmt.Fprintf(w, bundleFooterFmt, bundleFooterVersion, crc32.Checksum(body.Bytes(), bundleCRCTable))
	return err
}

// The bundle footer is one trailing comment-style line after the JSON:
//
//	#lsbundle v1 crc32c=xxxxxxxx
//
// The version lets the format grow; a loader refuses versions newer than
// it understands, and a bundle without the footer like any other corrupt
// one.
const (
	bundleFooterPrefix  = "#lsbundle v"
	bundleFooterFmt     = bundleFooterPrefix + "%d crc32c=%08x\n"
	bundleFooterVersion = 1
)

var bundleCRCTable = crc32.MakeTable(crc32.Castagnoli)

// splitBundleFooter separates the serialized bundle into JSON body and
// footer line. A missing footer returns ok=false.
func splitBundleFooter(data []byte) (body, footer []byte, ok bool) {
	trimmed := bytes.TrimRight(data, "\n")
	i := bytes.LastIndexByte(trimmed, '\n')
	line := trimmed[i+1:]
	if !bytes.HasPrefix(line, []byte(bundleFooterPrefix)) {
		return data, nil, false
	}
	return data[:i+1], line, true
}

// verifyBundleFooter checks the footer's version and CRC against body.
func verifyBundleFooter(body, footer []byte) error {
	var version int
	var sum uint32
	if n, err := fmt.Sscanf(string(footer), bundleFooterFmt, &version, &sum); err != nil || n != 2 {
		return fmt.Errorf("core: malformed bundle footer %q", footer)
	}
	if version > bundleFooterVersion {
		return fmt.Errorf("core: bundle format v%d is newer than supported v%d", version, bundleFooterVersion)
	}
	if got := crc32.Checksum(body, bundleCRCTable); got != sum {
		return fmt.Errorf("core: bundle checksum mismatch (got %08x want %08x): truncated or corrupted", got, sum)
	}
	return nil
}

// validate rejects bundles whose structure would crash or mis-size model
// reconstruction, with errors that name the corrupt field.
func (b *Bundle) validate() error {
	c := b.Config
	switch {
	case b.EmbedDim <= 0:
		return fmt.Errorf("core: bundle embed dim %d must be positive", b.EmbedDim)
	case b.EmbedDim != c.EmbedDim:
		return fmt.Errorf("core: bundle embed dim %d does not match model config embed dim %d",
			b.EmbedDim, c.EmbedDim)
	case b.NumSystems < 1:
		return fmt.Errorf("core: bundle records %d systems, need at least 1", b.NumSystems)
	case c.ModelDim <= 0 || c.Heads <= 0 || c.FFDim <= 0 || c.Depth <= 0:
		return fmt.Errorf("core: bundle config has non-positive architecture dims (model %d, heads %d, ff %d, depth %d)",
			c.ModelDim, c.Heads, c.FFDim, c.Depth)
	case c.ModelDim%c.Heads != 0:
		return fmt.Errorf("core: bundle model dim %d not divisible by %d heads", c.ModelDim, c.Heads)
	case len(b.Params) == 0 || bytes.Equal(bytes.TrimSpace(b.Params), []byte("null")),
		bytes.Equal(bytes.TrimSpace(b.Params), []byte("[]")):
		// A missing or empty payload would "load" as a random-init model.
		return fmt.Errorf("core: bundle has no parameter payload")
	}
	return nil
}

// LoadBundle reconstructs a detector from a serialized bundle. The event
// embeddings are recomputed with a fresh embedder of the recorded
// dimension — the hash embedder is deterministic, so the reconstruction is
// exact. A corrupted stream (truncation, bit flips, mismatched dims)
// yields a descriptive error, never a panic. The footer's CRC is
// verified before any JSON is parsed.
func LoadBundle(r io.Reader) (det *Detector, err error) {
	// Backstop: whatever validation misses must still surface as an error
	// on a hostile byte stream, not take the process down.
	defer func() {
		if rec := recover(); rec != nil {
			det, err = nil, fmt.Errorf("core: corrupt bundle: %v", rec)
		}
	}()
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading bundle: %w", err)
	}
	body, footer, ok := splitBundleFooter(data)
	if !ok {
		return nil, fmt.Errorf("core: bundle has no %q integrity footer: truncated, or not a bundle", bundleFooterPrefix)
	}
	if err := verifyBundleFooter(body, footer); err != nil {
		return nil, err
	}
	var b Bundle
	// json.Unmarshal (not a Decoder) so trailing garbage — say, the torn
	// remnant of a footer after truncation — is an error, not ignored.
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, fmt.Errorf("core: decoding bundle: %w", err)
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	m := NewModel(b.Config, b.NumSystems)
	if err := m.Params.Load(bytes.NewReader(b.Params)); err != nil {
		return nil, fmt.Errorf("core: loading bundle parameters: %w", err)
	}
	e := embed.New(b.EmbedDim)
	texts := make([]string, len(b.Interps))
	for i, in := range b.Interps {
		texts[i] = in.Text
	}
	table := &repr.EventTable{
		System:  b.System,
		Dim:     b.EmbedDim,
		Vectors: e.EmbedAll(texts),
		Interps: b.Interps,
	}
	return NewDetector(m, table), nil
}
