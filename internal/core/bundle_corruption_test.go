package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"logsynergy/internal/embed"
	"logsynergy/internal/lei"
	"logsynergy/internal/repr"
	"logsynergy/internal/tensor"
)

// goodBundle serializes a small valid bundle for the corruption tests.
func goodBundle(t *testing.T) []byte {
	t.Helper()
	cfg := DefaultConfig()
	m := NewModel(cfg, 2)
	e := embed.New(cfg.EmbedDim)
	table := &repr.EventTable{System: "SystemB", Dim: cfg.EmbedDim, Vectors: tensor.New(0, cfg.EmbedDim)}
	table.Extend(lei.Interpretation{Template: "service heartbeat ok", Text: "heartbeat"}, e)
	var buf bytes.Buffer
	if err := SaveBundle(&buf, m, table); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withFooter appends a valid integrity footer to a re-marshalled bundle
// body, so LoadBundle gets past the checksum to the structural checks.
func withFooter(body []byte) []byte {
	body = append(body, '\n')
	return append(body, fmt.Sprintf(bundleFooterFmt, bundleFooterVersion, crc32.Checksum(body, bundleCRCTable))...)
}

// loadMustFail asserts LoadBundle turns the bytes into a descriptive
// error mentioning want — and, above all, does not panic.
func loadMustFail(t *testing.T, raw []byte, want string) {
	t.Helper()
	det, err := LoadBundle(bytes.NewReader(raw))
	if err == nil {
		t.Fatalf("corrupted bundle loaded successfully (det=%v)", det != nil)
	}
	if want != "" && !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// TestLoadBundleTruncated chops a valid bundle at every 1/8th of its
// length: each prefix must produce an error, never a panic or a
// detector built from partial state.
func TestLoadBundleTruncated(t *testing.T) {
	raw := goodBundle(t)
	for i := 1; i < 8; i++ {
		cut := len(raw) * i / 8
		loadMustFail(t, raw[:cut], "")
	}
	loadMustFail(t, nil, "")
}

// TestLoadBundleFlippedBytes flips single bytes across a valid bundle.
// Each mutation must either still decode to a fully valid bundle or
// fail with an error; a panic anywhere fails the test. (JSON is mostly
// text, so many flips corrupt syntax; flips inside numbers can produce
// a different-but-valid bundle, which is beyond checksums' absence.)
func TestLoadBundleFlippedBytes(t *testing.T) {
	raw := goodBundle(t)
	for pos := 0; pos < len(raw); pos += 13 {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x20
		det, err := LoadBundle(bytes.NewReader(mut))
		if err == nil && det == nil {
			t.Fatalf("flip at %d: nil detector without error", pos)
		}
	}
}

// TestLoadBundleWrongEmbedDim corrupts the recorded embedding dimension:
// the bundle must be rejected with an error naming the mismatch, because
// a table rebuilt at the wrong width would crash scoring much later.
func TestLoadBundleWrongEmbedDim(t *testing.T) {
	var b Bundle
	// A Decoder stops at the end of the JSON value, skipping the
	// integrity footer SaveBundle now appends.
	if err := json.NewDecoder(bytes.NewReader(goodBundle(t))).Decode(&b); err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(*Bundle)) []byte {
		c := b
		f(&c)
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return withFooter(out)
	}

	loadMustFail(t, mutate(func(c *Bundle) { c.EmbedDim = c.EmbedDim * 2 }), "embed dim")
	loadMustFail(t, mutate(func(c *Bundle) { c.EmbedDim = 0 }), "embed dim")
	loadMustFail(t, mutate(func(c *Bundle) { c.EmbedDim = -4 }), "embed dim")
	loadMustFail(t, mutate(func(c *Bundle) { c.Config.EmbedDim = c.Config.EmbedDim + 1 }), "embed dim")
	loadMustFail(t, mutate(func(c *Bundle) { c.NumSystems = 0 }), "systems")
	loadMustFail(t, mutate(func(c *Bundle) { c.Config.Heads = 3 }), "heads")
	loadMustFail(t, mutate(func(c *Bundle) { c.Config.Depth = -1 }), "dims")
	loadMustFail(t, mutate(func(c *Bundle) { c.Params = nil }), "parameter")
}

// TestLoadBundleCorruptParams mangles the nested parameter payload: a
// shape/data mismatch must be a descriptive error from the parameter
// loader, not a tensor-construction panic.
func TestLoadBundleCorruptParams(t *testing.T) {
	var b Bundle
	if err := json.NewDecoder(bytes.NewReader(goodBundle(t))).Decode(&b); err != nil {
		t.Fatal(err)
	}
	var params []struct {
		Name  string    `json:"name"`
		Shape []int     `json:"shape"`
		Data  []float64 `json:"data"`
	}
	if err := json.Unmarshal(b.Params, &params); err != nil {
		t.Fatal(err)
	}
	if len(params) == 0 {
		t.Fatal("bundle has no parameters to corrupt")
	}

	remarshal := func() []byte {
		c := b
		p, err := json.Marshal(params)
		if err != nil {
			t.Fatal(err)
		}
		c.Params = p
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return withFooter(out)
	}

	// Shape product disagrees with data length (the historical panic path
	// through tensor.FromSlice).
	saved := params[0].Shape
	params[0].Shape = append([]int{1}, saved...)
	loadMustFail(t, remarshal(), "shape")
	params[0].Shape = saved

	// Right shape, truncated data.
	savedData := params[0].Data
	params[0].Data = savedData[:len(savedData)/2]
	loadMustFail(t, remarshal(), "values")
	params[0].Data = savedData

	// Unknown parameter name.
	savedName := params[0].Name
	params[0].Name = "nonexistent.weight"
	loadMustFail(t, remarshal(), "unknown parameter")
	params[0].Name = savedName

	// Untouched payload still loads after all that mutation.
	if _, err := LoadBundle(bytes.NewReader(remarshal())); err != nil {
		t.Fatalf("restored bundle failed to load: %v", err)
	}
}
