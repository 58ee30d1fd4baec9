package core

import (
	"bytes"
	"strings"
	"testing"
)

// TestBundleFooterRoundtrip: SaveBundle appends the versioned CRC footer
// and LoadBundle verifies it.
func TestBundleFooterRoundtrip(t *testing.T) {
	raw := goodBundle(t)
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	footer := lines[len(lines)-1]
	if !strings.HasPrefix(footer, "#lsbundle v1 crc32c=") {
		t.Fatalf("footer %q", footer)
	}

	det, err := LoadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadBundle: %v", err)
	}
	if det == nil {
		t.Fatal("nil detector")
	}
}

// TestBundleFooterDetectsCorruption: any body mutation that still parses
// as JSON is now caught by the checksum before JSON is even attempted.
func TestBundleFooterDetectsCorruption(t *testing.T) {
	raw := goodBundle(t)
	// Flip one digit inside a number: structurally valid JSON, different
	// semantics — exactly the corruption a checksum exists for.
	i := bytes.Index(raw, []byte(`"num_systems":2`))
	if i < 0 {
		t.Fatal("marker not found; bundle layout changed")
	}
	mut := append([]byte(nil), raw...)
	mut[i+len(`"num_systems":`)] = '3'
	_, err := LoadBundle(bytes.NewReader(mut))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("LoadBundle = %v, want checksum mismatch", err)
	}
}

// TestBundleFooterNewerVersionRefused: a footer from a future format
// version must be refused, not half-parsed.
func TestBundleFooterNewerVersionRefused(t *testing.T) {
	raw := goodBundle(t)
	body, _, ok := splitBundleFooter(raw)
	if !ok {
		t.Fatal("no footer on fresh bundle")
	}
	fut := append(append([]byte(nil), body...), []byte("#lsbundle v99 crc32c=00000000\n")...)
	_, err := LoadBundle(bytes.NewReader(fut))
	if err == nil || !strings.Contains(err.Error(), "newer than supported") {
		t.Fatalf("LoadBundle = %v, want version refusal", err)
	}
}

// TestBundleWithoutFooterRefused: a bundle stripped of its footer (bare
// JSON, the pre-footer format) is refused like any other corrupt
// bundle — its integrity cannot be checked.
func TestBundleWithoutFooterRefused(t *testing.T) {
	raw := goodBundle(t)
	body, _, ok := splitBundleFooter(raw)
	if !ok {
		t.Fatal("no footer on fresh bundle")
	}
	loadMustFail(t, body, "footer")
	loadMustFail(t, body[:len(body)/2], "footer")
}

// TestBundleFooterMalformed: a recognizable but garbled footer is an
// error — better loud than guessing.
func TestBundleFooterMalformed(t *testing.T) {
	raw := goodBundle(t)
	body, _, _ := splitBundleFooter(raw)
	bad := append(append([]byte(nil), body...), []byte("#lsbundle vX nonsense\n")...)
	_, err := LoadBundle(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "footer") {
		t.Fatalf("LoadBundle = %v, want malformed footer error", err)
	}
}

// TestBundleTruncatedAtFooterBoundary: a bundle cut anywhere inside its
// footer — including exactly at the body/footer boundary — is refused.
func TestBundleTruncatedAtFooterBoundary(t *testing.T) {
	raw := goodBundle(t)
	body, footer, _ := splitBundleFooter(raw)
	for cut := 0; cut < len(footer); cut += 5 {
		if _, err := LoadBundle(bytes.NewReader(raw[:len(body)+cut])); err == nil {
			t.Fatalf("bundle with %d of %d footer bytes loaded", cut, len(footer))
		}
	}
}
