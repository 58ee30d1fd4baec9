package atomicfile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Write either installs the new bytes or leaves the directory exactly as
// it was: the previous file byte-identical, no temp file behind.
func TestWrite(t *testing.T) {
	const previous = "previous contents\n"
	for _, tc := range []struct {
		name string
		// prepare readies dir (which already holds the previous file at
		// dir/f) and returns the path to install at.
		prepare func(t *testing.T, dir string) string
		wantErr bool
	}{
		{name: "replaces the previous file", prepare: func(t *testing.T, dir string) string {
			return filepath.Join(dir, "f")
		}},
		{name: "creates a missing file", prepare: func(t *testing.T, dir string) string {
			return filepath.Join(dir, "fresh")
		}},
		{name: "unwritable directory", wantErr: true, prepare: func(t *testing.T, dir string) string {
			if os.Geteuid() == 0 {
				t.Skip("root writes to a read-only directory")
			}
			if err := os.Chmod(dir, 0o555); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Chmod(dir, 0o755) })
			return filepath.Join(dir, "f")
		}},
		{name: "rename refused", wantErr: true, prepare: func(t *testing.T, dir string) string {
			// A non-empty directory at the target fails the install at its
			// last step, after the temp file is written and synced.
			target := filepath.Join(dir, "occupied")
			if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
				t.Fatal(err)
			}
			return target
		}},
		{name: "missing directory", wantErr: true, prepare: func(t *testing.T, dir string) string {
			return filepath.Join(dir, "absent", "f")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			prev := filepath.Join(dir, "f")
			if err := os.WriteFile(prev, []byte(previous), 0o600); err != nil {
				t.Fatal(err)
			}
			path := tc.prepare(t, dir)
			before := listing(t, dir)

			err := Write(path, []byte("installed\n"))
			if (err != nil) != tc.wantErr {
				t.Fatalf("Write: err = %v, want an error: %v", err, tc.wantErr)
			}
			if tc.wantErr {
				if got := listing(t, dir); got != before {
					t.Fatalf("a failed install changed the directory:\n%s\nwas:\n%s", got, before)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil || string(data) != "installed\n" {
				t.Fatalf("installed file reads %q, %v", data, err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
				t.Fatalf("installed file mode %v, %v; want 0644", fi.Mode(), err)
			}
			if got := listing(t, dir); strings.Contains(got, ".tmp") {
				t.Fatalf("install left a temp file behind:\n%s", got)
			}
		})
	}
}

// listing renders every regular file under dir as "relative-path=contents"
// plus every directory, in walk order.
func listing(t *testing.T, dir string) string {
	t.Helper()
	var out string
	err := filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		if fi.IsDir() {
			out += rel + "/\n"
			return nil
		}
		data, err := os.ReadFile(p)
		out += rel + "=" + string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
