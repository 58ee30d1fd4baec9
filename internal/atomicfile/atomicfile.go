// Package atomicfile is the one durable file install: partition state,
// the cutover journal, the cluster manifest and partition leases all
// replace a file through Write.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// Write installs data at path atomically and durably: a randomized temp
// file in the same directory, fsynced before the rename, and the directory
// fsynced after it so the rename itself survives a power cut. A failure
// leaves any previous file untouched and no temp file behind.
func Write(path string, data []byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("creating temp file for %s: %w", base, err)
	}
	tmpName := tmp.Name()
	fail := func(step string, err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("%s %s: %w", step, base, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail("writing", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("syncing", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("closing", err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		return fail("setting mode on", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fail("installing", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so an entry just renamed into it, or removed
// from it, is durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("opening %s for sync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", dir, err)
	}
	return nil
}
