package broker

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Consumer-group offsets persist in a single small JSON file beside the
// segments, rewritten atomically (temp file + rename) on every commit.
// The committed offset is the highest record a group has fully
// processed; a restarted consumer resumes at committed+1, which is what
// makes acknowledged records crash-proof: the owner commits only after
// what it derived from the records is itself durable (Consumer.Commit),
// so replay can redeliver but never skip.

// offsetsFileName is the offsets file inside the WAL directory.
const offsetsFileName = "offsets.json"

// offsetsFile is the serialized offsets table.
type offsetsFile struct {
	Version int               `json:"version"`
	Groups  map[string]uint64 `json:"groups"`
}

// offsetsPath renders the offsets file path for a WAL directory.
func offsetsPath(dir string) string { return filepath.Join(dir, offsetsFileName) }

// loadOffsets reads the offsets table; a missing file is an empty table.
func loadOffsets(path string) (map[string]uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]uint64{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("broker: reading offsets: %w", err)
	}
	var f offsetsFile
	if err := json.Unmarshal(data, &f); err != nil {
		// A torn offsets write cannot happen (temp+rename), so damage
		// here is real corruption. Starting every group from zero would
		// silently re-deliver everything; refuse and let the operator
		// decide.
		return nil, fmt.Errorf("broker: corrupt offsets file %s: %w", path, err)
	}
	if f.Version > 1 {
		return nil, fmt.Errorf("broker: offsets file version %d is newer than supported (1)", f.Version)
	}
	if f.Groups == nil {
		f.Groups = map[string]uint64{}
	}
	return f.Groups, nil
}

// saveOffsetsLocked persists the current offsets table atomically.
// Callers hold b.mu.
func (b *Broker) saveOffsetsLocked() error {
	path := offsetsPath(b.cfg.Dir)
	data, err := json.Marshal(offsetsFile{Version: 1, Groups: b.groups})
	if err != nil {
		return fmt.Errorf("broker: encoding offsets: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("broker: writing offsets: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("broker: writing offsets: %w", err)
	}
	if b.cfg.Fsync == FsyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("broker: syncing offsets: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("broker: writing offsets: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("broker: swapping offsets: %w", err)
	}
	return nil
}
