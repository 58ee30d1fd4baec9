package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"logsynergy/internal/atomicfile"
	"logsynergy/internal/drain"
	"logsynergy/internal/pipeline"
)

// Each partition keeps a snapshot of its detection state beside its WAL
// segments: the broker offset it reflects, every key's window tail (event
// ids + slide counter), the parser's template groups — the id space the
// tails and verdicts are written in — and the pattern library's verdicts.
// A commit does not rewrite it (see flushCommit for when one is taken). A
// restart loads it, skips the WAL's records up to Consumed and replays the
// rest up to the newest commit. It is installed after the commit log's
// sync and before the broker offset's commit, so a crash leaves the offset
// behind it, never ahead.
//
// Version 2 added the groups, the verdicts and the partition-count stamp
// (a runtime opened at the wrong shard count refuses instead of silently
// misrouting keys). Version 3 added a live-cutover record that later
// builds ignored. Version 4 writes window tails as event ids instead of
// raw lines, so a restart never parses a line a second time. A file of
// any earlier version is refused by path and version: its tails are raw
// lines, and reading them would mean parsing them again. Only a missing
// file (a fresh partition) yields the unstamped zero state.

// stateFileName is the snapshot file inside a partition's WAL directory.
const stateFileName = "shard-state.json"

// stateVersion is the current snapshot format.
const stateVersion = 4

// partitionState is the serialized snapshot.
type partitionState struct {
	Version int `json:"version"`
	// Partitions is the shard count the partition was laid out for
	// (0 only on a fresh partition with no state file yet, which fits any
	// layout).
	Partitions int `json:"partitions,omitempty"`
	// Consumed is the highest broker offset reflected in Tails (0 = none).
	Consumed uint64 `json:"consumed"`
	// Tails maps stream key → window tail at the Consumed watermark.
	Tails map[string]pipeline.WindowTail `json:"tails,omitempty"`
	// Events are the drain parser's template groups in id order — the id
	// space the Patterns sequences refer to.
	Events []drain.SavedEvent `json:"events,omitempty"`
	// Patterns are the pattern library's cached verdicts, least recently
	// used first.
	Patterns []pipeline.PatternEntry `json:"patterns,omitempty"`
}

// statePath renders the snapshot path for a partition directory.
func statePath(dir string) string { return filepath.Join(dir, stateFileName) }

// loadState reads a partition's snapshot; a missing file is a fresh
// partition. Corruption, a version other than this build's and a file
// without a layout stamp are refused loudly — silently starting from zero
// would double-feed every restored tail. Stale temp files from an
// interrupted saveState are swept here: they are by construction
// incomplete and the real file (if any) is the durable truth.
func loadState(path string) (partitionState, error) {
	sweepStaleTemp(path)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return partitionState{Version: stateVersion}, nil
	}
	if err != nil {
		return partitionState{}, fmt.Errorf("shard: reading state: %w", err)
	}
	if len(data) == 0 {
		return partitionState{}, fmt.Errorf("shard: corrupt state file %s: zero length", path)
	}
	var st partitionState
	if err := json.Unmarshal(data, &st); err != nil {
		return partitionState{}, fmt.Errorf("shard: corrupt state file %s: %w", path, err)
	}
	if st.Version != stateVersion {
		return partitionState{}, fmt.Errorf("shard: state file %s is version %d; this build reads only version %d, "+
			"whose window tails are event ids, not raw lines", path, st.Version, stateVersion)
	}
	if st.Partitions == 0 {
		return partitionState{}, fmt.Errorf("shard: state file %s (version %d) carries no layout stamp; "+
			"a state file must record its partition count", path, st.Version)
	}
	return st, nil
}

// sweepStaleTemp removes saveState temp files left behind by a crash
// between write and rename. Temp names are randomized (os.CreateTemp),
// so the sweep matches the prefix rather than one fixed name.
func sweepStaleTemp(path string) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if name != base && strings.HasPrefix(name, base+".tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// saveState stamps the current format version and installs the snapshot
// through writeJSONFile. A failed install leaves the previous good
// file untouched.
func saveState(path string, st partitionState) error {
	st.Version = stateVersion
	return writeJSONFile(path, st)
}

// writeJSONFile installs v as a JSON file through atomicfile.Write — the
// one write path for partition state and the live-cutover journal. A
// failure leaves any previous file untouched.
func writeJSONFile(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("shard: encoding %s: %w", filepath.Base(path), err)
	}
	if err := atomicfile.Write(path, append(data, '\n')); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}
