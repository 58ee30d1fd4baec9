package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"logsynergy/internal/broker"
	"logsynergy/internal/drain"
	"logsynergy/internal/pipeline"
)

// Rebalancing changes the partition count of a quiesced broker directory
// without losing any per-key state. Growing a consistent-hash ring from
// N to N+1 moves a ~1/(N+1) slice of keys onto the new partition; each
// moved key must arrive with its exact window tail (so its window phase
// survives the move), and the destination must know every template group
// and pattern verdict the key's history taught its old partition (so the
// first post-move line neither re-mints drain groups nor re-scores
// already-cached windows).
//
// The move is crash-safe by construction, with one commit point:
//
//  1. Stage: every partition's post-rebalance state is written beside
//     the live one as shard-state.json.next (atomic + fsynced). The
//     live files are untouched — a crash here leaves the old layout
//     fully intact.
//  2. Commit: rebalance-manifest.json is written at the root (atomic +
//     fsynced). The manifest's existence IS the commit: from this
//     instant the rebalance is decided.
//  3. Install: each staged file renames over the live one; the manifest
//     is removed last.
//
// recoverRebalance — run by both Rebalance itself and every Runtime
// Open — completes the protocol from any crash point: manifest present
// means roll forward (install the remaining staged files), manifest
// absent means roll back (discard stray staged files). Either way every
// partition ends on one consistent layout; a key is never half-moved.
//
// The partition-count stamp each state file carries closes the loop: a
// runtime opened with the wrong Shards refuses loudly instead of
// silently routing moved keys to partitions that no longer own them.

// rebalanceManifestName is the commit record at the runtime root.
const rebalanceManifestName = "rebalance-manifest.json"

// rebalanceCopyMarker marks a destination directory whose copy from the
// source layout has not finished; opening one is refused.
const rebalanceCopyMarker = "rebalance-copy-incomplete"

// stagedStateSuffix is appended to stateFileName for staged post-
// rebalance states.
const stagedStateSuffix = ".next"

// rebalanceManifest is the commit record: which partitions have staged
// states waiting to be installed.
type rebalanceManifest struct {
	Version    int   `json:"version"`
	From       int   `json:"from"`
	To         int   `json:"to"`
	Partitions []int `json:"partitions"`
}

// RebalanceReport summarizes a completed rebalance.
type RebalanceReport struct {
	// From and To are the old and new partition counts.
	From, To int
	// Dir is the directory holding the rebalanced layout.
	Dir string
	// MovedKeys is how many stream keys changed partitions.
	MovedKeys int
	// MovedLines is the total number of window-tail lines that moved
	// with them.
	MovedLines int
	// AlreadyBalanced reports a no-op: every partition was already
	// stamped with the target layout (e.g. a re-run after a crash that
	// had passed the commit point).
	AlreadyBalanced bool
	// Duration is the wall-clock time the rebalance took.
	Duration time.Duration
}

// rebalanceOpts is the full parameter set; tests reach the crash hook
// through it.
type rebalanceOpts struct {
	oldDir string // the live layout
	newDir string // "" or == oldDir: rebalance in place; else: copy first
	oldN   int
	newN   int
	group  string // consumer group checked for quiescence (default "detector")
	vnodes int    // ring vnodes; must match the runtime's Config.Vnodes
	// crash, when set, is invoked at named protocol points ("staged",
	// "committed"); returning an error aborts exactly there, simulating
	// a crash for the recovery tests.
	crash func(phase string) error
}

// Rebalance re-partitions a quiesced layout from oldN to newN shards.
// With newDir empty (or equal to oldDir) the layout is rewritten in
// place; otherwise the layout is first copied to newDir and rebalanced
// there, leaving oldDir untouched as a rollback. The broker must be
// quiesced: no runtime open on it, and every partition's WAL fully
// consumed and reflected in its persisted state.
func Rebalance(oldDir, newDir string, oldN, newN int) (*RebalanceReport, error) {
	return rebalanceRun(rebalanceOpts{oldDir: oldDir, newDir: newDir, oldN: oldN, newN: newN})
}

// RebalanceGroup is Rebalance with an explicit consumer group for the
// quiescence check (the group the detector runtime reads as; Rebalance
// assumes the default "detector").
func RebalanceGroup(oldDir, newDir string, oldN, newN int, group string) (*RebalanceReport, error) {
	return rebalanceRun(rebalanceOpts{oldDir: oldDir, newDir: newDir, oldN: oldN, newN: newN, group: group})
}

// rebalanceRun implements Rebalance with injectable crash points.
func rebalanceRun(o rebalanceOpts) (*RebalanceReport, error) {
	start := time.Now()
	if o.oldDir == "" {
		return nil, fmt.Errorf("shard: rebalance needs the broker directory")
	}
	if o.oldN <= 0 || o.newN <= 0 {
		return nil, fmt.Errorf("shard: partition counts must be positive (from %d to %d)", o.oldN, o.newN)
	}
	if o.oldN == o.newN {
		return nil, fmt.Errorf("shard: already at %d partitions; nothing to rebalance", o.oldN)
	}
	if o.group == "" {
		o.group = "detector"
	}
	if o.vnodes <= 0 {
		o.vnodes = DefaultVirtualNodes
	}

	root := o.oldDir
	if o.newDir != "" && o.newDir != o.oldDir {
		if err := copyLayout(o.oldDir, o.newDir); err != nil {
			return nil, err
		}
		root = o.newDir
	}
	// A live cutover owns the directory until its journal is gone; an
	// offline rebalance running under it would splice from tails the
	// serving runtime is still moving.
	if j, err := LoadCutoverJournal(filepath.Join(root, CutoverJournalName)); err != nil {
		return nil, err
	} else if j != nil {
		return nil, fmt.Errorf("shard: %s has a live cutover to %d partitions in progress (%s present); "+
			"reopen the runtime at %d shards to let it finish before rebalancing offline", root, j.To, CutoverJournalName, j.To)
	}
	// Finish whatever a previous attempt left behind before reading any
	// state: roll a committed rebalance forward, discard an uncommitted
	// one.
	if err := recoverRebalance(root); err != nil {
		return nil, err
	}

	maxN := o.oldN
	if o.newN > maxN {
		maxN = o.newN
	}
	states := make([]partitionState, maxN)
	dirExists := make([]bool, maxN)
	for i := 0; i < maxN; i++ {
		dir := partitionDir(root, i)
		if _, err := os.Stat(dir); err != nil {
			if os.IsNotExist(err) {
				states[i] = partitionState{Version: stateVersion}
				continue
			}
			return nil, fmt.Errorf("shard: inspecting partition %d: %w", i, err)
		}
		dirExists[i] = true
		st, err := loadState(statePath(dir))
		if err != nil {
			return nil, err
		}
		states[i] = st
	}

	// Re-running after a crash that had passed the commit point lands
	// here with every partition already stamped for the target layout:
	// that is a success, not a conflict.
	if done, stamped := alreadyOnLayout(states, o.newN); done && stamped {
		return &RebalanceReport{From: o.oldN, To: o.newN, Dir: root, AlreadyBalanced: true, Duration: time.Since(start)}, nil
	}
	for i := 0; i < o.oldN; i++ {
		if states[i].Partitions != 0 && states[i].Partitions != o.oldN {
			return nil, fmt.Errorf("shard: partition %d is stamped for %d shards, not the %d this rebalance starts from",
				i, states[i].Partitions, o.oldN)
		}
	}

	// Quiescence: every record appended to a partition's WAL must be
	// reflected in its persisted state. Unconsumed records belong to
	// keys that may be about to move — rebalancing under them would
	// strand their lines on the wrong partition.
	for i := 0; i < o.oldN; i++ {
		if !dirExists[i] {
			continue
		}
		bk, err := broker.Open(broker.Config{Dir: partitionDir(root, i)})
		if err != nil {
			return nil, fmt.Errorf("shard: quiesce check for partition %d: %w", i, err)
		}
		walTail := bk.NextOffset() - 1
		bk.Close()
		if states[i].Consumed < walTail {
			return nil, fmt.Errorf("shard: partition %d is not quiesced: %d WAL records past the persisted state "+
				"(drain the detector and close it cleanly before rebalancing)", i, walTail-states[i].Consumed)
		}
		if states[i].Consumed > walTail {
			return nil, fmt.Errorf("shard: partition %d 's persisted state is ahead of its WAL (%d > %d); "+
				"the WAL appears truncated — refusing to rebalance over data loss", i, states[i].Consumed, walTail)
		}
	}

	// The moved-key set: every key whose window tail lives on a
	// partition the new ring no longer routes it to.
	newRing := NewPartitionerVnodes(o.newN, o.vnodes)
	movedOut := make([]map[string]bool, maxN)
	movedIn := make([]map[string]pipeline.WindowTail, maxN)
	movedKeys, movedLines := 0, 0
	for i := 0; i < o.oldN; i++ {
		for key, tail := range states[i].Tails {
			dest := newRing.Partition(key)
			if dest == i {
				continue
			}
			movedKeys++
			movedLines += len(tail.Lines)
			if movedOut[i] == nil {
				movedOut[i] = make(map[string]bool)
			}
			movedOut[i][key] = true
			if movedIn[dest] == nil {
				movedIn[dest] = make(map[string]pipeline.WindowTail)
			}
			movedIn[dest][key] = tail
		}
	}

	// Event-space donors. Growth: a brand-new partition inherits the
	// union of every old partition's template groups and pattern
	// verdicts — any old partition may have donated keys to it, and a
	// moved key's entire parse history lives on its donor. Shrink: every
	// survivor inherits the union of the retired partitions' spaces.
	var donorStates []partitionState
	if o.newN > o.oldN {
		donorStates = states[:o.oldN]
	} else {
		donorStates = states[o.newN:o.oldN]
	}

	staged := make([]int, 0, maxN)
	for i := 0; i < maxN; i++ {
		st := states[i]
		next := partitionState{
			Version:    stateVersion,
			Partitions: o.newN,
			Consumed:   st.Consumed,
			Tails:      make(map[string]pipeline.WindowTail, len(st.Tails)),
			Events:     st.Events,
			Patterns:   st.Patterns,
		}
		for key, tail := range st.Tails {
			if !movedOut[i][key] {
				next.Tails[key] = tail
			}
		}
		for key, tail := range movedIn[i] {
			next.Tails[key] = tail
		}
		switch {
		case o.newN > o.oldN && i >= o.oldN:
			next.Events, next.Patterns = mergeEventSpaces(nil, nil, donorStates)
		case o.newN < o.oldN && i < o.newN:
			next.Events, next.Patterns = mergeEventSpaces(st.Events, st.Patterns, donorStates)
		}
		dir := partitionDir(root, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("shard: creating partition directory %s: %w", dir, err)
		}
		if err := saveState(statePath(dir)+stagedStateSuffix, next); err != nil {
			return nil, fmt.Errorf("shard: staging partition %d: %w", i, err)
		}
		staged = append(staged, i)
	}
	if o.crash != nil {
		if err := o.crash("staged"); err != nil {
			return nil, err
		}
	}

	// The commit point: once the manifest is durably in place the new
	// layout is decided, and any crash from here rolls forward.
	if err := writeManifest(root, rebalanceManifest{Version: 1, From: o.oldN, To: o.newN, Partitions: staged}); err != nil {
		return nil, err
	}
	if o.crash != nil {
		if err := o.crash("committed"); err != nil {
			return nil, err
		}
	}

	// Install = the recovery roll-forward: the production crash path and
	// the happy path are the same code.
	if err := recoverRebalance(root); err != nil {
		return nil, err
	}
	return &RebalanceReport{
		From:       o.oldN,
		To:         o.newN,
		Dir:        root,
		MovedKeys:  movedKeys,
		MovedLines: movedLines,
		Duration:   time.Since(start),
	}, nil
}

// alreadyOnLayout reports whether every partition the target layout will
// open is stamped for it (done), and whether at least one stamp exists
// (stamped) — both must hold for the no-op shortcut, otherwise a pile of
// fresh unstamped directories would count as "already rebalanced".
func alreadyOnLayout(states []partitionState, newN int) (done, stamped bool) {
	done = true
	for i := 0; i < newN && i < len(states); i++ {
		switch states[i].Partitions {
		case newN:
			stamped = true
		case 0:
		default:
			return false, false
		}
	}
	return done, stamped
}

// mergeEventSpaces splices donor partitions' template groups and pattern
// verdicts into a base event space. Donor events are deduplicated by
// template: an already-known template keeps the base id (counts sum), a
// new one appends at the next id. Donor pattern sequences are translated
// id-by-id into the merged space; verdicts for patterns the base already
// caches are dropped (the base's own verdict wins), and LRU order within
// each donor is preserved.
func mergeEventSpaces(baseEvents []drain.SavedEvent, basePatterns []pipeline.PatternEntry, donors []partitionState) ([]drain.SavedEvent, []pipeline.PatternEntry) {
	events := append([]drain.SavedEvent(nil), baseEvents...)
	idByTemplate := make(map[string]int, len(events))
	for _, ev := range events {
		idByTemplate[ev.Template] = ev.ID
	}
	patterns := append([]pipeline.PatternEntry(nil), basePatterns...)
	seen := make(map[string]bool, len(patterns))
	for _, pe := range patterns {
		seen[seqKey(pe.Seq)] = true
	}
	for _, d := range donors {
		var translate map[int]int
		events, translate = mergeDonorEvents(events, idByTemplate, d.Events)
		patterns = append(patterns, translatePatterns(d.Patterns, translate, func(seq []int) bool {
			k := seqKey(seq)
			if seen[k] {
				return true
			}
			seen[k] = true
			return false
		})...)
	}
	return events, patterns
}

// mergeDonorEvents folds one donor's template groups into a merged event
// slice, returning the extended slice and the donor-id → merged-id
// translation. idByTemplate is updated in place so successive donors
// share one template namespace. Known templates keep the merged id
// (counts sum); new ones append at the next id.
func mergeDonorEvents(events []drain.SavedEvent, idByTemplate map[string]int, donor []drain.SavedEvent) ([]drain.SavedEvent, map[int]int) {
	translate := make(map[int]int, len(donor))
	for _, ev := range donor {
		if id, ok := idByTemplate[ev.Template]; ok {
			translate[ev.ID] = id
			events[id].Count += ev.Count
			continue
		}
		id := len(events)
		events = append(events, drain.SavedEvent{ID: id, Template: ev.Template, Example: ev.Example, Count: ev.Count})
		idByTemplate[ev.Template] = id
		translate[ev.ID] = id
	}
	return events, translate
}

// translatePatterns maps donor pattern verdicts through an id
// translation, dropping entries whose sequence cannot be fully
// translated and those dup reports as already present (the receiver's
// own verdict wins). Order — and therefore donor LRU order — is
// preserved.
func translatePatterns(entries []pipeline.PatternEntry, translate map[int]int, dup func(seq []int) bool) []pipeline.PatternEntry {
	out := make([]pipeline.PatternEntry, 0, len(entries))
	for _, pe := range entries {
		seq := make([]int, len(pe.Seq))
		ok := true
		for j, id := range pe.Seq {
			nid, has := translate[id]
			if !has {
				ok = false
				break
			}
			seq[j] = nid
		}
		if !ok || dup(seq) {
			continue
		}
		out = append(out, pipeline.PatternEntry{Seq: seq, Score: pe.Score})
	}
	return out
}

// seqKey renders an event-id sequence as a dedup key.
func seqKey(seq []int) string {
	var b strings.Builder
	for i, id := range seq {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(id))
	}
	return b.String()
}

// partitionDir renders partition i's directory under root.
func partitionDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("p%d", i))
}

// PartitionDir renders partition i's WAL directory under root — the
// cluster layer uses it to stake epoch leases in partition directories
// before opening them.
func PartitionDir(root string, i int) string { return partitionDir(root, i) }

// partitionDirPattern matches partition directory names.
var partitionDirPattern = regexp.MustCompile(`^p[0-9]+$`)

// recoverRebalance completes an interrupted rebalance under root. A
// present manifest means the rebalance committed: install every staged
// state it lists (idempotent — already-installed partitions are skipped)
// and remove the manifest. No manifest means any staged files belong to
// an attempt that died before its commit point: discard them. Called by
// Rebalance and by every Runtime Open, so both layouts self-heal.
func recoverRebalance(root string) error {
	if root == "" {
		return nil
	}
	if _, err := os.Stat(filepath.Join(root, rebalanceCopyMarker)); err == nil {
		return fmt.Errorf("shard: %s is an unfinished rebalance copy (%s present); delete it and re-run the rebalance from the source directory",
			root, rebalanceCopyMarker)
	}
	mPath := filepath.Join(root, rebalanceManifestName)
	data, err := os.ReadFile(mPath)
	if os.IsNotExist(err) {
		return discardStagedStates(root)
	}
	if err != nil {
		return fmt.Errorf("shard: reading rebalance manifest: %w", err)
	}
	var m rebalanceManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("shard: corrupt rebalance manifest %s: %w", mPath, err)
	}
	for _, i := range m.Partitions {
		dir := partitionDir(root, i)
		next := statePath(dir) + stagedStateSuffix
		if _, err := os.Stat(next); os.IsNotExist(err) {
			continue // this partition's state is already installed
		}
		if err := os.Rename(next, statePath(dir)); err != nil {
			return fmt.Errorf("shard: installing staged state for partition %d: %w", i, err)
		}
		if err := syncDir(dir); err != nil {
			return err
		}
	}
	if err := os.Remove(mPath); err != nil {
		return fmt.Errorf("shard: removing rebalance manifest: %w", err)
	}
	return syncDir(root)
}

// discardStagedStates removes staged state files from an attempt that
// never reached its commit point.
func discardStagedStates(root string) error {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("shard: scanning %s: %w", root, err)
	}
	for _, e := range entries {
		if !e.IsDir() || !partitionDirPattern.MatchString(e.Name()) {
			continue
		}
		next := statePath(filepath.Join(root, e.Name())) + stagedStateSuffix
		if err := os.Remove(next); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("shard: discarding staged state %s: %w", next, err)
		}
	}
	return nil
}

// writeManifest durably installs the commit record.
func writeManifest(root string, m rebalanceManifest) error {
	return writeJSONFile(filepath.Join(root, rebalanceManifestName), m)
}

// writeJSONFile durably installs a small JSON control file (temp in the
// same directory + fsync + rename + directory fsync) — the shared write
// path for the offline rebalance manifest, the live-cutover journal, and
// staged per-key splice files. A failure leaves any previous file
// untouched.
func writeJSONFile(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("shard: encoding %s: %w", filepath.Base(path), err)
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("shard: creating temp file for %s: %w", base, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("shard: writing %s: %w", base, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("shard: syncing %s: %w", base, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("shard: closing %s: %w", base, err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("shard: setting mode on %s: %w", base, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("shard: installing %s: %w", base, err)
	}
	return syncDir(dir)
}

// copyLayout copies every partition directory (and the offsets and
// state files inside) from src to dst, so the rebalance can run against
// the copy while src stays untouched as a rollback. dst must not exist
// or be empty. Two kinds of crashed previous attempts are wiped and
// redone rather than refused: a directory still holding the
// incomplete-copy marker (the copy itself died), and a completed copy
// whose rebalance died after staging but before its manifest — the
// latter leaves orphaned .next files with no marker and no manifest, and
// since the source is still the untouched rollback, the stale copy holds
// nothing worth keeping.
func copyLayout(src, dst string) error {
	if entries, err := os.ReadDir(dst); err == nil {
		marker := false
		for _, e := range entries {
			if e.Name() == rebalanceCopyMarker {
				marker = true
			}
		}
		switch {
		case marker:
			if err := os.RemoveAll(dst); err != nil {
				return fmt.Errorf("shard: clearing crashed rebalance copy %s: %w", dst, err)
			}
		case len(entries) > 0 && crashedPreCommitCopy(dst, entries):
			if err := os.RemoveAll(dst); err != nil {
				return fmt.Errorf("shard: clearing crashed rebalance copy %s: %w", dst, err)
			}
		case len(entries) > 0:
			return fmt.Errorf("shard: rebalance destination %s already exists and is not empty", dst)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("shard: inspecting rebalance destination %s: %w", dst, err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return fmt.Errorf("shard: creating rebalance destination %s: %w", dst, err)
	}
	markerPath := filepath.Join(dst, rebalanceCopyMarker)
	if err := os.WriteFile(markerPath, []byte("copy in progress\n"), 0o644); err != nil {
		return fmt.Errorf("shard: writing copy marker: %w", err)
	}
	if err := syncDir(dst); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return fmt.Errorf("shard: reading rebalance source %s: %w", src, err)
	}
	for _, e := range entries {
		if !e.IsDir() || !partitionDirPattern.MatchString(e.Name()) {
			continue
		}
		if err := copyTree(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	if err := os.Remove(markerPath); err != nil {
		return fmt.Errorf("shard: removing copy marker: %w", err)
	}
	return syncDir(dst)
}

// crashedPreCommitCopy reports whether dst is recognizably a rebalance
// copy that died after staging but before its commit point: no manifest
// at the root, every entry a partition directory, and at least one
// orphaned staged state inside. Anything else — stray files, a present
// manifest (recoverRebalance's job), partition dirs with no staging
// debris — is treated as data and refused by the caller.
func crashedPreCommitCopy(dst string, entries []os.DirEntry) bool {
	orphaned := false
	for _, e := range entries {
		if !e.IsDir() || !partitionDirPattern.MatchString(e.Name()) {
			return false
		}
		next := statePath(filepath.Join(dst, e.Name())) + stagedStateSuffix
		if _, err := os.Stat(next); err == nil {
			orphaned = true
		}
	}
	return orphaned
}

// copyTree copies a directory tree, fsyncing each copied file.
func copyTree(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return fmt.Errorf("shard: creating %s: %w", dst, err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return fmt.Errorf("shard: reading %s: %w", src, err)
	}
	for _, e := range entries {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := copyTree(s, d); err != nil {
				return err
			}
			continue
		}
		if err := copyFile(s, d); err != nil {
			return err
		}
	}
	return syncDir(dst)
}

// copyFile copies one file and fsyncs the copy.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("shard: opening %s: %w", src, err)
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("shard: creating %s: %w", dst, err)
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("shard: copying %s: %w", src, err)
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return fmt.Errorf("shard: syncing %s: %w", dst, err)
	}
	return out.Close()
}
