// Package cluster is the cross-process coordination layer over the
// sharded detection runtime: it lets the partitions of one logical fleet
// run on separate hosts while keeping every guarantee the single-process
// runtime proves (key affinity, exact resume, zero acknowledged loss).
//
// Three pieces, deliberately small:
//
//   - an assignment manifest (cluster.json): a versioned, checksummed
//     partition→node mapping with a monotonically increasing epoch.
//     Every process loads and validates the same file; a change of
//     ownership is always a new epoch, never an in-place edit.
//   - node mode: each host opens only its assigned partitions' WAL
//     directories (shard.Config.Subset) and serves /ingest, /healthz
//     and /metrics for them. Before opening a partition the node takes
//     an flock-held epoch lease in the partition directory — held for
//     as long as it serves the partition — so two live processes can
//     never serve one partition, and two nodes can never serve one
//     partition in the same epoch.
//   - a front router: consistent-hash routes /ingest batches to the
//     owning nodes over HTTP, with per-node connection pooling, bounded
//     in-flight backpressure, seeded-jitter retries, Retry-After
//     propagation, and a health-checked failover path that reassigns a
//     dead node's partitions to a standby via an epoch-bumped manifest.
//
// The safety argument stays the single-process one: the ring hash is a
// fixed function of (shards, vnodes), so a key's partition is identical
// in every process; a partition's WAL, commit log and shard-state.json
// snapshot are the same files whether one process or three serve them;
// and failover is just the crash-recovery path (snapshot load + WAL replay
// to the newest commit) executed by a different process than the one that
// crashed.
package cluster

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"logsynergy/internal/atomicfile"
)

// ManifestVersion is the current cluster.json format version.
const ManifestVersion = 1

// castagnoli is the CRC32C table (the same polynomial the broker's WAL
// frames use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NodeSpec describes one node of the fleet.
type NodeSpec struct {
	// Addr is the node's HTTP address (host:port) serving /ingest,
	// /healthz, /metrics and /metrics.json.
	Addr string `json:"addr"`
	// Standby marks a node eligible to adopt a dead node's partitions
	// during failover. A standby may also hold assignments of its own.
	Standby bool `json:"standby,omitempty"`
}

// Manifest is the fleet's assignment document (cluster.json): which node
// serves which partition, under which epoch. It is loaded and validated
// by every process; the shard layout it names is stamped against each
// partition's shard-state.json when the owning node opens it.
type Manifest struct {
	// Version is the manifest format version.
	Version int `json:"version"`
	// Epoch increases by one on every reassignment (failover installs an
	// epoch-bumped manifest). Partition leases are staked per epoch.
	Epoch uint64 `json:"epoch"`
	// Shards is the fleet's total partition count — the consistent-hash
	// ring every process builds, and the layout stamp every partition's
	// shard-state.json must match.
	Shards int `json:"shards"`
	// Vnodes overrides the ring's virtual-node count (0 = the shard
	// package default). All processes must agree or keys would route
	// differently per process.
	Vnodes int `json:"vnodes,omitempty"`
	// Dir is the shared-storage runtime root (optional). When set, nodes
	// without an explicit -broker-dir open their partitions under it;
	// failover requires it (the standby must see the dead node's WALs).
	Dir string `json:"dir,omitempty"`
	// Nodes maps node name → spec.
	Nodes map[string]NodeSpec `json:"nodes"`
	// Assignments maps partition index → owning node name
	// (len == Shards).
	Assignments []string `json:"assignments"`
	// Checksum is the hex CRC32C of the manifest's canonical encoding
	// with Checksum itself blanked. Save stamps it; Load verifies it when
	// present (a hand-authored manifest may omit it).
	Checksum string `json:"checksum,omitempty"`
}

// checksum computes the manifest's canonical CRC32C: the JSON encoding
// with the Checksum field blanked.
func (m *Manifest) checksum() (string, error) {
	shadow := *m
	shadow.Checksum = ""
	data, err := json.Marshal(&shadow)
	if err != nil {
		return "", fmt.Errorf("cluster: encoding manifest for checksum: %w", err)
	}
	return fmt.Sprintf("%08x", crc32.Checksum(data, castagnoli)), nil
}

// Stamp sets the format version and recomputes the checksum. Save calls
// it; tests building manifests by hand call it before serving them.
func (m *Manifest) Stamp() error {
	m.Version = ManifestVersion
	sum, err := m.checksum()
	if err != nil {
		return err
	}
	m.Checksum = sum
	return nil
}

// Validate checks the manifest's internal consistency: a positive shard
// count and epoch, every partition assigned to a known node, every node
// addressable, and (when stamped) a matching checksum.
func (m *Manifest) Validate() error {
	if m.Version > ManifestVersion {
		return fmt.Errorf("cluster: manifest version %d is newer than supported (%d)", m.Version, ManifestVersion)
	}
	if m.Shards <= 0 {
		return fmt.Errorf("cluster: manifest needs a positive shard count, got %d", m.Shards)
	}
	if m.Epoch == 0 {
		return fmt.Errorf("cluster: manifest needs a positive epoch (epochs start at 1)")
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("cluster: manifest names no nodes")
	}
	for name, spec := range m.Nodes {
		if name == "" {
			return fmt.Errorf("cluster: manifest has a node with an empty name")
		}
		if spec.Addr == "" {
			return fmt.Errorf("cluster: node %q has no address", name)
		}
	}
	if len(m.Assignments) != m.Shards {
		return fmt.Errorf("cluster: %d assignments for %d partitions", len(m.Assignments), m.Shards)
	}
	for p, node := range m.Assignments {
		if _, ok := m.Nodes[node]; !ok {
			return fmt.Errorf("cluster: partition %d assigned to unknown node %q", p, node)
		}
	}
	if m.Checksum != "" {
		want, err := m.checksum()
		if err != nil {
			return err
		}
		if m.Checksum != want {
			return fmt.Errorf("cluster: manifest checksum %s does not match computed %s (corrupt or hand-edited without restamping)", m.Checksum, want)
		}
	}
	return nil
}

// PartitionsOf returns the partitions assigned to node, ascending. The
// result is non-nil even when empty: a listed node with no assignments
// is a standby, which the shard runtime expresses as an empty Subset.
func (m *Manifest) PartitionsOf(node string) []int {
	parts := []int{}
	for p, n := range m.Assignments {
		if n == node {
			parts = append(parts, p)
		}
	}
	return parts
}

// NodeFor returns the name of the node owning partition p.
func (m *Manifest) NodeFor(p int) string {
	if p < 0 || p >= len(m.Assignments) {
		return ""
	}
	return m.Assignments[p]
}

// NodeNames returns the node names, sorted.
func (m *Manifest) NodeNames() []string {
	names := make([]string, 0, len(m.Nodes))
	for name := range m.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Standbys returns the names of standby nodes, sorted, excluding any
// names in skip — the failover candidate order (deterministic, so every
// router observing the same manifest picks the same successor).
func (m *Manifest) Standbys(skip ...string) []string {
	skipped := make(map[string]bool, len(skip))
	for _, s := range skip {
		skipped[s] = true
	}
	names := []string{}
	for name, spec := range m.Nodes {
		if spec.Standby && !skipped[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Clone deep-copies the manifest.
func (m *Manifest) Clone() *Manifest {
	out := *m
	out.Nodes = make(map[string]NodeSpec, len(m.Nodes))
	for k, v := range m.Nodes {
		out.Nodes[k] = v
	}
	out.Assignments = append([]string(nil), m.Assignments...)
	return &out
}

// Reassign returns an epoch-bumped manifest moving every partition owned
// by dead onto successor. The successor must be a listed node; the dead
// node stays listed (it may come back as a standby) but owns nothing.
func (m *Manifest) Reassign(dead, successor string) (*Manifest, error) {
	if _, ok := m.Nodes[successor]; !ok {
		return nil, fmt.Errorf("cluster: reassignment successor %q is not in the manifest", successor)
	}
	if dead == successor {
		return nil, fmt.Errorf("cluster: cannot reassign %q to itself", dead)
	}
	moved := 0
	out := m.Clone()
	for p, node := range out.Assignments {
		if node == dead {
			out.Assignments[p] = successor
			moved++
		}
	}
	if moved == 0 {
		return nil, fmt.Errorf("cluster: node %q owns no partitions to reassign", dead)
	}
	out.Epoch = m.Epoch + 1
	if err := out.Stamp(); err != nil {
		return nil, err
	}
	return out, nil
}

// Load reads and validates a manifest file.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: corrupt manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &m, nil
}

// Save stamps and installs a manifest through atomicfile.Write — the same
// install as shard-state.json, so a failover's epoch bump either fully
// lands or leaves the previous manifest intact.
func Save(path string, m *Manifest) error {
	if err := m.Stamp(); err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: encoding manifest: %w", err)
	}
	if err := atomicfile.Write(path, append(data, '\n')); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}
