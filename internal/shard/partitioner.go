// Package shard is the partition-aware detection runtime: it splits
// broker intake into N partitions with a stable consistent-hash
// partitioner keyed by source-system/stream id, runs one independent
// §VI pipeline (parser → LEI → embed → detect → sink) per partition —
// each with its own WAL directory, consumer offsets, resilience guards
// and obs registry — and delivers anomaly reports from each partition's
// commit log, where each commit appends them with its consumed offset,
// into one sink in per-key order.
//
// The safety argument is the paper's own: per-system log streams are
// semantically independent until the shared encoder, so demultiplexing
// them by stream key changes nothing about any key's window sequence.
// The runtime makes that argument checkable — the equivalence suite
// replays fixed-seed multi-system traffic through 1, 2, 4 and 8 shards
// and requires bit-identical per-key score sequences and identical
// alert multisets versus a single keyed pipeline.
//
// Shared state across partitions is read-only or deduplicated:
//
//   - model weights: read-only during inference (one *core.Model for
//     every partition's detector);
//   - interpretation cache: a singleflight-deduplicated template →
//     interpretation cache (InterpCache), so a hot event template is
//     rendered by the LLM once process-wide;
//   - embedding cache: the shared embedder memoizes whole-text vectors.
//
// Everything else — drain parser, event table, pattern library, alert
// log, offsets, window tails — is per-partition, which is what makes
// a fault injected into one shard invisible to the others.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the number of ring points per partition. 128
// vnodes keep both bounds the equivalence suite asserts: per-partition
// load within 2x of ideal over random keys, and ≤ ~1/(N+1) of keys
// remapped when a ring grows from N to N+1 partitions.
const DefaultVirtualNodes = 128

// Partitioner maps stream keys onto partitions with a consistent-hash
// ring. The mapping depends only on (partition count, vnode count): the
// same key lands on the same partition across restarts and across
// processes, which is what gives the runtime its key-affinity guarantee
// (a key's lines always reach the same partition's WAL, parser, window
// state and pattern library).
type Partitioner struct {
	n    int
	ring []ringPoint
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	h    uint64
	part int
}

// NewPartitioner builds a ring over n partitions with DefaultVirtualNodes
// vnodes each. n must be positive.
func NewPartitioner(n int) *Partitioner {
	return NewPartitionerVnodes(n, DefaultVirtualNodes)
}

// NewPartitionerVnodes builds a ring with an explicit vnode count
// (property tests shrink it to exaggerate imbalance).
func NewPartitionerVnodes(n, vnodes int) *Partitioner {
	if n <= 0 {
		panic(fmt.Sprintf("shard: partition count must be positive, got %d", n))
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	p := &Partitioner{n: n, ring: make([]ringPoint, 0, n*vnodes)}
	for part := 0; part < n; part++ {
		for v := 0; v < vnodes; v++ {
			p.ring = append(p.ring, ringPoint{h: hashKey(fmt.Sprintf("shard/%d/vnode/%d", part, v)), part: part})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool {
		if p.ring[i].h != p.ring[j].h {
			return p.ring[i].h < p.ring[j].h
		}
		// A 64-bit collision between vnode labels is vanishingly unlikely;
		// break it by partition index so the ring order stays total and
		// deterministic either way.
		return p.ring[i].part < p.ring[j].part
	})
	return p
}

// Partitions returns the partition count.
func (p *Partitioner) Partitions() int { return p.n }

// Partition returns the partition owning key: the first ring point at or
// after the key's hash, wrapping at the top of the ring.
func (p *Partitioner) Partition(key string) int {
	if p.n == 1 {
		return 0
	}
	h := hashKey(key)
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].h >= h })
	if i == len(p.ring) {
		i = 0
	}
	return p.ring[i].part
}

// hashKey is the ring hash: FNV-64a finished with a splitmix64-style
// avalanche. Both halves are fixed functions — stable across processes
// and architectures, no seed material that could vary between runs. The
// finalizer matters: raw FNV over the structured vnode labels leaves
// correlated high bits, which skews ring arcs badly enough to break the
// 2x balance bound the property suite asserts.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// DefaultKeyFunc extracts the stream key from a raw log line: the first
// whitespace-delimited token (the source-system/stream id a collection
// tier stamps onto each shipped line). Leading whitespace is skipped
// first — a line indented by its shipper must key on its first real
// token, not on the empty string (which would funnel every padded line
// from every system onto one partition). Lines with no token after the
// padding are their own key — they still route stably.
func DefaultKeyFunc(line string) string {
	start := 0
	for start < len(line) && (line[start] == ' ' || line[start] == '\t') {
		start++
	}
	for i := start; i < len(line); i++ {
		if line[i] == ' ' || line[i] == '\t' {
			return line[start:i]
		}
	}
	return line[start:]
}
