package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"logsynergy/internal/atomicfile"
)

// Partition leases fence partition ownership across processes on shared
// storage. A lease has two parts, both in the partition directory:
//
//   - cluster-lease.lock — an flock(2)-held lock file. The fd (and with
//     it the lock) is held for the whole time the process serves the
//     partition and drops automatically when the process dies. Holding
//     it is what makes acquisition atomic: two concurrent acquirers
//     cannot both pass the epoch checks, because only one holds the
//     flock while checking. It is also the liveness fence — a standby
//     cannot adopt a partition whose owner is still alive (probe path
//     wedged, network partition, GC pause), because the owner's flock
//     refuses the takeover outright. Better to fail the failover than
//     to let two processes append to one WAL.
//   - cluster-lease.json — the durable {epoch, node} record, written
//     with the same fsynced temp+rename discipline as the manifest. It
//     fences across process lifetimes, where no flock survives:
//
//       - a record from a NEWER epoch refuses the open outright — a
//         node holding a stale manifest (e.g. the dead node restarting
//         after a failover bumped the epoch) cannot re-open partitions
//         that were reassigned out from under it;
//       - a record from the SAME epoch held by a DIFFERENT node refuses
//         the open — the manifest assigns each partition exactly once
//         per epoch, so this only happens on operator error (two nodes
//         configured with the same assignments);
//       - the same node re-staking its own epoch is an idempotent
//         restart;
//       - an OLDER epoch's record is superseded and overwritten.
//
// The lock file is never renamed or replaced — flock identifies the
// inode, so replacing it would silently break mutual exclusion.

// leaseFileName is the durable fence record inside a partition's WAL
// directory.
const leaseFileName = "cluster-lease.json"

// leaseLockName is the flock file inside a partition's WAL directory.
const leaseLockName = "cluster-lease.lock"

// partitionLease is the serialized fence record.
type partitionLease struct {
	Version int    `json:"version"`
	Epoch   uint64 `json:"epoch"`
	Node    string `json:"node"`
}

// leasePath renders the lease record path for a partition directory.
func leasePath(dir string) string { return filepath.Join(dir, leaseFileName) }

// leaseLockPath renders the flock file path for a partition directory.
func leaseLockPath(dir string) string { return filepath.Join(dir, leaseLockName) }

// readLease loads a partition's lease record; a missing file returns nil.
func readLease(dir string) (*partitionLease, error) {
	data, err := os.ReadFile(leasePath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: reading lease: %w", err)
	}
	var l partitionLease
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("cluster: corrupt lease %s: %w", leasePath(dir), err)
	}
	return &l, nil
}

// Lease is a held partition fence: the flock stays held until Release
// (or process death), and no other process can acquire the partition
// while it is. The holder must Release before any other process may
// serve the partition — which is exactly the single-writer guarantee.
type Lease struct {
	dir string
	f   *os.File
}

// acquireLease stakes node's claim on the partition directory at epoch:
// it takes the flock (refusing if any live process holds it), then
// applies the epoch fencing rules to the durable record and stakes it.
// The directory is created if needed (a standby adopting a partition
// whose WAL dir it has never opened). The returned Lease must be held
// for as long as the partition is served and Released when ownership
// ends.
func acquireLease(dir string, epoch uint64, node string) (*Lease, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: creating partition dir: %w", err)
	}
	f, err := os.OpenFile(leaseLockPath(dir), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: opening lease lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		cur, rerr := readLease(dir)
		if rerr == nil && cur != nil {
			if cur.Epoch > epoch {
				return nil, fmt.Errorf("cluster: partition %s is leased by %q at epoch %d, newer than this manifest's epoch %d, "+
					"and the lease is held by a live process; reload the current manifest", dir, cur.Node, cur.Epoch, epoch)
			}
			return nil, fmt.Errorf("cluster: partition %s is leased by %q (epoch %d) and held by a live process; "+
				"two nodes must never serve one partition concurrently", dir, cur.Node, cur.Epoch)
		}
		return nil, fmt.Errorf("cluster: partition %s's lease is held by a live process", dir)
	}
	l := &Lease{dir: dir, f: f}
	// The flock is held: no other process is inside this check-then-act
	// window, so reading the record, fencing, and staking are atomic.
	cur, err := readLease(dir)
	if err != nil {
		l.Release()
		return nil, err
	}
	if cur != nil {
		if cur.Epoch > epoch {
			l.Release()
			return nil, fmt.Errorf("cluster: partition %s is leased by %q at epoch %d, newer than this manifest's epoch %d; "+
				"reload the current manifest", dir, cur.Node, cur.Epoch, epoch)
		}
		if cur.Epoch == epoch && cur.Node != node {
			l.Release()
			return nil, fmt.Errorf("cluster: partition %s is already leased by %q in epoch %d; "+
				"two nodes must never serve one partition in the same epoch", dir, cur.Node, epoch)
		}
		if cur.Epoch == epoch && cur.Node == node {
			return l, nil // idempotent restart: the record is already right
		}
	}
	if err := l.stake(epoch, node); err != nil {
		l.Release()
		return nil, err
	}
	return l, nil
}

// stake writes the durable lease record. Caller holds the flock.
func (l *Lease) stake(epoch uint64, node string) error {
	data, err := json.Marshal(partitionLease{Version: 1, Epoch: epoch, Node: node})
	if err != nil {
		return fmt.Errorf("cluster: encoding lease: %w", err)
	}
	if err := atomicfile.Write(leasePath(l.dir), append(data, '\n')); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// Restake rewrites the held lease's record at a newer epoch — a node
// keeping a partition across a manifest refresh. The flock never drops,
// so no other process can slip in between epochs.
func (l *Lease) Restake(epoch uint64, node string) error {
	if l == nil || l.f == nil {
		return fmt.Errorf("cluster: restaking a released lease")
	}
	return l.stake(epoch, node)
}

// Release drops the flock (closing the fd releases it — the same way
// the OS releases a crashed process's locks). The durable record stays:
// epoch fencing outlives the process. Idempotent.
func (l *Lease) Release() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
