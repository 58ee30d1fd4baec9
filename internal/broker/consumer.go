package broker

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"logsynergy/internal/framelog"
)

// Consumer reads a group's records in offset order. It is a
// pipeline.Source (Next), and progress is committed in two explicit
// steps the owner sequences around its own durable state:
//
//	Next returns records sequentially, blocking at the head of the log
//	until a producer appends more or the intake closes (then it returns
//	false — the drain signal).
//
//	Ack(off) records that every record through offset off is fully
//	processed. Nothing else happens: no offset moves, nothing is written.
//
//	Commit persists the highest acknowledged offset to the offsets file
//	and lets retention reclaim the sealed segments it covers. A restart
//	resumes at committed + 1, so whatever the owner must not lose — the
//	shard runtime's state snapshot — is made durable before Commit, never
//	after (state, then offsets).
//
// A Consumer is owned by one goroutine; concurrent consumers of the
// same broker each get their own Consumer (and usually their own
// group).
type Consumer struct {
	b     *Broker
	group string

	pos   uint64 // next offset to read
	acked uint64 // highest offset reported processed via Ack

	f         *os.File
	r         *bufio.Reader
	segBase   uint64 // base of the currently open segment
	nextInSeg uint64 // offset the next frame in the open reader holds
	err       error
}

// Consumer opens a reader for the named group, resuming at the group's
// committed offset (or the oldest retained record for a new group). The
// group is registered with the retention policy immediately, so its
// unread records cannot be deleted out from under it.
func (b *Broker) Consumer(group string) (*Consumer, error) {
	if group == "" {
		return nil, fmt.Errorf("broker: consumer group name is required")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	committed, ok := b.groups[group]
	if !ok || committed < b.firstOff-1 {
		committed = b.firstOff - 1
	}
	if committed > b.nextOff-1 {
		committed = b.nextOff - 1
	}
	b.groups[group] = committed
	b.lagGaugeLocked(group).Set(int64(b.nextOff - 1 - committed))
	return &Consumer{b: b, group: group, pos: committed + 1, acked: committed}, nil
}

// Next returns the next record, blocking at the log head until data
// arrives. It returns false when the intake has closed and every
// retained record was delivered, or on a read error (see Err).
func (c *Consumer) Next() (string, bool) {
	if c.err != nil {
		return "", false
	}
	b := c.b
	b.mu.Lock()
	for c.pos >= b.nextOff {
		if b.intakeClosed || b.closed {
			b.mu.Unlock()
			return "", false
		}
		b.cond.Wait()
	}
	seg := b.segmentFor(c.pos)
	first := b.firstOff
	b.mu.Unlock()
	if seg == nil {
		// Retention ran past this consumer's position — possible only if
		// another consumer committed offsets for the same group.
		c.fail(fmt.Errorf("broker: offset %d no longer retained (oldest is %d)", c.pos, first))
		return "", false
	}
	if err := b.cfg.Faults.Check(PointRead); err != nil {
		c.fail(err)
		return "", false
	}
	payload, err := c.readAt(seg)
	if err != nil {
		c.fail(fmt.Errorf("broker: reading offset %d: %w", c.pos, err))
		return "", false
	}
	c.pos++
	b.om.consumed.Inc()
	return string(payload), true
}

// WaitIdle blocks at the head of the log for at most d and reports whether
// the whole of d passed with nothing to read and the intake still open: the
// stream has gone quiet, rather than the consumer having caught up between
// two appends. It returns false as soon as Next would not block.
func (c *Consumer) WaitIdle(d time.Duration) bool {
	b := c.b
	deadline := time.Now().Add(d)
	// A sync.Cond has no timed wait: the timer wakes the waiters at the
	// deadline, and each rechecks its own condition.
	wake := time.AfterFunc(d, func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
	defer wake.Stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	for c.err == nil && c.pos >= b.nextOff && !b.intakeClosed && !b.closed {
		if !time.Now().Before(deadline) {
			return true
		}
		b.cond.Wait()
	}
	return false
}

// readAt returns the frame at c.pos from seg, maintaining a sequential
// buffered reader that survives segment rolls and mid-segment starts.
// The caller has verified (under the broker lock) that c.pos is fully
// written, so every frame read here is complete on disk.
func (c *Consumer) readAt(seg *segment) ([]byte, error) {
	if c.f == nil || c.segBase != seg.base {
		if c.f != nil {
			c.f.Close()
		}
		f, err := os.Open(seg.path)
		if err != nil {
			return nil, err
		}
		c.f = f
		c.r = bufio.NewReaderSize(f, 1<<16)
		c.segBase = seg.base
		c.nextInSeg = seg.base
	}
	for c.nextInSeg < c.pos {
		// Skip records already consumed in an earlier session (resuming
		// mid-segment after a restart).
		if _, err := framelog.Read(c.r, MaxRecordBytes); err != nil {
			return nil, err
		}
		c.nextInSeg++
	}
	payload, err := framelog.Read(c.r, MaxRecordBytes)
	if err != nil {
		return nil, err
	}
	c.nextInSeg++
	return payload, nil
}

// fail records a terminal consumer error.
func (c *Consumer) fail(err error) {
	if c.err == nil {
		c.err = err
		c.b.om.readErrors.Inc()
	}
}

// Err returns the error that ended consumption, if any (a false from
// Next with a nil Err is a clean end-of-stream).
func (c *Consumer) Err() error { return c.err }

// Position returns the offset of the next record Next will return.
func (c *Consumer) Position() uint64 { return c.pos }

// Ack records that every record through offset off is fully processed.
// It only raises the mark Commit persists.
func (c *Consumer) Ack(off uint64) {
	if off > c.acked {
		c.acked = off
	}
}

// Commit persists the highest acknowledged offset for the group, then
// lets retention reclaim fully-consumed sealed segments. A failed write
// leaves the committed offset where it was, so the next Commit retries.
func (c *Consumer) Commit() error {
	b := c.b
	b.mu.Lock()
	defer b.mu.Unlock()
	prev := b.groups[c.group]
	if c.acked <= prev {
		return nil
	}
	b.groups[c.group] = c.acked
	if err := b.saveOffsetsLocked(); err != nil {
		b.groups[c.group] = prev
		b.om.commitErrors.Inc()
		return err
	}
	b.retainLocked()
	b.updateGaugesLocked()
	return nil
}

// Close releases the consumer's file handle. The broker itself stays
// open.
func (c *Consumer) Close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
