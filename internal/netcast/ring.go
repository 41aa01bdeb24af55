package netcast

import (
	"errors"
	"sync/atomic"
)

// PollStatus classifies the outcome of reading one slot from a
// BroadcastRing.
type PollStatus int

const (
	// RingOK: the slot's frame was read intact.
	RingOK PollStatus = iota
	// RingPending: the server has not aired the slot yet.
	RingPending
	// RingSkipped: the slot aired but this channel transmitted nothing —
	// a stall, an injected drop, or a channel the engine silenced.
	RingSkipped
	// RingCorrupt: a frame was transmitted but fails frame validation
	// (bad checksum): the wire-level corruption the chaos plan injects.
	RingCorrupt
	// RingLost: the slot has already been overwritten — the reader fell
	// more than one ring length behind the writer.
	RingLost
)

// ringCell is one slot's storage. The frame travels as two packed
// big-endian words so readers can snapshot it with plain atomic loads —
// no lock, no copy_out of a byte slice, and no race-detector report,
// because every access is an atomic operation. seq carries the seqlock
// protocol stamped with the absolute slot number:
//
//	2*abs+1  write in progress for slot abs
//	2*abs+2  slot abs stable (readable)
//
// Folding abs into the sequence makes wrap-around detection free: a
// reader asking for slot abs that observes any other stamp knows the
// cell was lapped, with no separate generation counter to maintain.
type ringCell struct {
	seq atomic.Uint64
	w0  atomic.Uint64
	w1  atomic.Uint64
}

// ringChannel is one channel's ring: a single-writer circular buffer of
// cells plus the published watermark. head is the count of slots aired
// (head-1 is the newest readable absolute slot); it is stored after the
// cell so a reader that sees head > abs is guaranteed to find cell abs
// either stable or already lapped — never mid-write by the same slot.
type ringChannel struct {
	head   atomic.Int64
	cells  []ringCell
	prefix framePrefix // the channel's fixed frame bytes, for Poll's checksum
}

// BroadcastRing is the in-process Transport: a per-channel single-writer
// ring of encoded frames. The writer does O(1) work per (channel, slot)
// no matter how many subscribers exist — subscribers pull, lock-free,
// with zero allocations per poll — so one server saturates millions of
// in-process clients.
//
// The seqlock protocol (odd stamp while writing, even stamp when stable,
// verified again after the payload words are loaded) means a reader
// either gets the exact frame for the slot it asked for, or a definite
// RingLost — torn reads are impossible because the two payload words are
// only trusted when the same even stamp brackets both loads.
type BroadcastRing struct {
	chans []ringChannel
	mask  int64
}

// DefaultRingSlots is the per-channel ring length used when a caller
// passes slots <= 0: enough slack for a reader to fall a full kilocycle
// of slots behind before losing data.
const DefaultRingSlots = 1024

// NewBroadcastRing builds a ring transport with the given channel count.
// slots (rounded up to a power of two; DefaultRingSlots if <= 0) is how
// many consecutive slots stay readable per channel.
func NewBroadcastRing(channels, slots int) (*BroadcastRing, error) {
	if channels <= 0 {
		return nil, errors.New("netcast: ring needs at least one channel")
	}
	if slots <= 0 {
		slots = DefaultRingSlots
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	r := &BroadcastRing{
		chans: make([]ringChannel, channels),
		mask:  int64(n) - 1,
	}
	for ch := range r.chans {
		r.chans[ch].cells = make([]ringCell, n)
		r.chans[ch].prefix = newFramePrefix(ch)
	}
	return r, nil
}

// Channels implements Transport.
func (r *BroadcastRing) Channels() int { return len(r.chans) }

// NeedsFrame implements Transport. The ring always wants the frame:
// publishing costs O(1) regardless of subscribers, and a slot written
// now is readable by a subscriber that arrives later.
func (r *BroadcastRing) NeedsFrame(ch int) bool { return true }

// Slots reports the per-channel ring capacity.
func (r *BroadcastRing) Slots() int { return int(r.mask) + 1 }

// Publish implements Transport: single writer per channel.
func (r *BroadcastRing) Publish(ch, abs int, frame []byte) {
	rc := &r.chans[ch]
	cell := &rc.cells[int64(abs)&r.mask]
	w0, w1 := packFrameWords(frame)
	cell.seq.Store(2*uint64(abs) + 1)
	cell.w0.Store(w0)
	cell.w1.Store(w1)
	cell.seq.Store(2*uint64(abs) + 2)
	rc.head.Store(int64(abs) + 1)
}

// Skip implements Transport: the slot aired with nothing on this channel.
// The cell keeps whatever older slot it held (its stamp exposes the lap),
// and only the watermark moves — readers polling this slot see the head
// pass them while the cell still carries a different slot's stamp, which
// Poll reports as RingSkipped rather than RingLost.
func (r *BroadcastRing) Skip(ch, abs int) {
	r.chans[ch].head.Store(int64(abs) + 1)
}

// Close implements Transport. The ring holds no OS resources and spawns
// no goroutines; readers may keep polling historical slots after Close.
func (r *BroadcastRing) Close() error { return nil }

// Head reports how many slots channel ch has aired (the next absolute
// slot to be published).
func (r *BroadcastRing) Head(ch int) int64 { return r.chans[ch].head.Load() }

// Poll reads absolute slot abs from channel ch. It never blocks and
// never allocates. RingOK returns the decoded frame; every other status
// returns a zero Frame.
func (r *BroadcastRing) Poll(ch int, abs int64) (Frame, PollStatus) {
	rc := &r.chans[ch]
	if rc.head.Load() <= abs {
		return Frame{}, RingPending
	}
	cell := &rc.cells[abs&r.mask]
	want := 2*uint64(abs) + 2
	seq := cell.seq.Load()
	if seq != want {
		if seq > want {
			// The cell already carries a newer slot: lapped.
			return Frame{}, RingLost
		}
		// The slot aired (head moved past it) but nothing was written
		// here for it: the engine skipped this channel at this slot.
		return Frame{}, RingSkipped
	}
	w0 := cell.w0.Load()
	w1 := cell.w1.Load()
	if cell.seq.Load() != want {
		// A writer lapped us between the stamp check and the word loads:
		// the words may be torn, discard them.
		return Frame{}, RingLost
	}
	f, ok := frameFromWords(w0, w1, rc.prefix)
	if !ok {
		return Frame{}, RingCorrupt
	}
	return f, RingOK
}
