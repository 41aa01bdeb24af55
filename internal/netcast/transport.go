package netcast

import (
	"errors"
	"fmt"
	"sync/atomic"

	"tcsa/internal/core"
)

// Transport is the fan-out substrate a broadcast slot engine publishes
// through. The engine (Caster) does the per-(channel, slot) work that is
// independent of the subscriber count — claiming the column, injecting
// faults, encoding the frame once — and the transport does the delivery:
// over UDP sockets to every subscriber, or into the in-process broadcast
// ring subscribers read lock-free.
type Transport interface {
	// Channels reports the channel count the transport was built for.
	Channels() int
	// NeedsFrame reports whether channel ch wants a frame published even
	// though the engine might know of nothing listening. Transports whose
	// per-slot delivery cost scales with the subscriber count (UDP)
	// return false for silent channels so the engine can skip the encode
	// and fault work; transports with O(1) delivery cost (the ring)
	// always return true — late subscribers can still read the slot.
	NeedsFrame(ch int) bool
	// Publish delivers the encoded frame (FrameSize bytes) for channel ch
	// at absolute slot abs. The buffer is reused by the caller:
	// implementations must copy what they need before returning.
	Publish(ch, abs int, frame []byte)
	// Skip records that channel ch transmits nothing at slot abs — a
	// stall, an injected drop, or a silent channel. The ring advances its
	// slot watermark so subscribers can tell "lost" from "not yet aired";
	// UDP has nothing to do (a missing datagram is the loss).
	Skip(ch, abs int)
	// Close releases the transport's resources and stops its workers.
	// Safe to call more than once.
	Close() error
}

// FaultStats counts the faults a slot engine has injected so far.
type FaultStats struct {
	StalledSlots  int64 // whole slots silenced across all channels
	DroppedFrames int64 // per-channel frames suppressed
	CorruptFrames int64 // per-channel frames sent with a flipped byte
}

// EpochInfo describes a program epoch the caster airs: the program, the
// absolute slot where its phase 0 started, and how many flips preceded it.
type EpochInfo struct {
	// Seq counts completed epoch flips; 0 is the bootstrap epoch.
	Seq int
	// Base is the absolute slot at which this epoch's column 0 aired (or
	// will air: the bootstrap epoch has Base 0 even before the first cast).
	Base int
	// Program is this epoch's broadcast program. Epochs are copy-on-write:
	// the program behind an EpochInfo is never mutated, a replan stages a
	// fresh snapshot instead.
	Program *core.Program
}

// Caster is the transport-independent slot engine: one call per absolute
// slot encodes each channel's frame exactly once and publishes it through
// the Transport, with fault injection applied in the same priority order
// as the chaos measurement engine (stall, then drop, then corruption).
//
// The caster owns the live-transition protocol. A replan stages its new
// program with StageProgram; the cast loop keeps airing the old epoch and
// flips exactly at the next slot that starts an old-program cycle — the
// boundary the adaptive transition model assumes: the old epoch runs to
// the end of its cycle, the new one starts at phase zero. The flip is a
// pointer swap between two immutable snapshots, so no slot is ever paused
// and no frame mixes epochs; clients' extra wait across the boundary is
// bounded by adaptive.SpliceBounds and checked by the
// conformance.TransitionBound oracle in the package tests.
//
// CastSlot and AccountSlots are not safe for concurrent use — one
// goroutine (the server's tick loop, or a load generator's virtual-time
// broadcaster) owns the cast sequence. StageProgram, Epoch and Faults may
// be called concurrently with it.
type Caster struct {
	epoch     *EpochInfo                // owned by the cast goroutine
	published atomic.Pointer[EpochInfo] // last flipped epoch, for observers
	staged    atomic.Pointer[core.Program]
	tr        Transport
	fault     FaultInjector
	frame     []byte

	stalledSlots  atomic.Int64
	droppedFrames atomic.Int64
	corruptFrames atomic.Int64
}

// NewCaster builds a slot engine for prog over tr. fault may be nil
// (fault-free air).
func NewCaster(prog *core.Program, tr Transport, fault FaultInjector) (*Caster, error) {
	if prog == nil {
		return nil, errors.New("netcast: nil program")
	}
	if tr == nil {
		return nil, errors.New("netcast: nil transport")
	}
	if prog.Channels() > MaxChannels {
		return nil, fmt.Errorf("%w: %d channels, at most %d", ErrTooManyChannels, prog.Channels(), MaxChannels)
	}
	if tr.Channels() != prog.Channels() {
		return nil, errors.New("netcast: transport/program channel count mismatch")
	}
	c := &Caster{
		epoch: &EpochInfo{Seq: 0, Base: 0, Program: prog},
		tr:    tr,
		fault: fault,
		frame: make([]byte, 0, FrameSize),
	}
	c.published.Store(c.epoch)
	return c, nil
}

// StageProgram hands the caster the next epoch's program. The cast loop
// flips to it at the next slot that starts a cycle of the airing epoch;
// until then the old program keeps airing without a pause. The program
// must not be mutated after staging (pass a snapshot — replan.Engine's
// Snapshot is the production source). Staging again before the flip
// replaces the pending program: the last staged snapshot wins. The
// channel count must match the transport: the broadcast spectrum is
// fixed hardware here, only the schedule is elastic.
func (c *Caster) StageProgram(next *core.Program) error {
	if next == nil {
		return errors.New("netcast: nil program")
	}
	if next.Channels() != c.tr.Channels() {
		return errors.New("netcast: staged program channel count mismatch")
	}
	c.staged.Store(next)
	return nil
}

// Epoch reports the epoch currently on air. Safe to call concurrently
// with CastSlot; during a flip it returns either the old or the new epoch,
// never a torn mix.
func (c *Caster) Epoch() EpochInfo { return *c.published.Load() }

// CastSlot encodes and publishes absolute slot abs on every channel.
func (c *Caster) CastSlot(abs int) {
	if st := c.staged.Load(); st != nil && c.epoch.Program.Column(abs-c.epoch.Base) == 0 {
		// Start of an old-epoch cycle: flip. The CAS tolerates a racing
		// StageProgram — a snapshot staged after the Load simply waits for
		// the next boundary.
		if c.staged.CompareAndSwap(st, nil) {
			c.epoch = &EpochInfo{Seq: c.epoch.Seq + 1, Base: abs, Program: st}
			c.published.Store(c.epoch)
		}
	}
	prog := c.epoch.Program
	if c.fault != nil && c.fault.Stalled(abs) {
		// The slot counter still advances during a stall: broadcast time
		// is locked to the clock, a stalled server simply wastes the slot.
		c.stalledSlots.Add(1)
		for ch := 0; ch < prog.Channels(); ch++ {
			c.tr.Skip(ch, abs)
		}
		return
	}
	col := prog.Column(abs - c.epoch.Base)
	for ch := 0; ch < prog.Channels(); ch++ {
		if !c.tr.NeedsFrame(ch) {
			// Nobody is listening and the transport pays per subscriber:
			// skip the fault predicates and the encode outright. A frame
			// that was never sent cannot be dropped or corrupted, so the
			// fault counters only ever account for channels with
			// listeners on this path.
			c.tr.Skip(ch, abs)
			continue
		}
		if c.fault != nil && c.fault.Drop(ch, abs) {
			c.droppedFrames.Add(1)
			c.tr.Skip(ch, abs)
			continue
		}
		f := Frame{Channel: ch, Slot: uint32(abs), Page: prog.At(ch, col)}
		c.frame = appendFrame(c.frame[:0], f)
		if c.fault != nil && c.fault.Corrupt(ch, abs) {
			// Flip a page byte after the checksum was computed: the frame
			// goes out damaged and every receiver's checksum rejects it.
			c.frame[corruptFlipOffset] ^= corruptFlipMask
			c.corruptFrames.Add(1)
		}
		c.tr.Publish(ch, abs, c.frame)
	}
}

// AccountSlots counts the faults of absolute slots [from, to) exactly as
// CastSlot would — each slot's stall, drop and corrupt faults, in the
// same priority order — but encodes and transmits nothing: the transport
// sees no Publish or Skip, and a staged program does not flip, since none
// of its frames is sent. A caller whose receivers have all stopped
// listening finishes a fixed broadcast length with it, so Faults stays a
// function of the fault schedule alone. With a nil FaultInjector it costs
// O(1).
func (c *Caster) AccountSlots(from, to int) {
	if c.fault == nil {
		return
	}
	var stalled, dropped, corrupt int64
	channels := c.tr.Channels()
	for abs := from; abs < to; abs++ {
		if c.fault.Stalled(abs) {
			stalled++
			continue
		}
		for ch := 0; ch < channels; ch++ {
			switch {
			case !c.tr.NeedsFrame(ch):
			case c.fault.Drop(ch, abs):
				dropped++
			case c.fault.Corrupt(ch, abs):
				corrupt++
			}
		}
	}
	c.stalledSlots.Add(stalled)
	c.droppedFrames.Add(dropped)
	c.corruptFrames.Add(corrupt)
}

// Faults reports the faults injected so far. Safe to call concurrently
// with CastSlot.
func (c *Caster) Faults() FaultStats {
	return FaultStats{
		StalledSlots:  c.stalledSlots.Load(),
		DroppedFrames: c.droppedFrames.Load(),
		CorruptFrames: c.corruptFrames.Load(),
	}
}
