// Package netcast carries a broadcast program over real UDP sockets: the
// wireless "air" of the paper mapped onto the network stack. The server
// owns one UDP socket per broadcast channel and pushes one frame per slot
// to every subscribed tuner; tuners are single-channel receivers, exactly
// like the radio hardware the paper assumes — they subscribe to one
// channel socket at a time and retune by resubscribing elsewhere.
//
// The transport is deliberately datagram-based: broadcast pages are
// idempotent, self-contained and periodically retransmitted, so a lost
// frame costs one cycle of latency, never correctness — the same loss
// semantics as the air interface. Subscription uses two control datagrams
// ("SUB"/"UNS") on the same socket.
package netcast

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tcsa/internal/core"
)

// Wire format constants.
const (
	frameMagic uint16 = 0x7C5A // "tcsa"
	// frameVersion 2 adds a 16-bit payload checksum in the bytes version 1
	// reserved; parseFrame still accepts checksum-less version-1 frames
	// from older senders.
	frameVersion   byte = 2
	frameVersionV1 byte = 1
	// FrameSize is the fixed encoded size of a Frame in bytes.
	FrameSize = 16
)

// Field offsets of the encoded frame. appendFrame and parseFrame index
// through these so the layout is written down exactly once.
const (
	frameMagicOff   = 0  // magic(2)
	frameVersionOff = 2  // version(1)
	frameFlagsOff   = 3  // flags(1)
	frameChannelOff = 4  // channel(2)
	frameSumOff     = 6  // checksum(2)
	frameSlotOff    = 8  // slot(4)
	framePageOff    = 12 // page(4)
)

// Fault injection flips exactly one payload byte after the checksum is
// computed. The probe sits inside the page field — payload, not framing —
// so a corrupted frame still looks like traffic from this protocol: a
// version-2 receiver rejects it by checksum, while a checksum-less
// version-1 receiver decodes a wrong page (the corruption version 2 was
// introduced to catch).
const (
	corruptFlipOffset = framePageOff + 1
	corruptFlipMask   = 0xA5
)

// ErrBadFrame reports an undecodable datagram.
var ErrBadFrame = errors.New("netcast: bad frame")

// MaxChannels is the most channels a frame's 16-bit channel field can
// name: channels 0 through MaxChannels-1.
const MaxChannels = 1 << 16

// ErrTooManyChannels reports a program with more than MaxChannels
// channels, whose higher channels would air under a wrapped number.
var ErrTooManyChannels = errors.New("netcast: more channels than a frame can name")

// Frame is one slot's transmission on one channel.
//
// Encoding (big endian): magic(2) version(1) flags(1) channel(2)
// checksum(2) slot(4) page(4). Page -1 (empty slot) is carried as the
// two's-complement pattern. The checksum is frameSum over the other 14
// bytes; version-1 frames carried zeros there and are accepted unchecked.
type Frame struct {
	Channel int
	Slot    uint32
	Page    core.PageID
}

// frameSum is a 16-bit FNV-1a fold over the frame bytes outside the
// checksum field: cheap enough for a per-slot hot path, strong enough
// that a corrupted payload byte is caught (a single flipped bit always
// changes the fold).
func frameSum(b []byte) uint16 {
	h := uint32(fnvOffset)
	for i, c := range b {
		if i == frameSumOff || i == frameSumOff+1 {
			continue // the checksum's own slot
		}
		h = (h ^ uint32(c)) * fnvPrime
	}
	return sumOf(h)
}

// FNV-1a's 32-bit offset basis and prime.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// sumOf folds a 32-bit FNV state to the 16-bit frame checksum.
func sumOf(h uint32) uint16 { return uint16(h>>16) ^ uint16(h) }

// appendFrame encodes f onto buf.
func appendFrame(buf []byte, f Frame) []byte {
	var b [FrameSize]byte
	binary.BigEndian.PutUint16(b[frameMagicOff:], frameMagic)
	b[frameVersionOff] = frameVersion
	b[frameFlagsOff] = 0
	binary.BigEndian.PutUint16(b[frameChannelOff:], uint16(f.Channel))
	binary.BigEndian.PutUint32(b[frameSlotOff:], f.Slot)
	binary.BigEndian.PutUint32(b[framePageOff:], uint32(f.Page))
	binary.BigEndian.PutUint16(b[frameSumOff:], frameSum(b[:]))
	return append(buf, b[:]...)
}

// parseFrame decodes one datagram.
func parseFrame(b []byte) (Frame, error) {
	if len(b) != FrameSize {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(b))
	}
	if binary.BigEndian.Uint16(b[frameMagicOff:]) != frameMagic {
		return Frame{}, fmt.Errorf("%w: bad magic %#x", ErrBadFrame, b[frameMagicOff:frameMagicOff+2])
	}
	switch b[frameVersionOff] {
	case frameVersion:
		if got, want := binary.BigEndian.Uint16(b[frameSumOff:]), frameSum(b); got != want {
			return Frame{}, fmt.Errorf("%w: checksum %#04x, computed %#04x", ErrBadFrame, got, want)
		}
	case frameVersionV1:
		// Pre-checksum wire format: nothing further to verify.
	default:
		return Frame{}, fmt.Errorf("%w: version %d", ErrBadFrame, b[frameVersionOff])
	}
	return Frame{
		Channel: int(binary.BigEndian.Uint16(b[frameChannelOff:])),
		Slot:    binary.BigEndian.Uint32(b[frameSlotOff:]),
		Page:    core.PageID(int32(binary.BigEndian.Uint32(b[framePageOff:]))),
	}, nil
}

// packFrameWords splits an encoded frame into the two big-endian machine
// words the broadcast ring stores atomically (FrameSize is exactly 16).
func packFrameWords(b []byte) (w0, w1 uint64) {
	return binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16])
}

// framePrefix is what every intact version-2 frame on one channel shares:
// bytes 0-5 (magic, version, flags, channel), which are the top 48 bits of
// the first packed word and, being ahead of the checksum field, the first
// six bytes frameSum folds.
type framePrefix struct {
	top uint64 // w0>>16 of the channel's frames
	h   uint32 // frameSum's FNV state after folding bytes 0-5
}

// newFramePrefix precomputes channel ch's frame prefix.
func newFramePrefix(ch int) framePrefix {
	var b [FrameSize]byte
	w0, _ := packFrameWords(appendFrame(b[:0], Frame{Channel: ch}))
	return framePrefix{top: w0 >> 16, h: foldWord(fnvOffset, w0, frameSumOff)}
}

// frameFromWords is parseFrame over the ring's packed representation: the
// same validation rules, no byte slice, no allocation on any path (the
// ring's subscriber hot loop calls this once per poll). p is the polled
// channel's prefix: a frame that starts with it resumes the checksum fold
// from p.h and folds only its slot and page bytes; any other frame takes
// the full fold.
func frameFromWords(w0, w1 uint64, p framePrefix) (Frame, bool) {
	switch {
	case w0>>16 == p.top:
		if uint16(w0) != sumOf(foldWord(p.h, w1, 8)) {
			return Frame{}, false
		}
	case uint16(w0>>48) != frameMagic:
		return Frame{}, false
	case byte(w0>>40) == frameVersion:
		if uint16(w0) != frameSumWords(w0, w1) {
			return Frame{}, false
		}
	case byte(w0>>40) == frameVersionV1:
		// Pre-checksum wire format: nothing further to verify.
	default:
		return Frame{}, false
	}
	return Frame{
		Channel: int(uint16(w0 >> 16)),
		Slot:    uint32(w1 >> 32),
		Page:    core.PageID(int32(uint32(w1))),
	}, true
}

// frameSumWords is frameSum over the packed words: the checksum's own
// bytes are the last two of w0, so the fold takes w0's first six bytes,
// then all of w1.
func frameSumWords(w0, w1 uint64) uint16 {
	return sumOf(foldWord(foldWord(fnvOffset, w0, frameSumOff), w1, 8))
}

// foldWord folds the n most significant bytes of w, high byte first, into
// the FNV-1a state h.
func foldWord(h uint32, w uint64, n int) uint32 {
	for i := 0; i < n; i++ {
		h = (h ^ uint32(byte(w>>(56-8*uint(i))))) * fnvPrime
	}
	return h
}

// Control datagrams.
var (
	subscribeMsg   = []byte("SUB")
	unsubscribeMsg = []byte("UNS")
)
