package netcast

import (
	"testing"

	"tcsa/internal/core"
)

// FuzzParseFrame: arbitrary datagrams never panic; accepted frames
// round-trip exactly.
func FuzzParseFrame(f *testing.F) {
	f.Add(appendFrame(nil, Frame{Channel: 1, Slot: 42, Page: 7}))
	f.Add(appendFrame(nil, Frame{Channel: 0, Slot: 0, Page: core.None}))
	f.Add([]byte{})
	f.Add([]byte{0x7C, 0x5A, 1, 0})
	f.Add(make([]byte, FrameSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := parseFrame(data)
		if err != nil {
			return
		}
		back := appendFrame(nil, frame)
		if len(back) != FrameSize {
			t.Fatalf("re-encoded %d bytes", len(back))
		}
		again, err := parseFrame(back)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again != frame {
			t.Fatalf("round trip changed frame: %+v -> %+v", frame, again)
		}
	})
}

// FuzzFrameWords: the ring's word path (frameFromWords with a channel's
// precomputed prefix) accepts exactly the frames parseFrame accepts and
// decodes them identically, whichever channel's prefix it is handed —
// the prefix only changes where the checksum fold starts. flip applies
// the caster's corruption to the encoded frame first.
func FuzzFrameWords(f *testing.F) {
	for _, fr := range []Frame{{Channel: 1, Slot: 42, Page: 7}, {Channel: 0, Slot: 0, Page: core.None}, {Channel: 65535, Slot: 1 << 31, Page: 1 << 30}} {
		b := appendFrame(nil, fr)
		f.Add(b, uint16(fr.Channel), false)
		f.Add(b, uint16(fr.Channel), true)
		f.Add(b, uint16(fr.Channel+1), false)
		v1 := append([]byte(nil), b...)
		v1[frameVersionOff], v1[frameSumOff], v1[frameSumOff+1] = frameVersionV1, 0, 0
		f.Add(v1, uint16(fr.Channel), false)
		f.Add(v1, uint16(fr.Channel), true)
	}
	f.Add(make([]byte, FrameSize), uint16(0), false)
	f.Fuzz(func(t *testing.T, data []byte, ch uint16, flip bool) {
		if len(data) != FrameSize {
			return
		}
		b := append([]byte(nil), data...)
		if flip {
			b[corruptFlipOffset] ^= corruptFlipMask
		}
		want, err := parseFrame(b)
		w0, w1 := packFrameWords(b)
		got, ok := frameFromWords(w0, w1, newFramePrefix(int(ch)))
		if ok != (err == nil) {
			t.Fatalf("% x on channel %d: word path ok=%v, parseFrame err=%v", b, ch, ok, err)
		}
		if ok && got != want {
			t.Fatalf("% x on channel %d: word path %+v, parseFrame %+v", b, ch, got, want)
		}
		if frameSum(b) != frameSumWords(w0, w1) {
			t.Fatalf("% x: frameSum %#04x, frameSumWords %#04x", b, frameSum(b), frameSumWords(w0, w1))
		}
	})
}
