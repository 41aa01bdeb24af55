package sim

// The byte-wise FNV-1a digest step the trace digests used before Mix. No
// engine calls it: tests rebuild the old chain from recorded per-request
// outcomes with it, to show that digests committed under it still describe
// the same runs.

// FNV-1a 64-bit constants. FNVOffset starts a reference chain; it is the
// same value as DigestOffset.
const (
	FNVOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

// FNV64 folds the eight little-endian bytes of v into FNV-1a state h.
func FNV64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime
	}
	return h
}
