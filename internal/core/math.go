package core

import "math"

// CeilDiv returns ceil(a/b) for positive b. It is exact for all int inputs
// with a >= 0 and panics-free for the negative-a case (rounds toward +inf).
func CeilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

// gcd returns the greatest common divisor of two positive ints.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lcm returns the least common multiple of two positive ints.
func lcm(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}

// cycleOffsetExact bounds the arrivals CycleOffset reduces by division: below
// 2^52 every float64 has an ulp of at most 1/2, so an integer multiple of the
// cycle length subtracts from it exactly.
const cycleOffsetExact = 1 << 52

// CycleOffset returns a's offset into a cycle of length slots, equal to
// math.Mod(a, float64(length)) bit for bit. For 0 <= a < 2^52 it subtracts
// q·length for the truncated quotient q and corrects by one length either
// way; every step is exact, and so is math.Mod, so the two agree. Other
// arguments (larger, negative, infinite or NaN) fall back to math.Mod.
func CycleOffset(a float64, length int) float64 {
	L := float64(length)
	if !(a >= 0 && a < cycleOffsetExact) || length <= 0 {
		return math.Mod(a, L)
	}
	r := a - float64(int64(a/L))*L
	if r < 0 {
		r += L
	} else if r >= L {
		r -= L
	}
	return r
}
