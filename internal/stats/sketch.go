package stats

import (
	"fmt"
	"math"
)

// Sketch is a mergeable, bounded-memory quantile summary of a sample
// stream: a log-bucketed histogram plus the exact count and extremes, which
// is all Quantile reads. It answers Summarize's tail questions without
// retaining the samples, so a million-request measurement costs the same
// memory as a thousand-request one. It keeps no moments: the measurement
// engines fold those into an Online per shard, in shard order (SummaryOf),
// and a mean here would cost every Add a division nobody reads.
//
// Bucket layout: observations at or below Lo land in a dedicated zero
// bucket (quantiles report them as 0 — delay streams are mostly exact
// zeros); observations above Lo land in geometric buckets
// (Lo*γ^i, Lo*γ^(i+1)], γ = (1+α)/(1-α), so a quantile estimate is within
// one bucket — a factor of γ — of the exact order statistic. Observations
// above Hi, +Inf included, clamp into the last bucket; so does NaN.
//
// The bucket of x is defined by the formula int((ln x - ln Lo) / ln γ),
// but Add never evaluates a logarithm: NewSketch tabulates the exact
// float64 at which that formula first reaches each bucket, and Add finds
// x's bucket from its exponent and leading mantissa bits plus a boundary
// comparison or two.
//
// Merging is exact (integer adds, minima and maxima), so any merge order
// and grouping yields identical quantiles.
type Sketch struct {
	n        int64 // observations
	min, max float64
	zero     int64   // observations <= lo
	bins     []int64 // bins[i] counts observations in (lo*gamma^i, lo*gamma^(i+1)]
	// bounds[i] is the bit pattern of the smallest float64 in bucket i+1.
	// Positive floats order like their bit patterns, so bucket search is
	// integer comparison.
	bounds []int64
	// cells[k] is the bucket of the smallest float64 whose bit pattern
	// shifted right by shift equals base+k. A cell is at most one bucket
	// wide, so Add walks at most a boundary or two past its start.
	cells []int64
	shift uint
	base  uint64
	lo    float64
	gamma float64
}

// NewSketch allocates a sketch covering (lo, hi] with relative accuracy
// alpha in (0, 1): the bucket count is ceil(log_γ(hi/lo))+1, fixed at
// construction, and hi/lo must be finite. For slot waits, lo is the
// resolution below which values collapse to zero and hi is the cycle
// length.
func NewSketch(lo, hi, alpha float64) (*Sketch, error) {
	if !(lo > 0) || !(hi > lo) || math.IsInf(hi/lo, 1) {
		return nil, fmt.Errorf("stats: sketch range (%g, %g]", lo, hi)
	}
	if !(alpha > 0) || !(alpha < 1) {
		return nil, fmt.Errorf("stats: sketch accuracy %g outside (0, 1)", alpha)
	}
	gamma := (1 + alpha) / (1 - alpha)
	logG := math.Log(gamma)
	nbins := int(math.Ceil(math.Log(hi/lo)/logG)) + 1
	s := &Sketch{lo: lo, gamma: gamma}
	f := bucketFormula{
		loBits:  math.Float64bits(lo),
		logLo:   math.Log(lo),
		logG:    logG,
		invLogG: 1 / logG,
	}
	// A cell spans 2^-m of an octave, at most gamma-1 relative width.
	m := 0
	for m < 52 && math.Ldexp(1, -m) > gamma-1 {
		m++
	}
	s.shift = uint(52 - m)
	s.base = f.loBits >> s.shift
	// The top boundary fixes the cell count; the bins, the boundaries and
	// the cells then share one allocation.
	top := f.boundary(nbins-1, f.expGuess(f.target(nbins-1)))
	ncells := int(min(top, maxFiniteBits)>>s.shift-s.base) + 1
	buf := make([]int64, 2*nbins-1+ncells)
	s.bins = buf[:nbins:nbins]
	s.bounds = buf[nbins : 2*nbins-1 : 2*nbins-1]
	s.cells = buf[2*nbins-1:]
	// Each boundary after the first is predicted from its predecessor,
	// which saves an exponential per bucket.
	stepG := math.Exp(logG)
	var prevB uint64
	var prevE, prevH float64
	for i := 1; i < nbins-1; i++ {
		e := f.target(i)
		h := halfGapBelow(e)
		var g float64
		if i > 1 && prevB < infBits {
			y := math.Float64frombits(prevB) * stepG
			g = y + y*((e-prevE-logG)+(h-prevH))
		} else {
			g = f.expGuess(e)
		}
		prevB, prevE, prevH = f.boundary(i, g), e, h
		s.bounds[i-1] = int64(prevB)
	}
	s.bounds[nbins-2] = int64(top)
	i := 0
	for k := range s.cells {
		low := (s.base + uint64(k)) << s.shift
		for i < len(s.bounds) && uint64(s.bounds[i]) <= low {
			i++
		}
		s.cells[k] = int64(i)
	}
	return s, nil
}

const (
	maxFiniteBits = 0x7fefffffffffffff // math.MaxFloat64
	infBits       = 0x7ff0000000000000 // +Inf
)

// bucketFormula is the logarithmic bucket index a sketch tabulates:
// int((ln x - ln lo) / ln gamma), clamped into the bucket range.
type bucketFormula struct {
	loBits  uint64
	logLo   float64
	logG    float64
	invLogG float64
}

// reaches reports whether the float64 with bit pattern b > loBits falls in
// bucket i or above, for i from 1 to the last bucket. Neither truncation
// nor the clamp can move a value across i, so it compares before both.
func (f bucketFormula) reaches(b uint64, i int) bool {
	return (math.Log(math.Float64frombits(b))-f.logLo)*f.invLogG >= float64(i)
}

// target inverts the formula's last two roundings for bucket i: the
// smallest product operand d that rounds to at least i, then the smallest
// logarithm e whose difference with ln lo rounds to at least d. The
// boundary of bucket i is the smallest x > lo with math.Log(x) >= e. The
// walk in e is capped because e only sharpens a guess: where e nearly
// cancels ln lo, its ulps are far finer than the difference's.
func (f bucketFormula) target(i int) float64 {
	want := float64(i)
	d := want * f.logG
	for d*f.invLogG >= want {
		d = nextDown(d)
	}
	for d*f.invLogG < want {
		d = nextUp(d)
	}
	e := d + f.logLo
	for n := 0; n < 4 && e-f.logLo >= d; n++ {
		e = nextDown(e)
	}
	for n := 0; n < 4 && e-f.logLo < d; n++ {
		e = nextUp(e)
	}
	return e
}

// halfGapBelow is half the (negative) step from e to the next float64
// below it: a correctly rounded logarithm first returns e at
// exp(e + halfGapBelow(e)).
func halfGapBelow(e float64) float64 { return (nextDown(e) - e) / 2 }

// expGuess predicts the boundary for target e, within an ulp or two.
func (f bucketFormula) expGuess(e float64) float64 {
	return math.Exp(e) * (1 + halfGapBelow(e))
}

// nextUp and nextDown step a finite float64 by one ulp.
func nextUp(x float64) float64 {
	switch {
	case x > 0:
		return math.Float64frombits(math.Float64bits(x) + 1)
	case x < 0:
		return math.Float64frombits(math.Float64bits(x) - 1)
	}
	return math.SmallestNonzeroFloat64
}

func nextDown(x float64) float64 { return -nextUp(-x) }

// boundary returns the bit pattern of the smallest float64 above lo whose
// bucket is at least i (i >= 1), or +Inf's when no finite value reaches
// it. Doubling steps from the guess x bracket it and bisection pins it,
// so a guess an ulp or two off costs two or three logarithms.
func (f bucketFormula) boundary(i int, x float64) uint64 {
	g := min(max(math.Float64bits(x), f.loBits+1), maxFiniteBits)
	below, above := f.loBits, uint64(infBits) // below is lo or short of i; above reaches i or is +Inf
	if f.reaches(g, i) {
		above = g
		for step := uint64(1); above-below > step; step *= 2 {
			if !f.reaches(above-step, i) {
				below = above - step
				break
			}
			above -= step
		}
	} else {
		below = g
		for step := uint64(1); above-below > step; step *= 2 {
			if f.reaches(below+step, i) {
				above = below + step
				break
			}
			below += step
		}
	}
	for above-below > 1 {
		mid := below + (above-below)/2
		if f.reaches(mid, i) {
			above = mid
		} else {
			below = mid
		}
	}
	return above
}

// Add folds one observation into the sketch.
func (s *Sketch) Add(x float64) {
	// Online.Add's extremes rule, so Quantile clamps as it always has.
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	if x <= s.lo {
		s.zero++
		return
	}
	s.bins[s.index(x)]++
}

// index is the bucket of x > lo.
func (s *Sketch) index(x float64) int {
	b := math.Float64bits(x)
	k := b>>s.shift - s.base
	if k >= uint64(len(s.cells)) {
		return len(s.bins) - 1 // +Inf, NaN and values far past hi
	}
	i := int(s.cells[k])
	for i < len(s.bounds) && int64(b) >= s.bounds[i] {
		i++
	}
	return i
}

// N returns the observation count.
func (s *Sketch) N() int64 { return s.n }

// Bins returns the bucket count (the sketch's fixed memory footprint).
func (s *Sketch) Bins() int { return len(s.bins) }

// Merge folds other into s. Both sketches must share a bucket layout
// (same lo, gamma and bucket count). Everything merges exactly.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return nil
	}
	// Bit equality, not tolerance: layouts either came from the same
	// NewSketch parameters or they index different buckets.
	if len(s.bins) != len(other.bins) ||
		math.Float64bits(s.lo) != math.Float64bits(other.lo) ||
		math.Float64bits(s.gamma) != math.Float64bits(other.gamma) {
		return fmt.Errorf("stats: merging incompatible sketches (%d/%g/%g vs %d/%g/%g)",
			len(s.bins), s.lo, s.gamma, len(other.bins), other.lo, other.gamma)
	}
	if other.n == 0 {
		return nil
	}
	// Online.Merge's extremes rule; the builtin min and max would differ
	// on NaN and signed zeros.
	if s.n == 0 {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
	s.n += other.n
	s.zero += other.zero
	for i, c := range other.bins {
		s.bins[i] += c
	}
	return nil
}

// Quantile estimates the p-quantile (p in [0, 1]) under the closest-rank
// convention of Percentile: it locates the order statistic nearest rank
// p*(n-1) and reports its bucket's geometric midpoint, clamped into the
// observed [Min, Max]. The estimate is within a factor of gamma of the
// exact order statistic; observations at or below lo report as 0.
func (s *Sketch) Quantile(p float64) float64 {
	n := s.n
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := int64(math.Round(p * float64(n-1)))
	cum := s.zero
	if rank < cum {
		return 0
	}
	for i, c := range s.bins {
		cum += c
		if rank < cum {
			v := s.lo * math.Pow(s.gamma, float64(i)+0.5)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

// SummaryOf emits the profile of a stream whose moments were folded into o
// and whose quantiles into sk. The measurement engines keep the two apart:
// their moments fold per shard in shard order, so they do not depend on
// the worker count, while bucket counts merge exactly in any order.
func SummaryOf(o Online, sk *Sketch) Summary {
	return Summary{
		N:      int(o.N()),
		Mean:   o.Mean(),
		StdDev: o.StdDev(),
		Min:    o.Min(),
		Max:    o.Max(),
		P50:    sk.Quantile(0.50),
		P95:    sk.Quantile(0.95),
		P99:    sk.Quantile(0.99),
	}
}
