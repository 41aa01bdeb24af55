package stats

import (
	"math"
	"math/rand"
	"testing"
)

// testSketch returns a sketch shaped like the measurement engine's: slot
// waits in (lo, hi] at 1% relative accuracy.
func testSketch(t testing.TB) *Sketch {
	t.Helper()
	s, err := NewSketch(1e-3, 4096, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSketchValidation(t *testing.T) {
	bad := []struct{ lo, hi, alpha float64 }{
		{0, 1, 0.01},
		{-1, 1, 0.01},
		{1, 1, 0.01},
		{2, 1, 0.01},
		{1, 2, 0},
		{1, 2, 1},
		{1, 2, -0.5},
		{math.NaN(), 1, 0.01},
		{1, math.Inf(1), 0.01},
		{5e-324, 1, 0.01}, // hi/lo overflows
	}
	for _, tc := range bad {
		if _, err := NewSketch(tc.lo, tc.hi, tc.alpha); err == nil {
			t.Errorf("NewSketch(%g, %g, %g) accepted", tc.lo, tc.hi, tc.alpha)
		}
	}
}

func TestSketchEmpty(t *testing.T) {
	s := testSketch(t)
	if s.N() != 0 || s.Quantile(0.5) != 0 || s.Quantile(0.99) != 0 {
		t.Error("empty sketch not zeroed")
	}
}

func TestSketchZeroHeavyStream(t *testing.T) {
	// Delay streams are mostly exact zeros; the zero bucket must carry
	// them and the low quantiles must report 0 exactly.
	s := testSketch(t)
	for i := 0; i < 90; i++ {
		s.Add(0)
	}
	for i := 0; i < 10; i++ {
		s.Add(100)
	}
	if q := s.Quantile(0.5); q != 0 {
		t.Errorf("P50 of zero-heavy stream = %g, want 0", q)
	}
	if q := s.Quantile(0.99); q < 100/1.03 || q > 100*1.03 {
		t.Errorf("P99 = %g, want ~100", q)
	}
	if s.max != 100 {
		t.Errorf("Max = %g", s.max)
	}
}

func TestSketchClampsAboveRange(t *testing.T) {
	s := testSketch(t)
	s.Add(1e9) // far above hi: clamps into the last bucket
	if s.N() != 1 {
		t.Fatal("observation lost")
	}
	// Quantile clamps into [Min, Max], so even the clamped bucket reports
	// the true (single) observation.
	if q := s.Quantile(1); q != 1e9 {
		t.Errorf("Quantile(1) = %g, want 1e9 (clamped to Max)", q)
	}
}

// checkQuantiles asserts the sketch contract against the exact sample: the
// estimate lies within one bucket (a factor of gamma) of the exact order
// statistics surrounding rank p*(n-1), with values <= lo reporting as 0.
func checkQuantiles(t *testing.T, s *Sketch, xs []float64) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	// edge is the upper edge of the last bucket; stats beyond it clamp into
	// that bucket and only promise [cap/gamma, Max].
	edge := s.lo * math.Pow(s.gamma, float64(len(s.bins)))
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		got := s.Quantile(p)
		rank := int(math.Round(p * float64(len(sorted)-1)))
		stat := sorted[rank]
		if stat <= s.lo {
			if got != 0 {
				t.Errorf("Quantile(%g) = %g for sub-resolution stat %g, want 0", p, got, stat)
			}
			continue
		}
		if stat > edge {
			if got < edge/s.gamma-1e-12 || got > s.max {
				t.Errorf("Quantile(%g) = %g for over-range stat %g, want within [%g, %g]",
					p, got, stat, edge/s.gamma, s.max)
			}
			continue
		}
		lo, hi := stat/s.gamma-1e-12, stat*s.gamma+1e-12
		if got < lo || got > hi {
			t.Errorf("Quantile(%g) = %g outside one bucket of exact stat %g [%g, %g]",
				p, got, stat, lo, hi)
		}
	}
}

func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		s := testSketch(t)
		n := 1 + rng.Intn(3000)
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(3) {
			case 0:
				xs[i] = 0 // exact zero (delay streams)
			case 1:
				xs[i] = rng.Float64() * 4000 // uniform over the range
			default:
				xs[i] = math.Exp(rng.Float64()*8 - 2) // log-uniform tail
			}
			s.Add(xs[i])
		}
		checkQuantiles(t, s, xs)
	}
}

// TestSketchMergeMatchesSequential: splitting a stream across sketches and
// merging reproduces the single-sketch count, extremes and buckets exactly,
// regardless of merge order.
func TestSketchMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all, a, b, c := testSketch(t), testSketch(t), testSketch(t), testSketch(t)
	parts := []*Sketch{a, b, c}
	for i := 0; i < 5000; i++ {
		x := math.Abs(rng.NormFloat64()) * 50
		all.Add(x)
		parts[i%3].Add(x)
	}
	// Merge in two different orders into fresh copies, one of them past
	// an empty sketch.
	ab, ba := testSketch(t), testSketch(t)
	for _, src := range []*Sketch{a, testSketch(t), b, c} {
		if err := ab.Merge(src); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []*Sketch{c, b, a} {
		if err := ba.Merge(src); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*Sketch{ab, ba} {
		if m.zero != all.zero {
			t.Fatalf("zero bucket %d, want %d", m.zero, all.zero)
		}
		for i := range m.bins {
			if m.bins[i] != all.bins[i] {
				t.Fatalf("bin %d = %d, want %d", i, m.bins[i], all.bins[i])
			}
		}
		if m.N() != all.N() || m.min != all.min || m.max != all.max {
			t.Fatalf("N/Min/Max drifted: %d/%g/%g vs %d/%g/%g", m.N(), m.min, m.max, all.N(), all.min, all.max)
		}
	}
	// Bucket counts are integers, so the two merge orders agree exactly —
	// and therefore so do the quantiles.
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if ab.Quantile(p) != ba.Quantile(p) {
			t.Errorf("merge order changed Quantile(%g): %g vs %g", p, ab.Quantile(p), ba.Quantile(p))
		}
	}
}

func TestSketchMergeIncompatible(t *testing.T) {
	a := testSketch(t)
	b, err := NewSketch(1e-3, 8192, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Error("incompatible layouts merged")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge errored: %v", err)
	}
}

// FuzzSketchQuantile drives randomized streams through the sketch and
// checks the one-bucket quantile bound plus merge/sequential agreement.
func FuzzSketchQuantile(f *testing.F) {
	f.Add(int64(1), uint16(100))
	f.Add(int64(99), uint16(2048))
	f.Add(int64(-7), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%4096 + 1
		whole, left, right := testSketch(t), testSketch(t), testSketch(t)
		xs := make([]float64, count)
		for i := range xs {
			switch rng.Intn(4) {
			case 0:
				xs[i] = 0
			case 1:
				xs[i] = rng.Float64() * 1e-3 // sub-resolution
			default:
				xs[i] = math.Exp(rng.Float64()*16 - 7) // spans the bucket range
			}
			whole.Add(xs[i])
			if i%2 == 0 {
				left.Add(xs[i])
			} else {
				right.Add(xs[i])
			}
		}
		checkQuantiles(t, whole, xs)
		if err := left.Merge(right); err != nil {
			t.Fatal(err)
		}
		if left.N() != whole.N() || left.zero != whole.zero {
			t.Fatalf("merge lost observations: %d/%d vs %d/%d", left.N(), left.zero, whole.N(), whole.zero)
		}
		for i := range left.bins {
			if left.bins[i] != whole.bins[i] {
				t.Fatalf("merged bin %d = %d, sequential %d", i, left.bins[i], whole.bins[i])
			}
		}
		if left.min != whole.min || left.max != whole.max {
			t.Fatalf("merge drifted min/max")
		}
	})
}

// TestSummarizeMatchesPercentile: the single-sort Summarize reads the same
// quantiles Percentile computes (bit-for-bit — both interpolate over the
// identical sorted copy).
func TestSummarizeMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		xs := make([]float64, 1+rng.Intn(500))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		for _, q := range []struct {
			p    float64
			got  float64
			name string
		}{{0.50, s.P50, "P50"}, {0.95, s.P95, "P95"}, {0.99, s.P99, "P99"}} {
			want := Percentile(xs, q.p)
			if math.Float64bits(q.got) != math.Float64bits(want) {
				t.Errorf("%s = %g, Percentile = %g", q.name, q.got, want)
			}
		}
	}
}

// formulaIndex is the logarithmic bucket index the sketch tabulates, the
// reference its table lookup must reproduce for every finite x > lo.
func formulaIndex(lo, alpha float64, nbins int, x float64) int {
	gamma := (1 + alpha) / (1 - alpha)
	i := int((math.Log(x) - math.Log(lo)) * (1 / math.Log(gamma)))
	if i < 0 {
		return 0
	}
	if i >= nbins {
		return nbins - 1
	}
	return i
}

// sketchLayouts are the (lo, hi, alpha) layouts the measurement engines
// build (sim, chaos and loadgen: (L/2^20, L]; online: (L/2^20, 64L] for
// flows and (0.5, 4096] for delay factors, all at 1%) plus the edges of
// the parameter space.
func sketchLayouts() [][3]float64 {
	var out [][3]float64
	for _, L := range []float64{1, 7, 414, 432, 669, 1 << 16} {
		out = append(out, [3]float64{L / (1 << 20), L, 0.01}, [3]float64{L / (1 << 20), 64 * L, 0.01})
	}
	return append(out,
		[3]float64{0.5, 4096, 0.01},
		[3]float64{1e-3, 4096, 0.01},
		[3]float64{5e-324, 1e-16, 0.01},           // subnormal lo
		[3]float64{0x1p-1030, 0x1p-1000, 0.05},    // subnormal through normal
		[3]float64{1, math.MaxFloat64, 0.01},      // hi at the top of the range
		[3]float64{1e300, math.MaxFloat64, 0.001}, // only huge values
		[3]float64{1, 1000, 1e-4},                 // alpha near 0
		[3]float64{1e-3, 1e6, 0.999},              // alpha near 1
		[3]float64{1e-3, 1e6, 1 - 1e-9},           // gamma ~ 2e9
		[3]float64{1, math.Nextafter(1, 2), 0.01}, // hi one ulp above lo
		[3]float64{1, 1 + 1e-12, 0.3},             // a range inside one cell
	)
}

// TestSketchIndexMatchesFormula checks the table index against the
// logarithm formula at every bucket boundary ±8 ulps, for every layout.
func TestSketchIndexMatchesFormula(t *testing.T) {
	for _, l := range sketchLayouts() {
		lo, hi, alpha := l[0], l[1], l[2]
		s, err := NewSketch(lo, hi, alpha)
		if err != nil {
			t.Fatalf("NewSketch(%g, %g, %g): %v", lo, hi, alpha, err)
		}
		n := len(s.bins)
		check := func(x float64) {
			if !(x > lo) || math.IsInf(x, 0) {
				return
			}
			if got, want := s.index(x), formulaIndex(lo, alpha, n, x); got != want {
				t.Fatalf("layout (%g, %g, %g): index(%v) = %d, formula %d", lo, hi, alpha, x, got, want)
			}
		}
		check(math.Nextafter(lo, math.Inf(1)))
		check(hi)
		check(math.MaxFloat64)
		for _, b := range s.bounds {
			for d := int64(-8); d <= 8; d++ {
				check(math.Float64frombits(uint64(b + d)))
			}
		}
	}
}

// TestSketchNonFinite pins where non-finite observations land: +Inf is
// above hi and clamps into the last bucket like any other large value
// (the logarithm formula's int(+Inf) put it in bucket 0 on amd64), and
// NaN joins it there.
func TestSketchNonFinite(t *testing.T) {
	for _, x := range []float64{math.Inf(1), math.NaN()} {
		s := testSketch(t)
		s.Add(x)
		if s.zero != 0 || s.bins[0] != 0 || s.bins[len(s.bins)-1] != 1 {
			t.Errorf("Add(%v): zero %d, bin 0 = %d, last bin = %d; want only the last bin",
				x, s.zero, s.bins[0], s.bins[len(s.bins)-1])
		}
	}
	s := testSketch(t)
	s.Add(math.Inf(-1))
	if s.zero != 1 {
		t.Errorf("Add(-Inf) missed the zero bucket")
	}
}

// FuzzSketchIndex compares the table index with the logarithm formula at
// arbitrary points of arbitrary layouts.
func FuzzSketchIndex(f *testing.F) {
	f.Add(1e-3, 4096.0, 0.01, 1.0)
	f.Add(414.0/(1<<20), 414.0*64, 0.01, 113.5)
	f.Add(0.5, 4096.0, 0.01, 2.0)
	f.Add(1e-310, 1e-290, 0.2, 1e-300)
	f.Add(1e290, math.MaxFloat64, 0.5, 1e308)
	f.Fuzz(func(t *testing.T, lo, hi, alpha, x float64) {
		if !(alpha >= 1e-3) || !(hi/lo < 1e30) {
			t.Skip() // keep the bucket count, and so the table, small
		}
		s, err := NewSketch(lo, hi, alpha)
		if err != nil {
			return
		}
		x = math.Abs(x)
		if !(x > lo) || math.IsInf(x, 0) {
			return
		}
		if got, want := s.index(x), formulaIndex(lo, alpha, len(s.bins), x); got != want {
			t.Fatalf("layout (%g, %g, %g): index(%v) = %d, formula %d", lo, hi, alpha, x, got, want)
		}
	})
}

// BenchmarkSketchAdd folds log-uniform values over the online flow
// layout's range, a tenth of them at or below lo.
func BenchmarkSketchAdd(b *testing.B) {
	const L = 414.0
	s, err := NewSketch(L/(1<<20), 64*L, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = L * math.Exp(rng.Float64()*18-14)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&(len(xs)-1)])
	}
}

// BenchmarkNewSketch builds each layout the measurement engines use: the
// wait and delay layout of sim, chaos and loadgen, and the online tier's
// flow and delay-factor layouts, at a 414-slot cycle.
func BenchmarkNewSketch(b *testing.B) {
	const L = 414.0
	for _, l := range []struct {
		name          string
		lo, hi, alpha float64
	}{
		{"wait", L / (1 << 20), L, 0.01},
		{"flow", L / (1 << 20), 64 * L, 0.01},
		{"factor", 0.5, 4096, 0.01},
	} {
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSketch(l.lo, l.hi, l.alpha); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
