package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestAnalysisSinglePageEveryK checks the textbook case: one page of
// expected time t broadcast every g slots has
// E[wait] = g/2, E[delay] = (g-t)^2/(2g), P[miss] = (g-t)/g.
func TestAnalysisSinglePageEveryK(t *testing.T) {
	tests := []struct {
		t, g int
	}{
		{2, 2}, {2, 4}, {2, 8}, {4, 6}, {4, 12}, {3, 9},
	}
	for _, tt := range tests {
		gs := MustGroupSet([]Group{{tt.t, 1}})
		p, err := NewProgram(gs, 1, tt.g)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Place(0, 0, 0); err != nil {
			t.Fatal(err)
		}
		a := Analyze(p)
		g, tf := float64(tt.g), float64(tt.t)
		if got, want := a.PageWait(0), g/2; absDiff(got, want) > 1e-12 {
			t.Errorf("t=%d g=%d: wait = %f, want %f", tt.t, tt.g, got, want)
		}
		wantDelay := 0.0
		wantMiss := 0.0
		if g > tf {
			wantDelay = (g - tf) * (g - tf) / (2 * g)
			wantMiss = (g - tf) / g
		}
		if got := a.PageDelay(0); absDiff(got, wantDelay) > 1e-12 {
			t.Errorf("t=%d g=%d: delay = %f, want %f", tt.t, tt.g, got, wantDelay)
		}
		if got := a.PageMissProbability(0); absDiff(got, wantMiss) > 1e-12 {
			t.Errorf("t=%d g=%d: miss = %f, want %f", tt.t, tt.g, got, wantMiss)
		}
	}
}

func TestAnalysisUnevenGaps(t *testing.T) {
	// Page t=2 at columns 0 and 3 of a length-8 cycle: gaps 3 and 5.
	// E[delay] = (1^2 + 3^2)/(2*8) = 10/16; E[wait] = (9+25)/16.
	gs := MustGroupSet([]Group{{2, 1}})
	p, _ := NewProgram(gs, 1, 8)
	mustPlaceAll(p, [][3]int{{0, 0, 0}, {0, 3, 0}})
	a := Analyze(p)
	if got, want := a.PageDelay(0), 10.0/16.0; absDiff(got, want) > 1e-12 {
		t.Errorf("delay = %f, want %f", got, want)
	}
	if got, want := a.PageWait(0), 34.0/16.0; absDiff(got, want) > 1e-12 {
		t.Errorf("wait = %f, want %f", got, want)
	}
	if got, want := a.MaxDelay(), 3.0; got != want {
		t.Errorf("MaxDelay = %f, want %f", got, want)
	}
}

func TestAnalysisMissingPage(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 2}})
	p, _ := NewProgram(gs, 1, 6)
	mustPlaceAll(p, [][3]int{{0, 0, 0}}) // page 1 never broadcast
	a := Analyze(p)
	if got := a.PageDelay(1); got != 6 {
		t.Errorf("missing page delay = %f, want cycle length 6", got)
	}
	if got := a.PageMissProbability(1); got != 1 {
		t.Errorf("missing page miss = %f, want 1", got)
	}
}

func TestAvgDelayIsMeanOverPages(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 2}})
	p, _ := NewProgram(gs, 1, 8)
	// Page 0 every 4 slots (delay (4-2)^2/8 = 0.5); page 1 every 8
	// (delay (8-2)^2/16 = 2.25).
	mustPlaceAll(p, [][3]int{{0, 0, 0}, {0, 4, 0}, {0, 1, 1}})
	a := Analyze(p)
	if got, want := a.AvgDelay(), (0.5+2.25)/2; absDiff(got, want) > 1e-12 {
		t.Errorf("AvgDelay = %f, want %f", got, want)
	}
	w, err := a.WeightedAvgDelay([]float64{1, 0})
	if err != nil || absDiff(w, 0.5) > 1e-12 {
		t.Errorf("WeightedAvgDelay = %f,%v want 0.5,nil", w, err)
	}
	if _, err := a.WeightedAvgDelay([]float64{1}); err == nil {
		t.Error("wrong-length weights accepted")
	}
}

func TestNextAfter(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 2}}) // page 1 never placed
	p, _ := NewProgram(gs, 1, 8)
	mustPlaceAll(p, [][3]int{{0, 1, 0}, {0, 5, 0}})
	a := Analyze(p)
	tests := []struct {
		u    float64
		want float64
	}{
		{0, 1}, {1, 0}, {1.5, 3.5}, {5, 0}, {5.5, 3.5}, {7.9, 1.1},
	}
	for _, tt := range tests {
		if got := a.NextAfter(0, tt.u); absDiff(got, tt.want) > 1e-9 {
			t.Errorf("NextAfter(0, %f) = %f, want %f", tt.u, got, tt.want)
		}
	}
	if got := a.NextAfter(1, 3); got != 8 {
		t.Errorf("NextAfter(missing page) = %f, want cycle length 8", got)
	}
}

// TestNextAfterConsistentWithWait cross-checks the closed-form E[wait]
// against Monte-Carlo integration of NextAfter.
func TestNextAfterConsistentWithWait(t *testing.T) {
	gs := MustGroupSet([]Group{{4, 3}})
	p, _ := NewProgram(gs, 2, 12)
	mustPlaceAll(p, [][3]int{
		{0, 0, 0}, {0, 7, 0}, {1, 3, 1}, {0, 9, 1}, {1, 6, 2},
	})
	a := Analyze(p)
	rng := rand.New(rand.NewSource(7))
	const samples = 200000
	for id := PageID(0); id < 3; id++ {
		var sum float64
		for s := 0; s < samples; s++ {
			sum += a.NextAfter(id, rng.Float64()*12)
		}
		got := sum / samples
		want := a.PageWait(id)
		if math.Abs(got-want) > 0.03 {
			t.Errorf("page %d: MC wait %f vs closed form %f", id, got, want)
		}
	}
}

func TestAnalysisMissProbabilityAggregates(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 1}, {4, 1}})
	p, _ := NewProgram(gs, 1, 8)
	// Page 0 (t=2) every 8: miss (8-2)/8 = 0.75. Page 1 (t=4) every 4: 0.
	mustPlaceAll(p, [][3]int{{0, 0, 0}, {0, 1, 1}, {0, 5, 1}})
	a := Analyze(p)
	if got, want := a.MissProbability(), 0.75/2; absDiff(got, want) > 1e-12 {
		t.Errorf("MissProbability = %f, want %f", got, want)
	}
	if got := a.AvgWait(); got <= 0 {
		t.Errorf("AvgWait = %f, want > 0", got)
	}
	if a.Program() != p {
		t.Error("Program() does not return analyzed program")
	}
}

func TestCeilDiv(t *testing.T) {
	tests := []struct{ a, b, want int }{
		{0, 1, 0}, {1, 1, 1}, {1, 2, 1}, {2, 2, 1}, {3, 2, 2},
		{25, 3, 9}, {24, 3, 8}, {1000, 512, 2}, {7, 0, 0}, {-3, 2, -1},
	}
	for _, tt := range tests {
		if got := CeilDiv(tt.a, tt.b); got != tt.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestGCDLCM(t *testing.T) {
	if got := gcd(12, 18); got != 6 {
		t.Errorf("gcd(12,18) = %d, want 6", got)
	}
	if got := lcm(4, 6); got != 12 {
		t.Errorf("lcm(4,6) = %d, want 12", got)
	}
	if got := lcm(0, 5); got != 0 {
		t.Errorf("lcm(0,5) = %d, want 0", got)
	}
}

func TestGroupDelayAndWait(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 2}, {4, 1}})
	p, _ := NewProgram(gs, 1, 8)
	// Page 0 every 4 (delay 0.5), page 1 every 8 (delay 2.25), page 2
	// (t=4) every 8 (delay (8-4)^2/16 = 1).
	mustPlaceAll(p, [][3]int{{0, 0, 0}, {0, 4, 0}, {0, 1, 1}, {0, 2, 2}})
	a := Analyze(p)
	if got, want := a.GroupDelay(0), (0.5+2.25)/2; absDiff(got, want) > 1e-12 {
		t.Errorf("GroupDelay(0) = %f, want %f", got, want)
	}
	if got, want := a.GroupDelay(1), 1.0; absDiff(got, want) > 1e-12 {
		t.Errorf("GroupDelay(1) = %f, want %f", got, want)
	}
	if a.GroupWait(0) <= 0 || a.GroupWait(1) <= 0 {
		t.Error("group waits not positive")
	}
}

func TestWorstGap(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 2}})
	p, _ := NewProgram(gs, 1, 8)
	mustPlaceAll(p, [][3]int{{0, 0, 0}, {0, 3, 0}}) // gaps 3 and 5
	a := Analyze(p)
	if got := a.WorstGap(0); got != 5 {
		t.Errorf("WorstGap = %d, want 5", got)
	}
	if got := a.WorstGap(1); got != 8 {
		t.Errorf("WorstGap(absent) = %d, want cycle 8", got)
	}
}

// TestCeilF pins the dependency-free ceiling against math.Ceil, including
// the 2^63 boundary where a bare int64 conversion would overflow into
// implementation-defined behaviour.
func TestCeilF(t *testing.T) {
	const two63 = float64(1 << 63)
	cases := []float64{
		0, 0.25, 0.5, 1, 1.0000001, 3.999, 4,
		float64(1 << 52), float64(1<<52) + 0.5,
		float64(1 << 62),
		math.Nextafter(two63, 0), // largest float64 below 2^63
		two63,
		math.Nextafter(two63, math.Inf(1)),
		float64(1) * (1 << 63) * 2, // 2^64
		1e300,
	}
	for _, x := range cases {
		if got, want := Ceil(x), math.Ceil(x); got != want {
			t.Errorf("Ceil(%g) = %g, want %g", x, got, want)
		}
	}
}
