package sim

import (
	"math/rand"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/workload"
)

// TestMixInvertible: Mix is a bijection of the state for a fixed word and
// of the word for a fixed state, shown by undoing it: the xor-shift is its
// own inverse and the odd multiplier has an inverse mod 2^64.
func TestMixInvertible(t *testing.T) {
	inv := mixMul // Newton's iteration doubles the correct low bits each step
	for i := 0; i < 6; i++ {
		inv *= 2 - mixMul*inv
	}
	if mixMul*inv != 1 {
		t.Fatalf("no inverse of %#x mod 2^64", mixMul)
	}
	unmix := func(y uint64) uint64 { return (y ^ y>>32) * inv } // h ^ w
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h, w := rng.Uint64(), rng.Uint64()
		y := Mix(h, w)
		if got := unmix(y) ^ w; got != h {
			t.Fatalf("Mix(%#x, %#x) = %#x: state recovers as %#x", h, w, y, got)
		}
		if got := unmix(y) ^ h; got != w {
			t.Fatalf("Mix(%#x, %#x) = %#x: word recovers as %#x", h, w, y, got)
		}
	}
}

// BenchmarkFold folds one shard of wait-shaped outcomes the way sim and
// chaos do per request: Delay, Add and Trace ("request"), or only their
// Add+Delay and Trace parts. Waits are uniform over a 414-slot cycle,
// pages uniform over 400 with expected times of 4 to 512 slots.
func BenchmarkFold(b *testing.B) {
	const L, pages = 414.0, 400
	rng := rand.New(rand.NewSource(1))
	waits := make([]float64, workload.ShardSize)
	page := make([]core.PageID, workload.ShardSize)
	times := make([]float64, pages)
	for p := range times {
		times[p] = float64(int(4) << (p % 8))
	}
	for i := range waits {
		waits[i] = rng.Float64() * L
		page[i] = core.PageID(rng.Intn(pages))
	}
	sk, err := WaitLayout(L).New()
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, fold func(f *Fold)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := sk.Open()
				fold(&f)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(waits)), "ns/request")
		})
	}
	run("request", func(f *Fold) {
		for i, w := range waits {
			f.Add(w, f.Delay(w, times[page[i]]))
			f.Trace(page[i], w, 0)
		}
	})
	run("add", func(f *Fold) {
		for i, w := range waits {
			f.Add(w, f.Delay(w, times[page[i]]))
		}
	})
	run("trace", func(f *Fold) {
		for i, w := range waits {
			f.Trace(page[i], w, 0)
		}
	})
}
