package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"tcsa/internal/core"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// The fold kernel of the four measurement engines (MeasureParallel,
// chaos.RunParallel, the online tier's measurement pass and loadgen). An
// engine supplies its per-request logic as a step the pool calls once per
// shard, so the kernel adds no interface or closure call per request.

// sketchQuantileAccuracy is the relative bucket width of every engine's
// quantile sketches: estimates are within ~1% of the exact order statistic.
const sketchQuantileAccuracy = 0.01

// sketchResolution divides the cycle length to set the smallest resolvable
// wait: anything below L/2^20 slots reports as a zero quantile.
const sketchResolution = 1 << 20

// Layout is the value ranges of a fold's two quantile sketches, A and B.
type Layout struct {
	LoA, HiA, LoB, HiB float64
}

// WaitLayout is the wait/delay layout of a cycle of L slots. Sharing it is
// what lets chaos and loadgen reproduce MeasureParallel's sketches.
func WaitLayout(L float64) Layout {
	return Layout{LoA: L / sketchResolution, HiA: L, LoB: L / sketchResolution, HiB: L}
}

// Sketches is one worker's sketch pair. Bucket counts are integers, so
// pairs merge exactly in any order.
type Sketches struct {
	A, B *stats.Sketch
}

// New returns an empty sketch pair of layout l. Workers build their own
// on their own goroutines: pairs allocated back to back would share cache
// lines, which every Add writes.
func (l Layout) New() (Sketches, error) {
	a, err1 := stats.NewSketch(l.LoA, l.HiA, sketchQuantileAccuracy)
	b, err2 := stats.NewSketch(l.LoB, l.HiB, sketchQuantileAccuracy)
	return Sketches{A: a, B: b}, errors.Join(err1, err2)
}

// Open starts a shard's Fold, feeding sk.
func (sk *Sketches) Open() Fold {
	return Fold{Digest: FNVOffset, sk: sk}
}

// Fold accumulates one shard's outcome pairs (A, B): wait and delay, or
// flow and delay factor online; N counts misses, or online-served
// requests. A worker folds a shard into a Fold of its own, on its stack,
// and stores it in the shard's slot once done: neighbouring slots share
// cache lines. SumA and SumB are left-to-right sums, so that a one-shard
// stream reproduces the historical stats.Mean arithmetic bit for bit.
type Fold struct {
	A, B       stats.Online
	SumA, SumB float64
	N          int64
	Digest     uint64
	sk         *Sketches
	err        error
}

// Add folds one outcome into the shard and the worker's sketches.
func (f *Fold) Add(a, b float64) {
	f.A.Add(a)
	f.B.Add(b)
	f.SumA += a
	f.SumB += b
	f.sk.A.Add(a)
	f.sk.B.Add(b)
}

// Delay returns a push-served wait's delay beyond the expected time t,
// counting a miss when it is positive; f.Add(wait, f.Delay(wait, t))
// folds the request. It is small enough to inline into the engines' loops.
func (f *Fold) Delay(wait, t float64) float64 {
	delay := wait - t
	if delay > 0 {
		f.N++
	} else if delay < 0 {
		return 0
	}
	return delay
}

// Trace chains one request into the shard digest: its page, the bits of
// its measured value and an engine-defined tag (attempts, serving tier).
func (f *Fold) Trace(page core.PageID, x float64, tag uint64) {
	d := FNV64(f.Digest, uint64(uint32(page)))
	d = FNV64(d, math.Float64bits(x))
	f.Digest = FNV64(d, tag)
}

// Fail records err against f's shard; see MergeFolds.
func (f *Fold) Fail(err error) { f.err = err }

// Summaries returns the profiles of A and B: exact moments from the fold,
// quantiles from its sketches.
func (f *Fold) Summaries() (a, b stats.Summary) {
	return stats.SummaryOf(f.A, f.sk.A), stats.SummaryOf(f.B, f.sk.B)
}

// Metrics reports a merged wait/delay fold over count requests.
func (f *Fold) Metrics(count int) Metrics {
	m := Metrics{
		Requests:  count,
		AvgWait:   f.SumA / float64(count),
		AvgDelay:  f.SumB / float64(count),
		MissRatio: float64(f.N) / float64(count),
	}
	m.Wait, m.Delay = f.Summaries()
	return m
}

// FNV-1a 64-bit constants, the family of the perf-report series checksums.
// FNVOffset starts a digest chain.
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

// Workers resolves a requested worker count for a run of shards shards:
// <= 0 means GOMAXPROCS, and never more workers than shards.
func Workers(workers, shards int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, shards)
}

// ShardFunc folds shard k into f, opened by the pool, and returns it.
type ShardFunc func(k int, f Fold) (Fold, error)

// FoldShards folds shards [0, shards > 0) on a pool of workers (<= 0:
// GOMAXPROCS) and merges them. start runs on each worker's goroutine and
// returns its step, which closes over the worker's cursors. Shards are
// claimed in ascending order and a failure stops workers only between
// shards, so every shard below a failed one completes and MergeFolds
// finds the lowest failure.
func FoldShards(workers, shards int, l Layout, start func() ShardFunc) (Fold, error) {
	folds := make([]Fold, shards)
	sketches := make([]Sketches, Workers(workers, shards))
	errs := make([]error, len(sketches))
	// One allocation for the state every worker shares, not one each.
	pool := new(struct {
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	})
	for w := range sketches {
		pool.wg.Add(1)
		go func(w int) {
			defer pool.wg.Done()
			if sketches[w], errs[w] = l.New(); errs[w] != nil {
				pool.failed.Store(true)
				return
			}
			step := start()
			for !pool.failed.Load() {
				k := int(pool.next.Add(1)) - 1
				if k >= shards {
					return
				}
				f, err := step(k, sketches[w].Open())
				if err != nil {
					f.Fail(err)
					pool.failed.Store(true)
				}
				folds[k] = f
			}
		}(w)
	}
	pool.wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return Fold{}, err
	}
	return MergeFolds(folds, sketches)
}

// MergeFolds returns the lowest failed shard's error, which does not depend
// on the worker count, or else the folds merged in shard order, the
// summation order that makes the result worker-independent, and the
// sketches merged into sketches[0].
func MergeFolds(folds []Fold, sketches []Sketches) (Fold, error) {
	for k := range folds {
		if folds[k].err != nil {
			return Fold{}, folds[k].err
		}
	}
	total := Fold{Digest: FNVOffset, sk: &sketches[0]}
	for k := range folds {
		f := &folds[k]
		total.A.Merge(f.A)
		total.B.Merge(f.B)
		total.SumA += f.SumA
		total.SumB += f.SumB
		total.N += f.N
		total.Digest = FNV64(total.Digest, f.Digest)
	}
	for _, sk := range sketches[1:] {
		if err := errors.Join(total.sk.A.Merge(sk.A), total.sk.B.Merge(sk.B)); err != nil {
			return Fold{}, err
		}
	}
	return total, nil
}

// RequestError reports request idx as out of range: its page outside
// [0, pages), else its arrival negative.
func RequestError(r workload.Request, idx, pages int) error {
	if r.Page < 0 || int(r.Page) >= pages {
		return fmt.Errorf("%w: request %d page %d", core.ErrPageRange, idx, r.Page)
	}
	return fmt.Errorf("%w: request %d arrival %f negative", core.ErrSlotRange, idx, r.Arrival)
}
