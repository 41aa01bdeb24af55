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
	return Fold{Digest: DigestOffset, sk: sk}
}

// Fold accumulates one shard's outcome pairs (A, B): wait and delay, or
// flow and delay factor online; N counts misses, or online-served
// requests. A worker folds a shard into a Fold of its own, on its stack,
// and stores it in the shard's slot once done: neighbouring slots share
// cache lines. SumA and SumB are left-to-right sums, so that a one-shard
// stream reproduces the historical stats.Mean arithmetic bit for bit.
// Digest chains the shard's requests through Mix.
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
	d := Mix(f.Digest, uint64(uint32(page)))
	d = Mix(d, math.Float64bits(x))
	f.Digest = Mix(d, tag)
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

// DigestOffset starts a digest chain.
const DigestOffset uint64 = 0xcbf29ce484222325

// mixMul is odd (so multiplying by it is invertible mod 2^64) with
// well-spread bits: 2^64 over the golden ratio.
const mixMul uint64 = 0x9e3779b97f4a7c15

// Mix folds word w into digest state h: one xor, one multiply, one
// xor-shift. For a fixed w it is a bijection of h, and for a fixed h a
// bijection of w (the multiplier is odd; x ^ x>>32 is its own inverse), so
// a chain loses no information to a single word. The xor-shift carries the
// product's high bits, which depend on every bit of h^w, down into the low
// bits that the next multiply spreads upward again. It replaced a byte-wise
// FNV-1a step (FNV64), eight dependent multiplies per word.
func Mix(h, w uint64) uint64 {
	h = (h ^ w) * mixMul
	return h ^ h>>32
}

// Workers resolves a requested worker count for a run of shards shards:
// <= 0 means GOMAXPROCS, and never more workers than shards.
func Workers(workers, shards int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, shards)
}

// ShardPool is the one shard pool of the engines: Workers(workers, shards)
// goroutines claim shards [0, shards) in ascending order from one atomic
// counter. A job embeds it, so that a run allocates its shared state once.
// A pool runs one job; the zero value is ready.
type ShardPool struct {
	next   atomic.Int64
	failed atomic.Bool
	wg     sync.WaitGroup
	mu     sync.Mutex
	low    int   // rank of err: its shard, or -1 for a failed Start
	err    error // lowest-ranked failure
}

// ShardJob is the work a ShardPool runs.
type ShardJob interface {
	// Start prepares worker w on its own goroutine, before it claims a
	// shard: cursors, sketches. An error stops the pool.
	Start(w int) error
	// Shard processes shard k on worker w.
	Shard(w, k int) error
}

// Run runs job over shards [0, shards) on Workers(workers, shards)
// goroutines (workers <= 0: GOMAXPROCS). A failure stops workers only
// between shards, so every shard below a failed one completes. Run returns
// the first Start error, or else the lowest failed shard's error, which
// does not depend on the worker count.
func (p *ShardPool) Run(workers, shards int, job ShardJob) error {
	if shards <= 0 {
		return nil
	}
	workers = Workers(workers, shards)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.work(w, shards, job)
	}
	p.wg.Wait()
	return p.err
}

func (p *ShardPool) work(w, shards int, job ShardJob) {
	defer p.wg.Done()
	if err := job.Start(w); err != nil {
		p.fail(-1, err)
		return
	}
	for !p.failed.Load() {
		k := int(p.next.Add(1)) - 1
		if k >= shards {
			return
		}
		if err := job.Shard(w, k); err != nil {
			p.fail(k, err)
		}
	}
}

func (p *ShardPool) fail(rank int, err error) {
	p.failed.Store(true)
	p.mu.Lock()
	if p.err == nil || rank < p.low {
		p.low, p.err = rank, err
	}
	p.mu.Unlock()
}

// ShardFunc folds shard k into f, opened by the pool, and returns it.
type ShardFunc func(k int, f Fold) (Fold, error)

// foldJob is FoldShards' run: each worker builds its own sketch pair and
// its engine step on its own goroutine.
type foldJob struct {
	ShardPool
	l        Layout
	start    func() ShardFunc
	steps    []ShardFunc
	sketches []Sketches
	folds    []Fold
}

func (j *foldJob) Start(w int) (err error) {
	if j.sketches[w], err = j.l.New(); err != nil {
		return err
	}
	j.steps[w] = j.start()
	return nil
}

func (j *foldJob) Shard(w, k int) (err error) {
	j.folds[k], err = j.steps[w](k, j.sketches[w].Open())
	return err
}

// FoldShards folds shards [0, shards > 0) on a ShardPool of workers (<= 0:
// GOMAXPROCS) and merges them. start runs on each worker's goroutine and
// returns its step, which closes over the worker's cursors.
func FoldShards(workers, shards int, l Layout, start func() ShardFunc) (Fold, error) {
	n := Workers(workers, shards)
	j := &foldJob{
		l:        l,
		start:    start,
		steps:    make([]ShardFunc, n),
		sketches: make([]Sketches, n),
		folds:    make([]Fold, shards),
	}
	if err := j.Run(workers, shards, j); err != nil {
		return Fold{}, err
	}
	return MergeFolds(j.folds, j.sketches)
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
	total := Fold{Digest: DigestOffset, sk: &sketches[0]}
	for k := range folds {
		f := &folds[k]
		total.A.Merge(f.A)
		total.B.Merge(f.B)
		total.SumA += f.SumA
		total.SumB += f.SumB
		total.N += f.N
		total.Digest = Mix(total.Digest, f.Digest)
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
