package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tcsa/internal/core"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// sketchQuantileAccuracy is the relative bucket width of the wait/delay
// quantile sketches: estimates are within ~1% of the exact order statistic.
const sketchQuantileAccuracy = 0.01

// sketchResolution divides the cycle length to set the smallest resolvable
// wait: anything below L/2^20 slots reports as a zero quantile.
const sketchResolution = 1 << 20

// partial holds the per-shard accumulation state. Shards are disjoint, so
// workers write their shard's partial without synchronisation; the engine
// folds partials in ascending shard order afterwards, which makes every
// float in the result independent of the worker count. waitSum/delaySum
// are plain left-to-right sums so that a single-shard stream reproduces
// the historical stats.Mean arithmetic bit for bit.
type partial struct {
	wait, delay       stats.Online
	waitSum, delaySum float64
	misses            int64
	err               error
}

// pageCursor tracks the appearance-column position of one page while a
// worker walks a sorted shard: k is the smallest index not yet known to
// precede prevU. Arrivals within a shard are non-decreasing, so each
// page's columns are scanned at most once per cycle wrap instead of
// binary-searched per request.
type pageCursor struct {
	k     int32
	prevU float64
}

// nextSorted is Analysis.NextAfter for non-decreasing arrival instants:
// identical arithmetic (so identical bits), but the column index advances
// from the previous request's position instead of restarting a binary
// search. cols must be non-empty.
func nextSorted(pc *pageCursor, cols []int32, u, L float64) float64 {
	if u < pc.prevU {
		pc.k = 0 // the arrival wrapped to a new cycle (or a new shard began)
	}
	pc.prevU = u
	k := pc.k
	// cols holds integers, so cols[k] >= ceil(u) iff float64(cols[k]) >= u:
	// this stops at exactly the index NextAfter's sort.Search finds.
	for int(k) < len(cols) && float64(cols[k]) < u {
		k++
	}
	pc.k = k
	if int(k) == len(cols) {
		return float64(cols[0]) + L - u
	}
	return float64(cols[k]) - u
}

// MeasureStream evaluates a request stream against a finished program's
// analysis without materialising the requests or retaining samples: one
// pass, O(1) memory in the request count. It is the serial core of
// MeasureParallel and produces bit-identical Metrics to it at any worker
// count.
func MeasureStream(a *core.Analysis, stream workload.Stream) (*Metrics, error) {
	return MeasureParallel(a, stream, 1)
}

// MeasureParallel is MeasureStream sharded across a worker pool: workers
// claim fixed-size stream shards (workload.ShardSize requests) from an
// atomic counter, accumulate per-shard partials and per-worker quantile
// sketches, and the engine folds the partials in ascending shard order.
// Shard boundaries and fold order depend only on the stream, so the
// returned Metrics are bit-for-bit identical for any worker count,
// including 1 (the serial path). workers <= 0 uses GOMAXPROCS.
func MeasureParallel(a *core.Analysis, stream workload.Stream, workers int) (*Metrics, error) {
	if a == nil {
		return nil, errors.New("sim: nil analysis")
	}
	if stream == nil {
		return nil, errors.New("sim: nil stream")
	}
	count := stream.Count()
	if count == 0 {
		return &Metrics{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := stream.Shards()
	if workers > shards {
		workers = shards
	}

	gs := a.Program().GroupSet()
	ix := a.Index()
	pages := gs.Pages()
	length := a.Program().Length()
	L := float64(length)
	sorted := stream.Sorted()
	// Per-page expected times, precomputed once: GroupSet.TimeOf binary-
	// searches the group table, which is too hot for the per-request loop.
	times := make([]float64, pages)
	for i := range times {
		times[i] = float64(gs.TimeOf(core.PageID(i)))
	}

	partials := make([]partial, shards)
	waitSketches := make([]*stats.Sketch, workers)
	delaySketches := make([]*stats.Sketch, workers)

	var nextShard atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	var sketchErr atomic.Value
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(widx int) {
			defer wg.Done()
			ws, err1 := stats.NewSketch(L/sketchResolution, L, sketchQuantileAccuracy)
			ds, err2 := stats.NewSketch(L/sketchResolution, L, sketchQuantileAccuracy)
			if err1 != nil || err2 != nil {
				sketchErr.Store(errors.Join(err1, err2))
				failed.Store(true)
				return
			}
			waitSketches[widx] = ws
			delaySketches[widx] = ds
			cur := stream.NewCursor()
			var cursors []pageCursor
			if sorted {
				cursors = make([]pageCursor, pages)
			}
			var r workload.Request
			for {
				if failed.Load() {
					return
				}
				k := int(nextShard.Add(1)) - 1
				if k >= shards {
					return
				}
				p := &partials[k]
				cur.Seek(k)
				for local := 0; cur.Next(&r); local++ {
					if r.Page < 0 || int(r.Page) >= pages {
						p.err = fmt.Errorf("%w: request %d page %d",
							core.ErrPageRange, k*workload.ShardSize+local, r.Page)
						failed.Store(true)
						return
					}
					if r.Arrival < 0 {
						p.err = fmt.Errorf("%w: request %d arrival %f negative",
							core.ErrSlotRange, k*workload.ShardSize+local, r.Arrival)
						failed.Store(true)
						return
					}
					// The program is cyclic, so arrivals beyond the first
					// cycle (e.g. Poisson streams) fold back into it.
					u := core.CycleOffset(r.Arrival, length)
					var wait float64
					if cols := ix.Columns(r.Page); len(cols) == 0 {
						wait = L
					} else if sorted {
						wait = nextSorted(&cursors[r.Page], cols, u, L)
					} else {
						wait = a.NextAfter(r.Page, u)
					}
					delay := wait - times[r.Page]
					if delay < 0 {
						delay = 0
					} else if delay > 0 {
						p.misses++
					}
					p.wait.Add(wait)
					p.delay.Add(delay)
					p.waitSum += wait
					p.delaySum += delay
					ws.Add(wait)
					ds.Add(delay)
				}
			}
		}(w)
	}
	wg.Wait()

	// Shards are claimed in ascending order and each claimed shard runs to
	// completion, so the lowest-index error is always recorded: the error a
	// caller sees does not depend on worker scheduling.
	for k := range partials {
		if partials[k].err != nil {
			return nil, partials[k].err
		}
	}
	if err, _ := sketchErr.Load().(error); err != nil {
		return nil, err
	}

	// Fold partials in shard order (fixed, worker-independent) and sketches
	// in worker order (bucket counts are integers, so any order gives the
	// same quantiles).
	var wait, delay stats.Online
	var waitSum, delaySum float64
	var misses int64
	for k := range partials {
		wait.Merge(partials[k].wait)
		delay.Merge(partials[k].delay)
		waitSum += partials[k].waitSum
		delaySum += partials[k].delaySum
		misses += partials[k].misses
	}
	waitSketch, delaySketch := waitSketches[0], delaySketches[0]
	for w := 1; w < workers; w++ {
		if waitSketches[w] == nil {
			continue // worker exited before claiming a shard
		}
		if err := waitSketch.Merge(waitSketches[w]); err != nil {
			return nil, err
		}
		if err := delaySketch.Merge(delaySketches[w]); err != nil {
			return nil, err
		}
	}

	return &Metrics{
		Requests:  count,
		AvgWait:   waitSum / float64(count),
		AvgDelay:  delaySum / float64(count),
		MissRatio: float64(misses) / float64(count),
		Wait:      stats.SummaryOf(wait, waitSketch),
		Delay:     stats.SummaryOf(delay, delaySketch),
	}, nil
}
