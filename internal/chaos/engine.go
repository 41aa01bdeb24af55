package chaos

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/replan"
	"tcsa/internal/sim"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// Sketch parameters, identical to sim.MeasureStream's: the zero-fault run
// must build bit-identical sketches.
const (
	sketchQuantileAccuracy = 0.01
	sketchResolution       = 1 << 20
)

// Ledger is the per-client deadline-miss bookkeeping the fault plan
// drives: how many scheduled deliveries each fault class ate, how many
// extra appearances clients waited through, and how many gave up.
type Ledger struct {
	// LostDeliveries counts appearances of a requested page lost to
	// i.i.d. or burst frame loss while the client was listening.
	LostDeliveries int64
	// CorruptSkips counts appearances that arrived undecodable.
	CorruptSkips int64
	// StallSkips counts appearances swallowed by server stall windows.
	StallSkips int64
	// ChurnSkips counts appearances missed because the client was
	// mid-disconnect/rejoin.
	ChurnSkips int64
	// Retries is the total number of extra appearances waited for
	// (the sum of the four skip classes).
	Retries int64
	// Unserved counts requests that hit the MaxCycles give-up bound.
	Unserved int64
}

func (l *Ledger) add(o *Ledger) {
	l.LostDeliveries += o.LostDeliveries
	l.CorruptSkips += o.CorruptSkips
	l.StallSkips += o.StallSkips
	l.ChurnSkips += o.ChurnSkips
	l.Retries += o.Retries
	l.Unserved += o.Unserved
}

// Replan reports the graceful-degradation path: the incremental replan
// engine resizing the live schedule down to the effective channel capacity
// the plan's loss rate leaves usable.
type Replan struct {
	// EffectiveChannels is the degraded capacity fed back into PAMAD.
	EffectiveChannels int
	// Frequencies is the degraded per-group broadcast frequency vector.
	Frequencies delaymodel.Frequencies
	// MajorCycle is the degraded schedule's cycle length in slots.
	MajorCycle int
	// AnalyticDelay is the delay model's D' for the degraded schedule.
	AnalyticDelay float64
	// DeltaKind is how the replan engine classified the resize (a channel
	// change is always "rebuild"; kept observable so a future fast path
	// shows up in reports).
	DeltaKind string
	// ClearedCells/PlacedCells is the engine's cell accounting for the
	// resize: transmissions vacated from the nominal schedule and written
	// into the degraded one.
	ClearedCells int
	PlacedCells  int
}

// Result is a chaos measurement: the standard metrics (Wait doubles as
// the staleness/age-of-information profile — Delay.Max is the worst
// deadline overshoot), the fault ledger, and the replay fingerprint.
type Result struct {
	sim.Metrics
	Ledger
	// Misses is the exact deadline-miss count (MissRatio's numerator).
	Misses int64
	// EffectiveLoss is the plan's observed frame-loss rate.
	EffectiveLoss float64
	// TraceDigest fingerprints every per-request outcome (page, wait bits,
	// attempt count) in shard order: identical seed + config + stream give
	// an identical digest at any worker count.
	TraceDigest uint64
	// Replan is the graceful-degradation schedule, when Config.Replan is
	// set and the plan degrades capacity below nominal.
	Replan *Replan
}

// pageCursor mirrors sim's sorted-stream appearance cursor: identical
// traversal, so the zero-fault run lands on the identical column index.
type pageCursor struct {
	k     int32
	prevU float64
}

// nextSortedIdx is the index-returning twin of sim.nextSorted: the same
// cursor movement over the same columns stops at the same k.
func nextSortedIdx(pc *pageCursor, cols []int32, u float64) int32 {
	if u < pc.prevU {
		pc.k = 0
	}
	pc.prevU = u
	k := pc.k
	for int(k) < len(cols) && float64(cols[k]) < u {
		k++
	}
	pc.k = k
	return k
}

// ceilF mirrors core's dependency-free ceil for non-negative floats (the
// unsorted-stream column search must match core.Analysis.NextAfter).
func ceilF(x float64) float64 {
	if x >= 1<<63 {
		return x
	}
	i := float64(int64(x))
	if i < x {
		return i + 1
	}
	return i
}

// fnvOffset/fnvPrime are the FNV-1a 64-bit constants (same family as the
// perf-report series checksums).
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnv64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// partial accumulates one shard, mirroring sim's partial field-for-field
// and adding the ledger and the shard trace digest.
type partial struct {
	wait, delay       stats.Online
	waitSum, delaySum float64
	misses            int64
	ledger            Ledger
	digest            uint64
	err               error
}

// Run measures stream against the analysed program under the faults cfg
// describes, serially. It is RunParallel at one worker.
func Run(a *core.Analysis, stream workload.Stream, cfg Config) (*Result, error) {
	return RunParallel(a, stream, cfg, 1)
}

// RunParallel shards the stream across workers exactly as
// sim.MeasureParallel does — atomic shard claiming, per-shard partials
// folded in ascending shard order — so the Result (metrics, ledger and
// trace digest alike) is bit-for-bit identical at any worker count, and,
// with an inactive cfg, bit-for-bit identical to sim.MeasureParallel's
// Metrics.
func RunParallel(a *core.Analysis, stream workload.Stream, cfg Config, workers int) (*Result, error) {
	if a == nil {
		return nil, errors.New("chaos: nil analysis")
	}
	if stream == nil {
		return nil, errors.New("chaos: nil stream")
	}
	prog := a.Program()
	plan, err := NewPlan(cfg, prog.Channels(), prog.Length())
	if err != nil {
		return nil, err
	}
	count := stream.Count()
	if count == 0 {
		return finish(&Result{}, plan, prog)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := stream.Shards()
	if workers > shards {
		workers = shards
	}

	gs := prog.GroupSet()
	ix := a.Index()
	pages := gs.Pages()
	Li := prog.Length()
	L := float64(Li)
	sorted := stream.Sorted()
	active := cfg.Active()
	maxCycles := cfg.maxCycles()
	times := make([]float64, pages)
	for i := range times {
		times[i] = float64(gs.TimeOf(core.PageID(i)))
	}
	var chanOf [][]int32
	if active {
		chanOf = ChannelTable(prog, ix)
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
				shard := int(nextShard.Add(1)) - 1
				if shard >= shards {
					return
				}
				p := &partials[shard]
				p.digest = fnvOffset
				cur.Seek(shard)
				for local := 0; cur.Next(&r); local++ {
					if r.Page < 0 || int(r.Page) >= pages {
						p.err = fmt.Errorf("%w: request %d page %d",
							core.ErrPageRange, shard*workload.ShardSize+local, r.Page)
						failed.Store(true)
						return
					}
					if r.Arrival < 0 {
						p.err = fmt.Errorf("%w: request %d arrival %f negative",
							core.ErrSlotRange, shard*workload.ShardSize+local, r.Arrival)
						failed.Store(true)
						return
					}
					u := core.CycleOffset(r.Arrival, Li)
					var wait float64
					attempts := 0
					cols := ix.Columns(r.Page)
					if len(cols) == 0 {
						wait = L
					} else {
						// Locate the first candidate appearance with the exact
						// arithmetic sim.MeasureParallel uses.
						var k int32
						if sorted {
							k = nextSortedIdx(&cursors[r.Page], cols, u)
						} else {
							target := int32(ceilF(u))
							k = int32(sort.Search(len(cols), func(i int) bool { return cols[i] >= target }))
						}
						wraps := 0
						if int(k) == len(cols) {
							k, wraps = 0, 1
						}
						if !active {
							if wraps == 0 {
								wait = float64(cols[k]) - u
							} else {
								wait = float64(cols[0]) + L - u
							}
						} else {
							reqIdx := int64(shard)*workload.ShardSize + int64(local)
							for {
								if wraps >= maxCycles {
									p.ledger.Unserved++
									wait = float64(maxCycles) * L
									break
								}
								abs := wraps*Li + int(cols[k])
								ch := int(chanOf[r.Page][k])
								skipped := true
								switch {
								case plan.Stalled(abs):
									p.ledger.StallSkips++
								case plan.Drop(ch, abs):
									p.ledger.LostDeliveries++
								case plan.Corrupt(ch, abs):
									p.ledger.CorruptSkips++
								case plan.ChurnAway(reqIdx, attempts):
									p.ledger.ChurnSkips++
								default:
									skipped = false
								}
								if skipped {
									attempts++
									p.ledger.Retries++
									if k++; int(k) == len(cols) {
										k, wraps = 0, wraps+1
									}
									continue
								}
								if wraps == 0 {
									wait = float64(cols[k]) - u
								} else {
									wait = float64(cols[k]) + float64(wraps)*L - u
								}
								wait += plan.JitterAt(abs)
								break
							}
						}
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
					d := fnv64(p.digest, uint64(uint32(r.Page)))
					d = fnv64(d, math.Float64bits(wait))
					p.digest = fnv64(d, uint64(attempts))
				}
			}
		}(w)
	}
	wg.Wait()

	for k := range partials {
		if partials[k].err != nil {
			return nil, partials[k].err
		}
	}
	if err, _ := sketchErr.Load().(error); err != nil {
		return nil, err
	}

	var wait, delay stats.Online
	var waitSum, delaySum float64
	var misses int64
	var ledger Ledger
	digest := fnvOffset
	for k := range partials {
		wait.Merge(partials[k].wait)
		delay.Merge(partials[k].delay)
		waitSum += partials[k].waitSum
		delaySum += partials[k].delaySum
		misses += partials[k].misses
		ledger.add(&partials[k].ledger)
		digest = fnv64(digest, partials[k].digest)
	}
	waitSketch, delaySketch := waitSketches[0], delaySketches[0]
	for w := 1; w < workers; w++ {
		if waitSketches[w] == nil {
			continue
		}
		if err := waitSketch.Merge(waitSketches[w]); err != nil {
			return nil, err
		}
		if err := delaySketch.Merge(delaySketches[w]); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Metrics: sim.Metrics{
			Requests:  count,
			AvgWait:   waitSum / float64(count),
			AvgDelay:  delaySum / float64(count),
			MissRatio: float64(misses) / float64(count),
			Wait:      stats.SummaryOf(wait, waitSketch),
			Delay:     stats.SummaryOf(delay, delaySketch),
		},
		Ledger:      ledger,
		Misses:      misses,
		TraceDigest: digest,
	}
	return finish(res, plan, prog)
}

// finish attaches the plan-level quantities (effective loss, degradation
// replan) that do not depend on the measured stream. The degradation path
// runs through the incremental replan engine — the same machinery a live
// broadcaster uses to resize its schedule — so the chaos report additionally
// carries the engine's delta accounting; the derived frequencies, cycle and
// delay are identical to a from-scratch pamad.Build at the degraded budget
// (the engine's differential gate pins that equivalence).
func finish(res *Result, plan *Plan, prog *core.Program) (*Result, error) {
	res.EffectiveLoss = plan.EffectiveLossRate()
	if plan.cfg.Replan {
		eff := plan.EffectiveChannels()
		if eff < prog.Channels() {
			eng, err := replan.New(prog.GroupSet(), prog.Channels())
			if err != nil {
				return nil, fmt.Errorf("chaos: degradation replan at %d channels: %w", eff, err)
			}
			delta, err := eng.SetChannels(eff)
			if err != nil {
				return nil, fmt.Errorf("chaos: degradation replan at %d channels: %w", eff, err)
			}
			res.Replan = &Replan{
				EffectiveChannels: eff,
				Frequencies:       eng.Frequencies(),
				MajorCycle:        eng.Program().Length(),
				AnalyticDelay:     eng.Delay(),
				DeltaKind:         delta.Kind.String(),
				ClearedCells:      delta.ClearedCells,
				PlacedCells:       delta.PlacedCells,
			}
		}
	}
	return res, nil
}

// ChannelTable aligns each page's broadcast channel with its appearance
// columns: the result's [p][k] is the channel carrying ix.Columns(p)[k].
// Pages appear on one channel in SUSC programs but may straddle channels
// under PAMAD placement, so the table is per-appearance. Both the
// measurement engine and the loadgen client harness key their fault
// lookups through it.
func ChannelTable(prog *core.Program, ix *core.AppearanceIndex) [][]int32 {
	pages := prog.GroupSet().Pages()
	chanOf := make([][]int32, pages)
	for p := 0; p < pages; p++ {
		chanOf[p] = make([]int32, len(ix.Columns(core.PageID(p))))
	}
	for ch := 0; ch < prog.Channels(); ch++ {
		for c := 0; c < prog.Length(); c++ {
			p := prog.At(ch, c)
			if p == core.None {
				continue
			}
			cols := ix.Columns(p)
			k := sort.Search(len(cols), func(i int) bool { return cols[i] >= int32(c) })
			if k < len(cols) && cols[k] == int32(c) {
				chanOf[p][k] = int32(ch)
			}
		}
	}
	return chanOf
}
