package chaos

import (
	"errors"
	"fmt"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/replan"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
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

// Add accumulates o into l. Every field is an integer count, so ledgers
// add exactly in any order.
func (l *Ledger) Add(o *Ledger) {
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
	// attempt count), chained word by word through sim.Mix within a shard
	// and then across shards in shard order: identical seed + config +
	// stream give an identical digest at any worker count. loadgen's
	// results carry the same digest for the same run.
	TraceDigest uint64
	// Replan is the graceful-degradation schedule, when Config.Replan is
	// set and the plan degrades capacity below nominal.
	Replan *Replan
}

// Run measures stream against the analysed program under the faults cfg
// describes, serially. It is RunParallel at one worker.
func Run(a *core.Analysis, stream workload.Stream, cfg Config) (*Result, error) {
	return RunParallel(a, stream, cfg, 1)
}

// RunParallel shards the stream across workers on sim.MeasureParallel's
// fold kernel (sim.FoldShards), so the Result (metrics, ledger and trace
// digest alike) is bit-for-bit identical at any worker count, and, with an
// inactive cfg, bit-for-bit identical to sim.MeasureParallel's Metrics.
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
	res := &Result{}
	count := stream.Count()
	if count == 0 {
		return res, Finish(res, plan, prog)
	}

	ix := a.Index()
	pages := prog.GroupSet().Pages()
	Li := prog.Length()
	L := float64(Li)
	active := cfg.Active()
	maxCycles := cfg.CycleBound()
	times := prog.GroupSet().ExpectedTimes()
	var chanOf [][]int32
	if active {
		chanOf = ChannelTable(prog, ix)
	}

	shards := stream.Shards()
	ledgers := make([]Ledger, shards)
	total, err := sim.FoldShards(workers, shards, sim.WaitLayout(L), func() sim.ShardFunc {
		cur := stream.NewCursor()
		cc := ix.NewCursor(stream.Sorted())
		var r workload.Request
		return func(shard int, f sim.Fold) (sim.Fold, error) {
			lg := &ledgers[shard]
			cur.Seek(shard)
			for local := 0; cur.Next(&r); local++ {
				if r.Page < 0 || int(r.Page) >= pages || r.Arrival < 0 {
					return f, sim.RequestError(r, shard*workload.ShardSize+local, pages)
				}
				u := core.CycleOffset(r.Arrival, Li)
				attempts := 0
				// The first candidate appearance is the one
				// sim.MeasureParallel serves: same cursor, same index.
				cols, k := cc.First(r.Page, u)
				wait := core.WaitAt(cols, k, u, L)
				if active && len(cols) != 0 {
					wraps := 0
					if int(k) == len(cols) {
						k, wraps = 0, 1
					}
					reqIdx := int64(shard)*workload.ShardSize + int64(local)
					for {
						if wraps >= maxCycles {
							lg.Unserved++
							wait = float64(maxCycles) * L
							break
						}
						abs := wraps*Li + int(cols[k])
						ch := int(chanOf[r.Page][k])
						skipped := true
						switch {
						case plan.Stalled(abs):
							lg.StallSkips++
						case plan.Drop(ch, abs):
							lg.LostDeliveries++
						case plan.Corrupt(ch, abs):
							lg.CorruptSkips++
						case plan.ChurnAway(reqIdx, attempts):
							lg.ChurnSkips++
						default:
							skipped = false
						}
						if skipped {
							attempts++
							lg.Retries++
							if k++; int(k) == len(cols) {
								k, wraps = 0, wraps+1
							}
							continue
						}
						// At wraps 0 the added 0*L is an exact +0.0.
						wait = float64(cols[k]) + float64(wraps)*L - u + plan.JitterAt(abs)
						break
					}
				}
				f.Add(wait, f.Delay(wait, times[r.Page]))
				f.Trace(r.Page, wait, uint64(attempts))
			}
			return f, nil
		}
	})
	if err != nil {
		return nil, err
	}
	for k := range ledgers {
		res.Ledger.Add(&ledgers[k])
	}
	res.Metrics = total.Metrics(count)
	res.Misses = total.N
	res.TraceDigest = total.Digest
	return res, Finish(res, plan, prog)
}

// Finish attaches to res the plan-level quantities (effective loss,
// degradation replan) that do not depend on the measured stream. The
// loadgen harness finishes its results through it too. The degradation path
// runs through the incremental replan engine — the same machinery a live
// broadcaster uses to resize its schedule — so the chaos report additionally
// carries the engine's delta accounting; the derived frequencies, cycle and
// delay are identical to a from-scratch pamad.Build at the degraded budget
// (the engine's differential gate pins that equivalence).
func Finish(res *Result, plan *Plan, prog *core.Program) error {
	res.EffectiveLoss = plan.EffectiveLossRate()
	if plan.cfg.Replan {
		eff := effectiveChannels(plan.channels, res.EffectiveLoss)
		if eff < prog.Channels() {
			eng, err := replan.New(prog.GroupSet(), prog.Channels())
			if err != nil {
				return fmt.Errorf("chaos: degradation replan at %d channels: %w", eff, err)
			}
			delta, err := eng.SetChannels(eff)
			if err != nil {
				return fmt.Errorf("chaos: degradation replan at %d channels: %w", eff, err)
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
	return nil
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
	search := ix.NewCursor(false)
	for ch := 0; ch < prog.Channels(); ch++ {
		for c := 0; c < prog.Length(); c++ {
			p := prog.At(ch, c)
			if p == core.None {
				continue
			}
			if cols, k := search.First(p, float64(c)); int(k) < len(cols) && cols[k] == int32(c) {
				chanOf[p][k] = int32(ch)
			}
		}
	}
	return chanOf
}
