package online

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tcsa/internal/core"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// airIndex is the online airing log in CSR form: for every page, its
// ascending absolute airing slots. A page airs online at most once per slot
// (the pick clears it before the next channel chooses), and the log is
// appended in slot order, so the fill below is already sorted.
type airIndex struct {
	offs  []int32
	slots []int64
}

func buildAirIndex(pages int, airings []Airing) *airIndex {
	ix := &airIndex{offs: make([]int32, pages+1)}
	for _, a := range airings {
		ix.offs[a.Page+1]++
	}
	for i := 0; i < pages; i++ {
		ix.offs[i+1] += ix.offs[i]
	}
	ix.slots = make([]int64, len(airings))
	fill := make([]int32, pages)
	copy(fill, ix.offs[:pages])
	for _, a := range airings {
		ix.slots[fill[a.Page]] = int64(a.Slot)
		fill[a.Page]++
	}
	return ix
}

// nextOnline is the first online airing of page at or after arrival a, as
// a flow time (float64(slot) - a), or +Inf when the page never airs online
// again. Airings never wrap: the log is a finite timeline, not a cycle.
func (ix *airIndex) nextOnline(page core.PageID, a float64) float64 {
	slots := ix.slots[ix.offs[page]:ix.offs[page+1]]
	if len(slots) == 0 {
		return math.Inf(1)
	}
	target := int64(ceilF(a))
	k := sort.Search(len(slots), func(i int) bool { return slots[i] >= target })
	if k == len(slots) {
		return math.Inf(1)
	}
	return float64(slots[k]) - a
}

// onlineCursor walks one page's airing slots for non-decreasing arrivals,
// the airIndex analogue of sim's pageCursor: identical arithmetic to
// nextOnline, amortised O(1) per request. Online slots are absolute (no
// cycle wrap), so the cursor only ever advances within a shard.
type onlineCursor struct {
	k     int32
	prevA float64
}

func (ix *airIndex) nextSorted(oc *onlineCursor, page core.PageID, a float64) float64 {
	if a < oc.prevA {
		oc.k = 0 // new shard restarted the arrival clock
	}
	oc.prevA = a
	slots := ix.slots[ix.offs[page]:ix.offs[page+1]]
	k := oc.k
	for int(k) < len(slots) && float64(slots[k]) < a {
		k++
	}
	oc.k = k
	if int(k) == len(slots) {
		return math.Inf(1)
	}
	return float64(slots[k]) - a
}

// mpartial is the per-shard accumulation state of the measurement pass,
// mirroring sim's partial: disjoint shards written without synchronisation,
// folded afterwards in ascending shard order so every float and the digest
// are independent of the worker count.
type mpartial struct {
	flow, df       stats.Online
	flowSum, dfSum float64
	onlineServed   int64
	digest         uint64
	err            error
}

// measure computes every request's flow against the fixed push+online
// timeline: flow = min(first push appearance >= arrival, first online
// airing >= arrival). The decision pass guarantees the two tiers never air
// the same page in the same slot, so the min is never a tie and the serving
// tier is unambiguous; it also guarantees the min reproduces the decision
// pass's clearing instants (a waiting request is cleared by whichever tier
// airs its page first).
func measure(prog *core.Program, ad *admitted, sorted bool, airings []Airing, cfg Config) (*Result, error) {
	count := len(ad.page)
	gs := prog.GroupSet()
	pages := gs.Pages()
	res := &Result{Requests: count}
	if count == 0 {
		return res, nil
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := (count + workload.ShardSize - 1) / workload.ShardSize
	if workers > shards {
		workers = shards
	}

	a := core.Analyze(prog)
	ix := a.Index()
	air := buildAirIndex(pages, airings)
	length := prog.Length()
	L := float64(length)
	pure := cfg.Split.Mode == SplitPureOnline
	times := make([]float64, pages)
	for i := range times {
		times[i] = float64(gs.TimeOf(core.PageID(i)))
	}

	var flows []float64
	var servedOn []bool
	if cfg.RecordFlows {
		flows = make([]float64, count)
		servedOn = make([]bool, count)
	}

	partials := make([]mpartial, shards)
	flowSketches := make([]*stats.Sketch, workers)
	dfSketches := make([]*stats.Sketch, workers)

	var nextShard atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	var sketchErr atomic.Value
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(widx int) {
			defer wg.Done()
			fs, err1 := stats.NewSketch(L/(1<<20), flowSketchSpan*L, sketchQuantileAccuracy)
			ds, err2 := stats.NewSketch(dfSketchLo, dfSketchHi, sketchQuantileAccuracy)
			if err1 != nil || err2 != nil {
				sketchErr.Store(errors.Join(err1, err2))
				failed.Store(true)
				return
			}
			flowSketches[widx] = fs
			dfSketches[widx] = ds
			var pushCursors []pageCursor
			var onCursors []onlineCursor
			if sorted {
				pushCursors = make([]pageCursor, pages)
				onCursors = make([]onlineCursor, pages)
			}
			for {
				if failed.Load() {
					return
				}
				k := int(nextShard.Add(1)) - 1
				if k >= shards {
					return
				}
				p := &partials[k]
				d := fnvOffset
				base := k * workload.ShardSize
				end := min(base+workload.ShardSize, count)
				for i := base; i < end; i++ {
					page, arr := core.PageID(ad.page[i]), ad.arr[i]
					flowPush := math.Inf(1)
					if !pure {
						// Identical arithmetic to the serial reference's
						// float64(serveSlot) - arrival: the cycle offset is
						// exact, so both subtractions round the same real
						// number.
						if cols := ix.Columns(page); len(cols) != 0 {
							u := core.CycleOffset(arr, length)
							if sorted {
								flowPush = nextSorted(&pushCursors[page], cols, u, L)
							} else {
								flowPush = a.NextAfter(page, u)
							}
						}
					}
					var flowOn float64
					if sorted {
						flowOn = air.nextSorted(&onCursors[page], page, arr)
					} else {
						flowOn = air.nextOnline(page, arr)
					}
					flow := flowPush
					online := false
					if flowOn < flowPush {
						flow = flowOn
						online = true
						p.onlineServed++
					}
					if math.IsInf(flow, 1) {
						p.err = fmt.Errorf("online: request %d/%d page %d never served (internal inconsistency)",
							k, i-base, page)
						failed.Store(true)
						return
					}
					df := flow / times[page]
					if df < 1 {
						df = 1
					}
					p.flow.Add(flow)
					p.df.Add(df)
					p.flowSum += flow
					p.dfSum += df
					fs.Add(flow)
					ds.Add(df)
					d = fnv64(d, uint64(uint32(page)))
					d = fnv64(d, math.Float64bits(flow))
					served := uint64(0)
					if online {
						served = 1
					}
					d = fnv64(d, served)
					if cfg.RecordFlows {
						flows[i] = flow
						servedOn[i] = online
					}
				}
				p.digest = d
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

	// Fold partials in shard order (worker-independent), sketches in worker
	// order (integer buckets, so any order yields the same quantiles).
	var flow, df stats.Online
	var flowSum, dfSum float64
	var onlineServed int64
	digest := fnvOffset
	for k := range partials {
		flow.Merge(partials[k].flow)
		df.Merge(partials[k].df)
		flowSum += partials[k].flowSum
		dfSum += partials[k].dfSum
		onlineServed += partials[k].onlineServed
		digest = fnv64(digest, partials[k].digest)
	}
	flowSketch, dfSketch := flowSketches[0], dfSketches[0]
	for w := 1; w < workers; w++ {
		if flowSketches[w] == nil {
			continue // worker exited before claiming a shard
		}
		if err := flowSketch.Merge(flowSketches[w]); err != nil {
			return nil, err
		}
		if err := dfSketch.Merge(dfSketches[w]); err != nil {
			return nil, err
		}
	}

	res.OnlineServed = int(onlineServed)
	res.PushServed = count - int(onlineServed)
	res.AvgFlow = flowSum / float64(count)
	res.MaxFlow = flow.Max()
	res.AvgDelayFactor = dfSum / float64(count)
	res.MaxDelayFactor = df.Max()
	res.Flow = stats.SummaryOf(flow, flowSketch)
	res.DelayFactor = stats.SummaryOf(df, dfSketch)
	res.TraceDigest = digest
	res.Flows = flows
	res.ServedOnline = servedOn
	return res, nil
}

// pageCursor + nextSorted mirror sim's sorted-shard column walk: identical
// arithmetic to Analysis.NextAfter (identical bits), amortised O(1).
type pageCursor struct {
	k     int32
	prevU float64
}

func nextSorted(pc *pageCursor, cols []int32, u, L float64) float64 {
	if u < pc.prevU {
		pc.k = 0 // arrival wrapped to a new cycle (or a new shard began)
	}
	pc.prevU = u
	k := pc.k
	for int(k) < len(cols) && float64(cols[k]) < u {
		k++
	}
	pc.k = k
	if int(k) == len(cols) {
		return float64(cols[0]) + L - u
	}
	return float64(cols[k]) - u
}
