package online

import (
	"fmt"
	"math"
	"sort"

	"tcsa/internal/core"
	"tcsa/internal/sim"
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

// onlineCursor is one page's walk state over its airing slots, the
// airIndex analogue of core.ColumnCursor's: amortised O(1) per request for
// non-decreasing arrivals. Online slots are absolute (no cycle wrap), so
// the walk restarts only when a new shard restarts the arrival clock.
type onlineCursor struct {
	k     int32
	prevA float64
}

// nextOnline is the first online airing of page at or after arrival a, as
// a flow time (float64(slot) - a), or +Inf when the page never airs online
// again. Airings never wrap: the log is a finite timeline, not a cycle.
// With per-page cursors it walks, else it binary-searches; both stop at
// the same slot.
func (ix *airIndex) nextOnline(cursors []onlineCursor, page core.PageID, a float64) float64 {
	slots := ix.slots[ix.offs[page]:ix.offs[page+1]]
	var k int
	if cursors == nil {
		k = sort.Search(len(slots), func(i int) bool { return float64(slots[i]) >= a })
	} else {
		oc := &cursors[page]
		if a < oc.prevA {
			oc.k = 0 // new shard restarted the arrival clock
		}
		oc.prevA = a
		k = int(oc.k)
		for k < len(slots) && float64(slots[k]) < a {
			k++
		}
		oc.k = int32(k)
	}
	if k == len(slots) {
		return math.Inf(1)
	}
	return float64(slots[k]) - a
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

	a := core.Analyze(prog)
	air := buildAirIndex(pages, airings)
	length := prog.Length()
	L := float64(length)
	pure := cfg.Split.Mode == SplitPureOnline
	times := gs.ExpectedTimes()
	if cfg.RecordFlows {
		res.Flows = make([]float64, count)
		res.ServedOnline = make([]bool, count)
	}

	shards := (count + workload.ShardSize - 1) / workload.ShardSize
	total, err := sim.FoldShards(cfg.Workers, shards, flowLayout(L), func() sim.ShardFunc {
		push := a.Index().NewCursor(sorted)
		var onCursors []onlineCursor
		if sorted {
			onCursors = make([]onlineCursor, pages)
		}
		return func(k int, f sim.Fold) (sim.Fold, error) {
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
					u := core.CycleOffset(arr, length)
					if cols, j := push.First(page, u); len(cols) != 0 {
						flowPush = core.WaitAt(cols, j, u, L)
					}
				}
				flowOn := air.nextOnline(onCursors, page, arr)
				flow := flowPush
				served := uint64(0)
				if flowOn < flowPush {
					flow = flowOn
					served = 1
					f.N++
				}
				if math.IsInf(flow, 1) {
					return f, fmt.Errorf("online: request %d/%d page %d never served (internal inconsistency)",
						k, i-base, page)
				}
				df := flow / times[page]
				if df < 1 {
					df = 1
				}
				f.Add(flow, df)
				f.Trace(page, flow, served)
				if cfg.RecordFlows {
					res.Flows[i] = flow
					res.ServedOnline[i] = served == 1
				}
			}
			return f, nil
		}
	})
	if err != nil {
		return nil, err
	}

	res.OnlineServed = int(total.N)
	res.PushServed = count - int(total.N)
	res.AvgFlow = total.SumA / float64(count)
	res.MaxFlow = total.A.Max()
	res.AvgDelayFactor = total.SumB / float64(count)
	res.MaxDelayFactor = total.B.Max()
	res.Flow, res.DelayFactor = total.Summaries()
	res.TraceDigest = total.Digest
	return res, nil
}
