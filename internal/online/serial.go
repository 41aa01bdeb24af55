package online

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"tcsa/internal/core"
	"tcsa/internal/sim"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// RunSerial is the retained reference implementation of Run: one
// goroutine, explicit per-page waiting lists instead of incremental
// aggregates, policy scores recomputed from scratch at every decision, and
// flow times taken directly from the clearing instants of its own event
// replay rather than reconstructed from the airing log. The differential
// and fuzz suites pin Run against it bit for bit — every float, every
// digest — at any worker count.
func RunSerial(prog *core.Program, stream workload.Stream, cfg Config) (*Result, error) {
	if prog == nil {
		return nil, errors.New("online: nil program")
	}
	if stream == nil {
		return nil, errors.New("online: nil stream")
	}
	if err := cfg.Split.validate(); err != nil {
		return nil, err
	}
	if cfg.Policy < LWF || cfg.Policy > FCFS {
		return nil, fmt.Errorf("online: unknown policy %d", int(cfg.Policy))
	}

	gs := prog.GroupSet()
	pages := gs.Pages()
	n := stream.Count()

	// Materialise the stream in its original order.
	type sreq struct {
		page core.PageID
		arr  float64
		idx  int
	}
	reqs := make([]sreq, 0, n)
	cur := stream.NewCursor()
	var r workload.Request
	for k := 0; k < stream.Shards(); k++ {
		cur.Seek(k)
		for cur.Next(&r) {
			i := len(reqs)
			if r.Page < 0 || int(r.Page) >= pages {
				return nil, fmt.Errorf("%w: request %d page %d", core.ErrPageRange, i, r.Page)
			}
			if r.Arrival < 0 || math.IsInf(r.Arrival, 0) || math.IsNaN(r.Arrival) {
				return nil, fmt.Errorf("%w: request %d arrival %f", core.ErrSlotRange, i, r.Arrival)
			}
			reqs = append(reqs, sreq{page: r.Page, arr: r.Arrival, idx: i})
		}
	}

	// Admission order: by admission slot, stream order inside a slot — the
	// same order the engine's stable counting sort produces, reached here
	// through a stable comparison sort instead.
	order := make([]sreq, len(reqs))
	copy(order, reqs)
	sort.SliceStable(order, func(i, j int) bool {
		return bucketOf(order[i].arr) < bucketOf(order[j].arr)
	})
	maxBucket := -1
	if len(order) > 0 {
		maxBucket = bucketOf(order[len(order)-1].arr)
	}

	L := prog.Length()
	pushRows := prog.Channels()
	onlineFrom, onlineTo := pushRows, pushRows
	switch cfg.Split.Mode {
	case SplitReserved:
		onlineTo = pushRows + cfg.Split.OnlineChannels
	case SplitPureOnline:
		onlineFrom, onlineTo = 0, pushRows
		pushRows = 0
	case SplitSteal:
		// No static online rows: steals are decided per slot below.
	}

	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		slack := float64(maxBucket) + 2*float64(L) + float64(n) + float64(pages) + 16
		if cfg.Split.Mode == SplitSteal {
			t := cfg.Split.StealThreshold
			if t > 1<<20 {
				t = 1 << 20
			}
			slack += t
		}
		maxSlots = int(slack)
	}

	// waiting[p] is page p's live request list, insertion-ordered.
	waiting := make([][]sreq, pages)
	times := make([]float64, pages)
	for i := range times {
		times[i] = float64(gs.TimeOf(core.PageID(i)))
	}

	flows := make([]float64, n)
	servedOn := make([]bool, n)
	var airings []Airing
	pending := n
	next := 0
	stolen := 0
	horizon := 0

	// clear serves page p's whole waiting list at slot s.
	clear := func(p core.PageID, s int, online bool) {
		for _, q := range waiting[p] {
			flows[q.idx] = float64(s) - q.arr
			servedOn[q.idx] = online
			pending--
		}
		waiting[p] = waiting[p][:0]
	}
	// anyWaiting scans every page — no shortcut state to go wrong.
	anyWaiting := func() bool {
		for p := 0; p < pages; p++ {
			if len(waiting[p]) > 0 {
				return true
			}
		}
		return false
	}
	oldest := func() float64 {
		old := math.Inf(1)
		for p := 0; p < pages; p++ {
			for _, q := range waiting[p] {
				if q.arr < old {
					old = q.arr
				}
			}
		}
		return old
	}
	// pick scans pages in ascending ID order, recomputing each score from
	// the list. The (score, page ID) tie-break is a strict total order, so
	// this lands on the same page as the engine's aggregate-based scan.
	pick := func(now float64) (core.PageID, bool) {
		best := core.None
		var bv float64
		for p := 0; p < pages; p++ {
			w := waiting[p]
			if len(w) == 0 {
				continue
			}
			var v float64
			switch cfg.Policy {
			case LWF:
				// Same formula and accumulation order as the engine:
				// count*now minus the left-to-right arrival sum.
				var sum float64
				for _, q := range w {
					sum += q.arr
				}
				v = float64(len(w))*now - sum
			case MRF:
				v = float64(len(w))
			case EDF:
				v = math.Inf(1)
				for _, q := range w {
					if dl := q.arr + times[p]; dl < v {
						v = dl
					}
				}
				v = -v // minimise
			default: // FCFS
				v = math.Inf(1)
				for _, q := range w {
					if q.arr < v {
						v = q.arr
					}
				}
				v = -v // minimise
			}
			if best == core.None || v > bv {
				best, bv = core.PageID(p), v
			}
		}
		return best, best != core.None
	}

	for s := 0; ; s++ {
		if pending == 0 && next >= len(order) {
			break
		}
		if s >= maxSlots {
			return nil, fmt.Errorf("online: %d requests still pending at slot bound %d (split %s cannot serve them?)",
				pending, maxSlots, cfg.Split)
		}
		for next < len(order) && bucketOf(order[next].arr) == s {
			q := order[next]
			waiting[q.page] = append(waiting[q.page], q)
			next++
		}
		if !anyWaiting() {
			if next >= len(order) {
				break
			}
			// Fast-forward to the next admission slot (the engine's jump).
			if nb := bucketOf(order[next].arr); nb > s+1 {
				s = nb - 1
			}
			continue
		}
		horizon = s + 1
		now := float64(s)
		for ch := 0; ch < pushRows; ch++ {
			if page := prog.AtAbs(ch, s); page != core.None && len(waiting[page]) > 0 {
				clear(page, s, false)
			}
		}
		for ch := onlineFrom; ch < onlineTo; ch++ {
			page, ok := pick(now)
			if !ok {
				break
			}
			airings = append(airings, Airing{Slot: s, Channel: ch, Page: page})
			clear(page, s, true)
		}
		if cfg.Split.Mode == SplitSteal {
			col := prog.Column(s)
			for ch := 0; ch < pushRows; ch++ {
				if prog.At(ch, col) != core.None {
					continue
				}
				if now-oldest() < cfg.Split.StealThreshold {
					break
				}
				page, ok := pick(now)
				if !ok {
					break
				}
				airings = append(airings, Airing{Slot: s, Channel: ch, Page: page})
				stolen++
				clear(page, s, true)
			}
		}
	}

	pageOf := make([]core.PageID, n)
	for i := range reqs {
		pageOf[i] = reqs[i].page
	}
	res, err := summarizeSerial(pageOf, flows, servedOn, times, float64(L))
	if err != nil {
		return nil, err
	}
	res.Requests = n
	res.OnlineAirings = len(airings)
	res.StolenSlots = stolen
	res.HorizonSlots = horizon
	res.Airings = airings
	if cfg.RecordFlows {
		res.Flows = flows
		res.ServedOnline = servedOn
	}
	return res, nil
}

// summarizeSerial folds per-request outcomes exactly the way the parallel
// measurement pass does — per-shard left-to-right sums and Welford moments
// merged in ascending shard order, one sketch, per-shard digests chained
// in shard order — so a bit-identical Result is the expected outcome, not a
// lucky one.
func summarizeSerial(pageOf []core.PageID, flows []float64, servedOn []bool, times []float64, L float64) (*Result, error) {
	n := len(flows)
	res := &Result{}
	if n == 0 {
		return res, nil
	}
	sk, err := flowLayout(L).New()
	if err != nil {
		return nil, err
	}
	fs, ds := sk.A, sk.B
	var flow, df stats.Online
	var flowSum, dfSum float64
	onlineServed := 0
	digest := sim.DigestOffset
	for start := 0; start < n; start += workload.ShardSize {
		end := start + workload.ShardSize
		if end > n {
			end = n
		}
		var cflow, cdf stats.Online
		var cflowSum, cdfSum float64
		d := sim.DigestOffset
		for i := start; i < end; i++ {
			f := flows[i]
			v := f / times[pageOf[i]]
			if v < 1 {
				v = 1
			}
			cflow.Add(f)
			cdf.Add(v)
			cflowSum += f
			cdfSum += v
			fs.Add(f)
			ds.Add(v)
			d = sim.Mix(d, uint64(uint32(pageOf[i])))
			d = sim.Mix(d, math.Float64bits(f))
			served := uint64(0)
			if servedOn[i] {
				served = 1
				onlineServed++
			}
			d = sim.Mix(d, served)
		}
		flow.Merge(cflow)
		df.Merge(cdf)
		flowSum += cflowSum
		dfSum += cdfSum
		digest = sim.Mix(digest, d)
	}
	res.OnlineServed = onlineServed
	res.PushServed = n - onlineServed
	res.AvgFlow = flowSum / float64(n)
	res.MaxFlow = flow.Max()
	res.AvgDelayFactor = dfSum / float64(n)
	res.MaxDelayFactor = df.Max()
	res.Flow = stats.SummaryOf(flow, fs)
	res.DelayFactor = stats.SummaryOf(df, ds)
	res.TraceDigest = digest
	return res, nil
}
