package online

import (
	"errors"
	"fmt"
	"math"

	"tcsa/internal/core"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// admitted is the request stream drawn once, in stream order, plus its
// admission order: request i becomes admissible at the start of slot
// ceil(arr[i]), and within a bucket requests keep their stream order (the
// counting sort is stable), so every float accumulation the policies
// perform has one fixed order regardless of how the stream was generated
// or sharded. Shard k of the stream is [k·ShardSize, (k+1)·ShardSize) of
// page and arr.
type admitted struct {
	page  []int32   // page per request, stream order
	arr   []float64 // arrival per request, stream order
	order []int32   // request indices, bucket-major, stream order inside
	// start[b] .. start[b+1] index the order entries of bucket b; len max+2.
	start []int32
	max   int // largest non-empty bucket, -1 when the stream is empty
}

// bucketOf is the admission slot of arrival a: the first integer slot at
// which an airing can serve it (float64(s) >= a).
func bucketOf(a float64) int {
	return int(core.Ceil(a))
}

// admit draws the stream once and counting-sorts it by admission bucket,
// stable in stream order. The draw runs on a sim.ShardPool of workers:
// drawJob.Shard fills shard k's range of page and arr, so the error Run
// reports, the lowest failing shard's, is the one a serial walk meets
// first. Every shard must hold exactly its share of Count, since the
// measurement pass reads shards back by position. The counting sort is
// serial and recomputes bucketOf: keeping each request's bucket from the
// draw would cost 4 bytes a request.
func admit(stream workload.Stream, pages, workers int) (*admitted, error) {
	n := stream.Count()
	shards := (n + workload.ShardSize - 1) / workload.ShardSize
	if stream.Shards() != shards {
		return nil, fmt.Errorf("online: stream of %d requests has %d shards, want %d", n, stream.Shards(), shards)
	}
	ad := &admitted{
		page: make([]int32, n),
		arr:  make([]float64, n),
		max:  -1,
	}
	j := &drawJob{
		stream: stream,
		pages:  pages,
		ad:     ad,
		curs:   make([]workload.Cursor, sim.Workers(workers, shards)),
		maxes:  make([]int, shards),
	}
	if err := j.Run(workers, shards, j); err != nil {
		return nil, err
	}
	for _, mx := range j.maxes {
		ad.max = max(ad.max, mx)
	}
	ad.start = make([]int32, ad.max+2)
	for _, a := range ad.arr {
		ad.start[bucketOf(a)+1]++
	}
	for b := 1; b < len(ad.start); b++ {
		ad.start[b] += ad.start[b-1]
	}
	ad.order = make([]int32, n)
	for i, a := range ad.arr {
		b := bucketOf(a)
		ad.order[ad.start[b]] = int32(i)
		ad.start[b]++
	}
	// Filling advanced start[b] to the end of bucket b, the start of b+1.
	copy(ad.start[1:], ad.start[:ad.max+1])
	ad.start[0] = 0
	return ad, nil
}

// drawJob draws the stream into an admitted's page and arr arrays, one
// cursor per worker.
type drawJob struct {
	sim.ShardPool
	stream workload.Stream
	pages  int
	ad     *admitted
	curs   []workload.Cursor
	maxes  []int // largest admission bucket per shard, -1 when empty
}

func (j *drawJob) Start(w int) error {
	j.curs[w] = j.stream.NewCursor()
	return nil
}

// Shard draws shard k into [k·ShardSize, …) of page and arr, validating
// as sim.MeasureParallel does (pages in range, arrivals non-negative and
// finite) and finding the shard's largest admission bucket.
func (j *drawJob) Shard(w, k int) error {
	base := k * workload.ShardSize
	size := min(workload.ShardSize, len(j.ad.page)-base)
	page, arr := j.ad.page[base:base+size], j.ad.arr[base:base+size]
	cur := j.curs[w]
	cur.Seek(k)
	mx := -1
	var r workload.Request
	local := 0
	for ; cur.Next(&r); local++ {
		if local == size {
			return fmt.Errorf("online: stream shard %d yields more than its %d requests", k, size)
		}
		if r.Page < 0 || int(r.Page) >= j.pages {
			return fmt.Errorf("%w: request %d page %d", core.ErrPageRange, base+local, r.Page)
		}
		if r.Arrival < 0 || math.IsInf(r.Arrival, 0) || math.IsNaN(r.Arrival) {
			return fmt.Errorf("%w: request %d arrival %f", core.ErrSlotRange, base+local, r.Arrival)
		}
		if b := bucketOf(r.Arrival); b > mx {
			mx = b
		}
		page[local] = int32(r.Page)
		arr[local] = r.Arrival
	}
	if local != size {
		return fmt.Errorf("online: stream shard %d yields %d requests, want %d", k, local, size)
	}
	j.maxes[k] = mx
	return nil
}

// queue is the live per-page request queue of the decision pass. Per-page
// aggregates are exactly what the four policies need, maintained
// incrementally; the active list is swap-removed (order is irrelevant —
// every policy uses the strict (score, page ID) total order, so the argmin/
// argmax is a pure function of the aggregate values).
type queue struct {
	count  []int64   // waiting requests per page
	sumArr []float64 // sum of waiting arrivals (LWF), accumulated in admission order
	minArr []float64 // oldest waiting arrival (FCFS, steal threshold)
	minDL  []float64 // earliest waiting deadline arrival+t_page (EDF)
	pos    []int32   // index into active, -1 when page has no waiters
	active []core.PageID
	times  []float64 // per-page expected time (deadline window)
}

func newQueue(gs *core.GroupSet) *queue {
	n := gs.Pages()
	q := &queue{
		count:  make([]int64, n),
		sumArr: make([]float64, n),
		minArr: make([]float64, n),
		minDL:  make([]float64, n),
		pos:    make([]int32, n),
		times:  gs.ExpectedTimes(),
	}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

func (q *queue) admit(page int32, arr float64) {
	p := page
	if q.pos[p] < 0 {
		q.pos[p] = int32(len(q.active))
		q.active = append(q.active, core.PageID(p))
		q.count[p] = 1
		q.sumArr[p] = arr
		q.minArr[p] = arr
		q.minDL[p] = arr + q.times[p]
		return
	}
	q.count[p]++
	q.sumArr[p] += arr
	if arr < q.minArr[p] {
		q.minArr[p] = arr
	}
	if dl := arr + q.times[p]; dl < q.minDL[p] {
		q.minDL[p] = dl
	}
}

// clear removes every waiter of page and returns how many there were.
func (q *queue) clear(page core.PageID) int64 {
	n := q.count[page]
	q.count[page] = 0
	q.sumArr[page] = 0
	i := q.pos[page]
	last := len(q.active) - 1
	moved := q.active[last]
	q.active[i] = moved
	q.pos[moved] = i
	q.active = q.active[:last]
	q.pos[page] = -1
	return n
}

// oldest returns the oldest waiting arrival across all pages (+Inf when
// the queue is empty): the steal-threshold trigger.
func (q *queue) oldest() float64 {
	old := math.Inf(1)
	for _, p := range q.active {
		if q.minArr[p] < old {
			old = q.minArr[p]
		}
	}
	return old
}

// pick returns the page the policy airs at instant now, or (None, false)
// when no page is waiting. Ties break toward the smaller page ID, making
// the choice a pure function of the aggregates — both the engine (swap-
// removed active order) and the serial reference (ascending page scan)
// land on the same page.
func (q *queue) pick(policy Policy, now float64) (core.PageID, bool) {
	if len(q.active) == 0 {
		return core.None, false
	}
	best := q.active[0]
	switch policy {
	case LWF:
		// Aggregate waiting time of page p is count*now - sum(arrivals):
		// one multiply keeps the float arithmetic identical no matter when
		// the score is evaluated.
		bv := float64(q.count[best])*now - q.sumArr[best]
		for _, p := range q.active[1:] {
			v := float64(q.count[p])*now - q.sumArr[p]
			if v > bv || (v == bv && p < best) {
				best, bv = p, v
			}
		}
	case MRF:
		bv := q.count[best]
		for _, p := range q.active[1:] {
			v := q.count[p]
			if v > bv || (v == bv && p < best) {
				best, bv = p, v
			}
		}
	case EDF:
		bv := q.minDL[best]
		for _, p := range q.active[1:] {
			v := q.minDL[p]
			if v < bv || (v == bv && p < best) {
				best, bv = p, v
			}
		}
	default: // FCFS
		bv := q.minArr[best]
		for _, p := range q.active[1:] {
			v := q.minArr[p]
			if v < bv || (v == bv && p < best) {
				best, bv = p, v
			}
		}
	}
	return best, true
}

// schedule is the decision pass: it replays the slot clock, admits each
// arrival bucket, lets scheduled push airings clear their waiters first
// (push owns its grid under every split — filled cells are never
// preempted), then fills the online-owned channels from the policy. The
// airing log it returns fixes the complete timeline; measurement is a
// separate, shardable pass over that log.
func schedule(prog *core.Program, ad *admitted, cfg Config) ([]Airing, int, int, error) {
	L := prog.Length()
	pushRows := prog.Channels()
	onlineFrom, onlineTo := pushRows, pushRows // online channel range per slot
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
		// Safety net, not a tight bound: last admission plus full drain
		// slack. Reserved/pure modes clear at least one waiting page per
		// slot, so pages+2L covers them; steal mode additionally waits out
		// its threshold (capped — a practically-infinite threshold should
		// fail fast, not crawl).
		slack := float64(ad.max) + 2*float64(L) + float64(len(ad.page)) + float64(prog.GroupSet().Pages()) + 16
		if cfg.Split.Mode == SplitSteal {
			t := cfg.Split.StealThreshold
			if t > 1<<20 {
				t = 1 << 20
			}
			slack += t
		}
		maxSlots = int(slack)
	}

	q := newQueue(prog.GroupSet())
	pending := len(ad.page)
	nextAdmit := 0
	airings := make([]Airing, 0, airingBound(prog, ad, onlineTo-onlineFrom, cfg.Split.Mode == SplitSteal))
	stolen := 0
	horizon := 0

	for s := 0; ; s++ {
		if pending == 0 && nextAdmit >= len(ad.page) {
			break
		}
		if s >= maxSlots {
			return nil, 0, 0, fmt.Errorf("online: %d requests still pending at slot bound %d (split %s cannot serve them?)",
				pending, maxSlots, cfg.Split)
		}
		// Admit this slot's arrival bucket.
		if s <= ad.max {
			for _, j := range ad.order[ad.start[s]:ad.start[s+1]] {
				q.admit(ad.page[j], ad.arr[j])
			}
			nextAdmit = int(ad.start[s+1])
		}
		if len(q.active) == 0 {
			// Nothing waiting: neither tier interacts with the queue, so
			// jump the clock to the next arrival bucket.
			if nextAdmit >= len(ad.page) {
				break
			}
			if nb := bucketOf(ad.arr[ad.order[nextAdmit]]); nb > s+1 {
				s = nb - 1
			}
			continue
		}
		horizon = s + 1
		now := float64(s)
		// Push-owned cells first: a page the push program airs this slot
		// clears its waiters before any online pick, so the online tier
		// never duplicates a push airing within a slot.
		for ch := 0; ch < pushRows; ch++ {
			if page := prog.AtAbs(ch, s); page != core.None && q.pos[page] >= 0 {
				pending -= int(q.clear(page))
			}
		}
		// Online-owned channels: reserved channels (appended after the push
		// rows) or, in pure mode, the whole grid.
		for ch := onlineFrom; ch < onlineTo; ch++ {
			page, ok := q.pick(cfg.Policy, now)
			if !ok {
				break
			}
			airings = append(airings, Airing{Slot: s, Channel: ch, Page: page})
			pending -= int(q.clear(page))
		}
		// Stolen cells: the push grid's empty cells, claimed only while the
		// oldest waiter has aged past the threshold. Clearing can only raise
		// the oldest-arrival watermark, so once the trigger fails it stays
		// failed for the rest of the slot.
		if cfg.Split.Mode == SplitSteal {
			col := prog.Column(s)
			for ch := 0; ch < pushRows; ch++ {
				if prog.At(ch, col) != core.None {
					continue
				}
				if now-q.oldest() < cfg.Split.StealThreshold {
					break
				}
				page, ok := q.pick(cfg.Policy, now)
				if !ok {
					break
				}
				airings = append(airings, Airing{Slot: s, Channel: ch, Page: page})
				stolen++
				pending -= int(q.clear(page))
			}
		}
	}
	return airings, stolen, horizon, nil
}

// airingBound caps the airing log so schedule sizes it once. Through the
// last admission bucket a slot airs at most its online-owned channels plus,
// when stealing, the grid's empty cells; after it no request arrives, so
// each page airs at most once more; and every airing clears at least one
// request.
func airingBound(prog *core.Program, ad *admitted, online int, steal bool) int {
	slots := ad.max + 1
	bound := slots*online + prog.GroupSet().Pages()
	if steal {
		empty := 0
		for ch := 0; ch < prog.Channels(); ch++ {
			for col := 0; col < prog.Length(); col++ {
				if prog.At(ch, col) == core.None {
					empty++
				}
			}
		}
		bound += core.CeilDiv(slots, prog.Length()) * empty
	}
	return min(bound, len(ad.page))
}

// Run executes the online tier: the serial decision pass fixes the airing
// timeline, then the sharded measurement pass (bit-identical at any worker
// count) computes every request's flow time against the combined
// push+online timeline. See RunSerial for the one-pass reference this is
// differentially pinned against.
func Run(prog *core.Program, stream workload.Stream, cfg Config) (*Result, error) {
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
	ad, err := admit(stream, prog.GroupSet().Pages(), cfg.Workers)
	if err != nil {
		return nil, err
	}
	airings, stolen, horizon, err := schedule(prog, ad, cfg)
	if err != nil {
		return nil, err
	}
	res, err := measure(prog, ad, stream.Sorted(), airings, cfg)
	if err != nil {
		return nil, err
	}
	res.OnlineAirings = len(airings)
	res.StolenSlots = stolen
	res.HorizonSlots = horizon
	res.Airings = airings
	return res, nil
}
