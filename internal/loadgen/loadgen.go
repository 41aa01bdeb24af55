// Package loadgen drives large simulated client populations — 100k to
// 1M+ — through the real broadcast runtime: a netcast.Caster publishes
// the program slot by slot into the in-process netcast.BroadcastRing
// until every client has been served, and sharded client workers poll
// their pages' appearance slots out of the ring, classify what they
// observe (received, lost, corrupt, stalled, churned away) and account
// waits, deadline misses and the fault ledger.
//
// The package's contract is bit-identity with the measurement engines:
// the aggregated Result reproduces chaos.RunParallel exactly — same
// metrics, same ledger, same trace digest — at any worker count, and
// with faults off it therefore reproduces sim.MeasureStream exactly.
// That holds because every client outcome is a pure function of
// (request, plan): the ring's flow control guarantees no client ever
// loses a slot to overwrite (a RingLost poll is a hard error, not a
// statistic), so the transport changes how outcomes are observed, never
// what they are.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/netcast"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// Config describes one load-generation scenario: the paper instance, the
// client population, and the fault plan.
type Config struct {
	// Clients is the simulated client population (one request each).
	Clients int
	// Workers shards the clients; 0 = GOMAXPROCS. The Result is
	// bit-identical at any worker count.
	Workers int
	// Dist shapes the group-size distribution (paper Figure 3).
	Dist workload.Distribution
	// Channels is the broadcast channel count; 0 = the paper's knee,
	// ceil(MinChannels/5), the operating point the sweep PRs pinned.
	Channels int
	// Pages/Groups/BaseTime/Ratio parameterise the instance; zero values
	// take the paper's Figure 4 defaults (1000, 8, 4, 2).
	Pages, Groups, BaseTime, Ratio int
	// Seed drives the request stream (page choices and arrivals).
	Seed int64
	// PageChoice selects uniform or Zipf page popularity; Theta is the
	// Zipf exponent.
	PageChoice workload.PageChoice
	Theta      float64
	// Fault is the chaos plan driven through the transport. The zero
	// value is fault-free air.
	Fault chaos.Config
	// RingSlots is the per-channel broadcast-ring depth; 0 = the netcast
	// default. Depth only affects scheduling slack, never results.
	RingSlots int
}

func (c Config) withDefaults() Config {
	if c.Pages == 0 {
		c.Pages = 1000
	}
	if c.Groups == 0 {
		c.Groups = 8
	}
	if c.BaseTime == 0 {
		c.BaseTime = 4
	}
	if c.Ratio == 0 {
		c.Ratio = 2
	}
	return c
}

// Result is a loadgen measurement: the full chaos.Result (bit-identical
// to running chaos.RunParallel on the same inputs) plus the transport's
// own accounting.
type Result struct {
	chaos.Result
	// Clients echoes the measured population size.
	Clients int
	// Channels and CycleLen describe the broadcast program driven.
	Channels int
	CycleLen int
	// SlotsAired is how many slots the caster aired: MaxCycles cycles,
	// always. The air does not stop when clients finish, but only the
	// slots up to the last client's drain are encoded into the ring; the
	// rest are accounted (netcast.Caster.AccountSlots), not published.
	SlotsAired int64
	// FaultStats is the server-side fault accounting from the caster over
	// all SlotsAired slots, cast or accounted alike, so it is a function of
	// the plan alone. Its classes correspond to the ledger's channel-side
	// skips but count per (channel, slot), not per waiting client.
	FaultStats netcast.FaultStats
}

// Options tunes RunStream independently of scenario construction.
type Options struct {
	Workers   int // 0 = GOMAXPROCS
	RingSlots int // 0 = netcast.DefaultRingSlots
}

// Materialize builds the scenario cfg describes: the group-set instance,
// its PAMAD program (at the knee channel count when cfg.Channels is 0)
// analysed for appearance lookup, and the request stream over it.
func Materialize(cfg Config) (*core.Analysis, workload.Stream, error) {
	cfg = cfg.withDefaults()
	if cfg.Clients < 0 {
		return nil, nil, fmt.Errorf("loadgen: negative client count %d", cfg.Clients)
	}
	gs, err := workload.GroupSet(cfg.Dist, cfg.Groups, cfg.Pages, cfg.BaseTime, cfg.Ratio)
	if err != nil {
		return nil, nil, err
	}
	channels := cfg.Channels
	if channels == 0 {
		channels = core.CeilDiv(gs.MinChannels(), 5)
	}
	prog, _, err := pamad.Build(gs, channels)
	if err != nil {
		return nil, nil, err
	}
	stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{
		Count:  cfg.Clients,
		Seed:   cfg.Seed,
		Choice: cfg.PageChoice,
		Theta:  cfg.Theta,
	})
	if err != nil {
		return nil, nil, err
	}
	return core.Analyze(prog), stream, nil
}

// Run materialises the scenario cfg describes (instance, PAMAD program,
// request stream) and measures it through the in-process transport.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	a, stream, err := Materialize(cfg)
	if err != nil {
		return nil, err
	}
	return RunStream(ctx, a, stream, cfg.Fault, Options{
		Workers:   cfg.Workers,
		RingSlots: cfg.RingSlots,
	})
}

// client is one request's delivery state machine. While the client
// waits, u is its arrival offset within the cycle; once it is resolved
// (served, given up, or asking for a never-aired page) u holds its wait
// and the client leaves the calendar.
type client struct {
	next     int64   // absolute slot of the pending delivery opportunity
	glob     int64   // global request index (shard*ShardSize + local)
	u        float64 // arrival offset while pending; the wait once resolved
	page     core.PageID
	k        int32
	wraps    int32
	attempts int32
	ch       int32 // channel of the pending opportunity
	link     int32 // next client filed under the same slot; -1 ends the chain
}

// calendar is a cyclic bucket queue of client indices keyed by next
// slot. A program is a cyclic grid, so a pending opportunity is never
// far ahead of the slot being drained: a first opportunity lies in the
// first two cycles and a retry at most one cycle past the slot it
// missed. With at least 2·cycleLen+1 buckets, bucket next&mask
// therefore only ever holds clients due at one slot, and filing and
// draining cost O(1) per delivery opportunity.
type calendar struct {
	heads []int32 // first client filed under each bucket; -1 = empty
	mask  int64
}

func newCalendar(cycleLen int) calendar {
	n := 1
	for n < 2*cycleLen+1 {
		n <<= 1
	}
	heads := make([]int32, n)
	for i := range heads {
		heads[i] = -1
	}
	return calendar{heads: heads, mask: int64(n) - 1}
}

// push files clients[i] under its next slot. cur is the slot being
// drained; an opportunity behind it, or a whole window or more ahead of
// it, would alias another slot's bucket, so it is a hard error — like a
// RingLost poll, it means the determinism contract is broken.
func (q *calendar) push(clients []client, i int32, cur int64) error {
	c := &clients[i]
	if d := c.next - cur; d < 0 || d > q.mask {
		return fmt.Errorf("loadgen: client %d due at slot %d, outside the %d-slot calendar window at slot %d",
			c.glob, c.next, q.mask+1, cur)
	}
	b := c.next & q.mask
	c.link = q.heads[b]
	q.heads[b] = i
	return nil
}

// take detaches the chain of clients due at slot cur and returns its
// first index (-1 if none is due).
func (q *calendar) take(cur int64) int32 {
	b := cur & q.mask
	i := q.heads[b]
	q.heads[b] = -1
	return i
}

// engine carries the shared state of one RunStream measurement.
type engine struct {
	ring      *netcast.BroadcastRing
	plan      *chaos.Plan
	ix        *core.AppearanceIndex
	chanOf    [][]int32
	stream    workload.Stream
	times     []float64
	pages     int
	cycleLen  int
	maxCycles int
	active    bool

	// Worker w owns shards w, w+W, … and folds them into their folds
	// and its sketches[w]; ledgers[w] is its fault ledger.
	folds      []sim.Fold
	sketches   []sim.Sketches
	ledgers    []chaos.Ledger
	watermarks []atomic.Int64
	failed     atomic.Bool

	// marks parks the broadcaster on the watermarks; heads[w] parks
	// worker w on the ring head.
	marks gate
	heads []gate
}

// gate parks one goroutine until a level other goroutines advance
// reaches a target: the broadcaster waits for the workers' watermarks,
// a worker for the ring head. The parked side arms want, then re-reads
// the level; the advancing side stores the level, then reads want. All
// four are sequentially consistent atomics, so at least one side sees
// the other's store and no wake is lost.
type gate struct {
	want atomic.Int64  // the parked goroutine's target (positive); 0 when none is parked
	wake chan struct{} // 1-buffered: a wake never blocks the waker and is never lost
}

func (g *gate) init() { g.wake = make(chan struct{}, 1) }

// notify wakes the parked goroutine if level meets its target. Disarming
// with a CAS first makes one park cost at most one send.
func (g *gate) notify(level int64) {
	if want := g.want.Load(); want > 0 && level >= want && g.want.CompareAndSwap(want, 0) {
		g.interrupt()
	}
}

// interrupt wakes the parked goroutine, if any, to re-check its state.
func (g *gate) interrupt() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// park blocks until level() reaches target (positive), ctx ends, or the
// run fails; only the context ending is an error, so a caller must check
// e.failed after a nil return.
func (e *engine) park(ctx context.Context, g *gate, target int64, level func() int64) error {
	for {
		g.want.Store(target)
		if level() >= target || e.failed.Load() {
			g.want.Store(0)
			return nil
		}
		select {
		case <-g.wake:
		case <-ctx.Done():
			g.want.Store(0)
			return ctx.Err()
		}
	}
}

// fail marks the run failed and wakes every parked goroutine so it sees
// the flag.
func (e *engine) fail(err error) error {
	e.failed.Store(true)
	e.marks.interrupt()
	for w := range e.heads {
		e.heads[w].interrupt()
	}
	return err
}

// mark publishes worker w's watermark and wakes the broadcaster once the
// slowest watermark reaches its target.
func (e *engine) mark(w int, slot int64) {
	e.watermarks[w].Store(slot)
	if want := e.marks.want.Load(); want > 0 && slot >= want {
		e.marks.notify(e.minWatermark())
	}
}

// RunStream measures stream against the analysed program under the fault
// plan, through the in-process ring transport. Metrics, ledger and trace
// digest (TraceDigest: the same sim.Mix chain of per-request page, wait
// bits and attempts) are bit-identical to chaos.RunParallel on the same
// inputs at any worker count; with an inactive fault config they are
// therefore bit-identical to sim.MeasureStream.
func RunStream(ctx context.Context, a *core.Analysis, stream workload.Stream, fault chaos.Config, opts Options) (*Result, error) {
	if a == nil {
		return nil, errors.New("loadgen: nil analysis")
	}
	if stream == nil {
		return nil, errors.New("loadgen: nil stream")
	}
	prog := a.Program()
	plan, err := chaos.NewPlan(fault, prog.Channels(), prog.Length())
	if err != nil {
		return nil, err
	}
	maxCycles := fault.CycleBound()
	if !fault.Active() && maxCycles < 2 {
		// Fault-free air never skips, so the engines serve every client
		// at its first opportunity — up to two cycles out — whatever the
		// give-up bound.
		maxCycles = 2
	}
	base := &Result{
		Clients:  stream.Count(),
		Channels: prog.Channels(),
		CycleLen: prog.Length(),
	}
	count := stream.Count()
	if count == 0 {
		return base, chaos.Finish(&base.Result, plan, prog)
	}

	shards := stream.Shards()
	workers := sim.Workers(opts.Workers, shards)
	ring, err := netcast.NewBroadcastRing(prog.Channels(), opts.RingSlots)
	if err != nil {
		return nil, err
	}
	// An inactive plan injects nothing: a nil injector spares the caster
	// every fault predicate, and makes accounting the unread tail O(1).
	var inject netcast.FaultInjector
	if fault.Active() {
		inject = plan
	}
	caster, err := netcast.NewCaster(prog, ring, inject)
	if err != nil {
		return nil, err
	}

	gs := prog.GroupSet()
	eng := &engine{
		ring:       ring,
		plan:       plan,
		ix:         a.Index(),
		chanOf:     chaos.ChannelTable(prog, a.Index()),
		stream:     stream,
		times:      gs.ExpectedTimes(),
		pages:      gs.Pages(),
		cycleLen:   prog.Length(),
		maxCycles:  maxCycles,
		active:     fault.Active(),
		folds:      make([]sim.Fold, shards),
		sketches:   make([]sim.Sketches, workers),
		ledgers:    make([]chaos.Ledger, workers),
		watermarks: make([]atomic.Int64, workers),
		heads:      make([]gate, workers),
	}
	eng.marks.init()
	for w := range eng.heads {
		eng.heads[w].init()
	}

	slotsAired := int64(maxCycles) * int64(prog.Length())
	errs := make([]error, workers+1)
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		errs[workers] = eng.broadcast(ctx, caster, slotsAired)
	}()
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			errs[w] = eng.work(ctx, w, workers, shards)
		}()
	}
	wg.Wait()
	// The broadcaster and every worker poll ctx and unblock on
	// cancellation, so the join above terminates; a cancelled run never
	// reports results, even if the goroutines happened to finish first.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Validation errors are filed on their shards' folds: the merge
	// reports the lowest, whichever worker owned it, as the engines do.
	total, err := sim.MergeFolds(eng.folds, eng.sketches)
	if err != nil {
		return nil, err
	}
	base.Metrics = total.Metrics(count)
	for w := range eng.ledgers {
		base.Ledger.Add(&eng.ledgers[w])
	}
	base.Misses = total.N
	base.TraceDigest = total.Digest
	base.SlotsAired = slotsAired
	base.FaultStats = caster.Faults()
	return base, chaos.Finish(&base.Result, plan, prog)
}

// broadcast airs exactly slots slots through the caster, so the
// server-side FaultStats are a deterministic function of the plan. It
// paces itself so no slot a client still needs is ever overwritten: slot
// abs may air only once every worker's pending watermark is within one
// ring length of it. Watermarks are per-worker monotone (a worker drains
// its calendar slot by slot and every retry reschedules later), so a slot
// that cleared the gate can never be wanted again. A gated broadcaster
// parks until the slowest worker has read half the ring. Once every
// worker has drained, nobody reads the air any more: the remaining slots
// are accounted, not encoded and published.
func (e *engine) broadcast(ctx context.Context, caster *netcast.Caster, slots int64) error {
	ringSlots := int64(e.ring.Slots())
	half := max(ringSlots/2, 1)
	abs := int64(0)
	for abs < slots {
		wm := e.minWatermark()
		if wm == math.MaxInt64 {
			break // every worker has drained, or one failed
		}
		// abs-ringSlots >= wm, not abs >= wm+ringSlots: the drained-worker
		// watermark is MaxInt64 and must not overflow.
		if abs-ringSlots >= wm {
			// The wake target is at most abs, and a worker waiting for an
			// unaired slot has marked a watermark of at least abs, so the
			// broadcaster and the workers never wait on each other.
			if err := e.park(ctx, &e.marks, abs-half+1, e.minWatermark); err != nil {
				return e.fail(err)
			}
			if e.failed.Load() {
				return nil
			}
			continue
		}
		caster.CastSlot(int(abs))
		abs++
		for w := range e.heads {
			e.heads[w].notify(abs)
		}
	}
	if e.failed.Load() {
		return nil
	}
	caster.AccountSlots(int(abs), int(slots))
	return nil
}

func (e *engine) minWatermark() int64 {
	min := int64(math.MaxInt64)
	for i := range e.watermarks {
		if w := e.watermarks[i].Load(); w < min {
			min = w
		}
	}
	return min
}

// work runs one client shard-group: build the delivery state machines
// for every owned shard, drain them slot by slot against the ring, then
// fold the outcomes. The worker's watermark stays 0 for the whole build
// phase — a later shard can contribute an earlier first event, so
// advancing it early would let the broadcaster overwrite a slot a
// still-unbuilt client needs.
func (e *engine) work(ctx context.Context, w, workers, shards int) error {
	defer e.mark(w, math.MaxInt64)
	owned := 0
	for shard := w; shard < shards; shard += workers {
		owned += min(workload.ShardSize, e.stream.Count()-shard*workload.ShardSize)
	}
	if owned > math.MaxInt32 {
		// Calendar links are int32 client indices.
		return e.fail(fmt.Errorf("loadgen: %d clients on one worker, at most %d", owned, math.MaxInt32))
	}
	clients := make([]client, 0, owned)
	var ends []int
	q := newCalendar(e.cycleLen)
	// The ledger stays local until the drain ends: workers' ledgers are
	// neighbours in memory.
	var ledger chaos.Ledger
	L := float64(e.cycleLen)
	pending := 0
	cur := e.stream.NewCursor()
	cc := e.ix.NewCursor(e.stream.Sorted())
	var r workload.Request
	for shard := w; shard < shards; shard += workers {
		cur.Seek(shard)
		for local := 0; cur.Next(&r); local++ {
			glob := int64(shard)*workload.ShardSize + int64(local)
			if r.Page < 0 || int(r.Page) >= e.pages || r.Arrival < 0 {
				e.folds[shard].Fail(sim.RequestError(r, int(glob), e.pages))
				return e.fail(nil)
			}
			c := client{glob: glob, page: r.Page, link: -1}
			u := core.CycleOffset(r.Arrival, e.cycleLen)
			// First candidate appearance at or after the arrival offset:
			// the engines' cursor, so the engines' index.
			cols, k := cc.First(r.Page, u)
			if len(cols) == 0 {
				// Never-aired page: the engines charge a full cycle.
				c.u = L
				clients = append(clients, c)
				continue
			}
			wraps := int32(0)
			if int(k) == len(cols) {
				k, wraps = 0, 1
			}
			if int(wraps) >= e.maxCycles {
				// Only reachable at MaxCycles 1 with a wrapped arrival
				// under an active plan: the engine gives up before the
				// first opportunity.
				ledger.Unserved++
				c.u = float64(e.maxCycles) * L
				clients = append(clients, c)
				continue
			}
			c.u, c.k, c.wraps = u, k, wraps
			c.next = int64(wraps)*int64(e.cycleLen) + int64(cols[k])
			c.ch = e.chanOf[r.Page][k]
			clients = append(clients, c)
			if err := q.push(clients, int32(len(clients)-1), 0); err != nil {
				return e.fail(err)
			}
			pending++
		}
		ends = append(ends, len(clients))
	}

	// aired caches each channel's ring head: the broadcaster runs ahead
	// of the workers, so one load usually clears many slots.
	aired := make([]int64, e.ring.Channels())
	for slot := int64(0); pending > 0; slot++ {
		i := q.take(slot)
		if i < 0 {
			continue
		}
		e.mark(w, slot)
		for i >= 0 {
			c := &clients[i]
			link := c.link
			ch := int(c.ch)
			if aired[ch] <= slot {
				if aired[ch] = e.ring.Head(ch); aired[ch] <= slot {
					// Not aired yet: sleep until the broadcaster casts it.
					if err := e.park(ctx, &e.heads[w], slot+1, func() int64 { return e.ring.Head(ch) }); err != nil {
						return e.fail(err)
					}
					if e.failed.Load() {
						return nil
					}
					aired[ch] = e.ring.Head(ch)
				}
			}
			done, err := e.step(c, &ledger, L)
			if err != nil {
				return e.fail(err)
			}
			if done {
				pending--
			} else if err := q.push(clients, i, slot); err != nil {
				return e.fail(err)
			}
			i = link
		}
	}
	// Drained: release the broadcaster before folding.
	e.mark(w, math.MaxInt64)
	e.ledgers[w] = ledger
	return e.fold(w, workers, clients, ends)
}

// step resolves one delivery opportunity for client c against the ring,
// in the measurement engine's exact priority order: the slot's poll
// status covers the channel-side faults (stall, loss, corruption), a
// received frame can still be missed to client churn, and a served
// client computes its wait with the engine's exact arithmetic.
func (e *engine) step(c *client, ledger *chaos.Ledger, L float64) (done bool, err error) {
	abs := c.next
	cols := e.ix.Columns(c.page)
	f, st := e.ring.Poll(int(c.ch), abs)
	skipped := true
	switch st {
	case netcast.RingOK:
		if f.Page != c.page {
			return false, fmt.Errorf("loadgen: slot %d channel %d carried page %d, client expected %d",
				abs, c.ch, f.Page, c.page)
		}
		if e.active && e.plan.ChurnAway(c.glob, int(c.attempts)) {
			ledger.ChurnSkips++
		} else {
			skipped = false
		}
	case netcast.RingSkipped:
		switch e.plan.Classify(int(c.ch), int(abs)) {
		case chaos.SkipStall:
			ledger.StallSkips++
		case chaos.SkipLoss:
			ledger.LostDeliveries++
		default:
			return false, fmt.Errorf("loadgen: slot %d channel %d skipped without a plan fault", abs, c.ch)
		}
	case netcast.RingCorrupt:
		if e.plan.Classify(int(c.ch), int(abs)) != chaos.SkipCorrupt {
			return false, fmt.Errorf("loadgen: slot %d channel %d corrupt without a plan fault", abs, c.ch)
		}
		ledger.CorruptSkips++
	case netcast.RingLost:
		// Flow control guarantees this cannot happen; if it does, the
		// determinism contract is broken and the run must fail loudly.
		return false, fmt.Errorf("loadgen: slot %d channel %d overwritten before client %d read it",
			abs, c.ch, c.glob)
	case netcast.RingPending:
		return false, fmt.Errorf("loadgen: slot %d channel %d polled before airing", abs, c.ch)
	}
	if skipped {
		c.attempts++
		ledger.Retries++
		if c.k++; int(c.k) == len(cols) {
			c.k, c.wraps = 0, c.wraps+1
		}
		if int(c.wraps) >= e.maxCycles {
			ledger.Unserved++
			c.u = float64(e.maxCycles) * L
			return true, nil
		}
		c.next = int64(c.wraps)*int64(e.cycleLen) + int64(cols[c.k])
		c.ch = e.chanOf[c.page][c.k]
		return false, nil
	}
	// At wraps 0 the added 0*L is an exact +0.0, and with an inactive
	// plan so is the jitter: the fault-free wait stays bit-identical to
	// the engines' closed-form branch.
	c.u = float64(cols[c.k]) + float64(c.wraps)*L - c.u + e.plan.JitterAt(int(abs))
	return true, nil
}

// fold aggregates worker w's resolved clients into the kernel folds of its
// owned shards, in request order (ends[j] closes the j-th owned shard's
// run of clients), exactly as the measurement engines fold them.
func (e *engine) fold(w, workers int, clients []client, ends []int) error {
	sk, err := sim.WaitLayout(float64(e.cycleLen)).New()
	if err != nil {
		return err
	}
	e.sketches[w] = sk
	start := 0
	for j, end := range ends {
		f := e.sketches[w].Open()
		for i := start; i < end; i++ {
			c := &clients[i]
			f.Add(c.u, f.Delay(c.u, e.times[c.page]))
			f.Trace(c.page, c.u, uint64(c.attempts))
		}
		e.folds[w+j*workers] = f
		start = end
	}
	return nil
}
