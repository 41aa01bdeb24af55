// Package loadgen drives large simulated client populations — 100k to
// 1M+ — through the real broadcast runtime: a netcast.Caster publishes
// every slot of the program into the in-process netcast.BroadcastRing,
// and sharded client workers poll their pages' appearance slots out of
// the ring, classify what they observe (received, lost, corrupt,
// stalled, churned away) and account waits, deadline misses and the
// fault ledger.
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
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/netcast"
	"tcsa/internal/pamad"
	"tcsa/internal/replan"
	"tcsa/internal/sim"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// Sketch parameters, identical to sim.MeasureStream's and the chaos
// engine's: the aggregated sketches must be bit-identical.
const (
	sketchQuantileAccuracy = 0.01
	sketchResolution       = 1 << 20
)

// FNV-1a 64-bit constants, matching the chaos trace digest.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

func fnv64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime
	}
	return h
}

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
	// SlotsAired is how many slots the caster published (MaxCycles
	// cycles, always — the air does not stop when clients finish).
	SlotsAired int64
	// FaultStats is the server-side fault accounting from the caster;
	// its classes correspond to the ledger's channel-side skips but count
	// per (channel, slot), not per waiting client.
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

// partial is one shard's outcome fold, accumulated in request order.
type partial struct {
	wait, delay       stats.Online
	waitSum, delaySum float64
	misses            int64
	digest            uint64
}

// workerOut is what one worker hands back beyond its shards' partials:
// its fault ledger and its sketch pair. Both merge exactly — the ledger
// is integer counters, the sketches integer bins plus an exact N, min
// and max — so neither depends on which worker held which shard.
type workerOut struct {
	ledger chaos.Ledger
	ws, ds *stats.Sketch
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

	partials   []partial
	outs       []workerOut
	watermarks []atomic.Int64
	failed     atomic.Bool
}

// RunStream measures stream against the analysed program under the fault
// plan, through the in-process ring transport. Metrics, ledger and trace
// digest are bit-identical to chaos.RunParallel on the same inputs at any
// worker count; with an inactive fault config they are therefore
// bit-identical to sim.MeasureStream.
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
	maxCycles := fault.MaxCycles
	if maxCycles <= 0 {
		maxCycles = chaos.DefaultMaxCycles
	}
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
		return finish(base, plan, prog)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := stream.Shards()
	if workers > shards {
		workers = shards
	}
	ring, err := netcast.NewBroadcastRing(prog.Channels(), opts.RingSlots)
	if err != nil {
		return nil, err
	}
	caster, err := netcast.NewCaster(prog, ring, plan)
	if err != nil {
		return nil, err
	}

	gs := prog.GroupSet()
	times := make([]float64, gs.Pages())
	for i := range times {
		times[i] = float64(gs.TimeOf(core.PageID(i)))
	}
	eng := &engine{
		ring:       ring,
		plan:       plan,
		ix:         a.Index(),
		chanOf:     chaos.ChannelTable(prog, a.Index()),
		stream:     stream,
		times:      times,
		pages:      gs.Pages(),
		cycleLen:   prog.Length(),
		maxCycles:  maxCycles,
		active:     fault.Active(),
		partials:   make([]partial, shards),
		outs:       make([]workerOut, workers),
		watermarks: make([]atomic.Int64, workers),
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

	res, err := eng.merge(base, count)
	if err != nil {
		return nil, err
	}
	res.SlotsAired = slotsAired
	res.FaultStats = caster.Faults()
	return finish(res, plan, prog)
}

// broadcast publishes exactly slots slots through the caster — the air
// does not stop when clients finish, so the server-side FaultStats are a
// deterministic function of the plan — pacing itself so no slot a client
// still needs is ever overwritten: slot abs may air only once every
// worker's pending watermark is within one ring length of it. Watermarks
// are per-worker monotone (a worker drains its calendar slot by slot and
// every retry reschedules later), so a slot that cleared the gate can
// never be wanted again.
func (e *engine) broadcast(ctx context.Context, caster *netcast.Caster, slots int64) error {
	ringSlots := int64(e.ring.Slots())
	for abs := int64(0); abs < slots; abs++ {
		// abs-ringSlots >= watermark, not abs >= watermark+ringSlots: the
		// finished-worker watermark is MaxInt64 and must not overflow.
		for abs-ringSlots >= e.minWatermark() {
			if err := ctx.Err(); err != nil {
				e.failed.Store(true)
				return err
			}
			if e.failed.Load() {
				return nil
			}
			runtime.Gosched()
		}
		caster.CastSlot(int(abs))
	}
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
	defer e.watermarks[w].Store(math.MaxInt64)
	fail := func(err error) error {
		e.failed.Store(true)
		return err
	}
	owned := 0
	for shard := w; shard < shards; shard += workers {
		owned += min(workload.ShardSize, e.stream.Count()-shard*workload.ShardSize)
	}
	if owned > math.MaxInt32 {
		// Calendar links are int32 client indices.
		return fail(fmt.Errorf("loadgen: %d clients on one worker, at most %d", owned, math.MaxInt32))
	}
	clients := make([]client, 0, owned)
	var ends []int
	q := newCalendar(e.cycleLen)
	// The ledger stays local until the drain ends: workers' outs are
	// neighbours in memory.
	var ledger chaos.Ledger
	L := float64(e.cycleLen)
	pending := 0
	cur := e.stream.NewCursor()
	var r workload.Request
	for shard := w; shard < shards; shard += workers {
		cur.Seek(shard)
		for local := 0; cur.Next(&r); local++ {
			glob := int64(shard)*workload.ShardSize + int64(local)
			if r.Page < 0 || int(r.Page) >= e.pages {
				return fail(fmt.Errorf("%w: request %d page %d", core.ErrPageRange, glob, r.Page))
			}
			if r.Arrival < 0 {
				return fail(fmt.Errorf("%w: request %d arrival %f negative", core.ErrSlotRange, glob, r.Arrival))
			}
			c := client{glob: glob, page: r.Page, link: -1}
			u := core.CycleOffset(r.Arrival, e.cycleLen)
			cols := e.ix.Columns(r.Page)
			if len(cols) == 0 {
				// Never-aired page: the engines charge a full cycle.
				c.u = L
				clients = append(clients, c)
				continue
			}
			// First candidate appearance at or after the arrival offset.
			// One comparison form serves both engine branches: for integer
			// columns, col >= u (float) and col >= ceil(u) (int) select the
			// same k, and the sorted-cursor walk stops there too.
			k := int32(sort.Search(len(cols), func(i int) bool { return float64(cols[i]) >= u }))
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
				return fail(err)
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
		e.watermarks[w].Store(slot)
		for i >= 0 {
			c := &clients[i]
			link := c.link
			ch := int(c.ch)
			for aired[ch] <= slot {
				if aired[ch] = e.ring.Head(ch); aired[ch] > slot {
					break
				}
				if err := ctx.Err(); err != nil {
					return fail(err)
				}
				if e.failed.Load() {
					return nil
				}
				runtime.Gosched()
			}
			done, err := e.step(c, &ledger, L)
			if err != nil {
				return fail(err)
			}
			if done {
				pending--
			} else if err := q.push(clients, i, slot); err != nil {
				return fail(err)
			}
			i = link
		}
	}
	// Drained: release the broadcaster before folding.
	e.watermarks[w].Store(math.MaxInt64)
	e.outs[w].ledger = ledger
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
	var wait float64
	if c.wraps == 0 {
		wait = float64(cols[c.k]) - c.u
	} else {
		wait = float64(cols[c.k]) + float64(c.wraps)*L - c.u
	}
	// With an inactive plan this adds exactly +0.0, so the fault-free
	// wait stays bit-identical to the engines' closed-form branch.
	c.u = wait + e.plan.JitterAt(int(abs))
	return true, nil
}

// fold aggregates worker w's resolved clients exactly as the measurement
// engines do: one partial per owned shard, accumulated in request order
// (ends[j] closes the j-th owned shard's run of clients), and one sketch
// pair fed in the same order.
func (e *engine) fold(w, workers int, clients []client, ends []int) error {
	L := float64(e.cycleLen)
	ws, err1 := stats.NewSketch(L/sketchResolution, L, sketchQuantileAccuracy)
	ds, err2 := stats.NewSketch(L/sketchResolution, L, sketchQuantileAccuracy)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	start := 0
	for j, end := range ends {
		p := &e.partials[w+j*workers]
		p.digest = fnvOffset
		for i := start; i < end; i++ {
			c := &clients[i]
			wv := c.u
			dv := wv - e.times[c.page]
			if dv < 0 {
				dv = 0
			} else if dv > 0 {
				p.misses++
			}
			p.wait.Add(wv)
			p.delay.Add(dv)
			p.waitSum += wv
			p.delaySum += dv
			ws.Add(wv)
			ds.Add(dv)
			d := fnv64(p.digest, uint64(uint32(c.page)))
			d = fnv64(d, math.Float64bits(wv))
			p.digest = fnv64(d, uint64(c.attempts))
		}
		start = end
	}
	e.outs[w].ws, e.outs[w].ds = ws, ds
	return nil
}

// merge combines the workers' folds: shard partials in ascending shard
// order — the float-summation order that makes the result
// worker-count-independent and engine-identical — then the exact
// ledgers and sketches.
func (e *engine) merge(base *Result, count int) (*Result, error) {
	var wait, delay stats.Online
	var waitSum, delaySum float64
	var misses int64
	digest := fnvOffset
	for k := range e.partials {
		p := &e.partials[k]
		wait.Merge(p.wait)
		delay.Merge(p.delay)
		waitSum += p.waitSum
		delaySum += p.delaySum
		misses += p.misses
		digest = fnv64(digest, p.digest)
	}
	var ledger chaos.Ledger
	for w := range e.outs {
		addLedger(&ledger, &e.outs[w].ledger)
	}
	ws, ds := e.outs[0].ws, e.outs[0].ds
	for _, o := range e.outs[1:] {
		if err := errors.Join(ws.Merge(o.ws), ds.Merge(o.ds)); err != nil {
			return nil, err
		}
	}

	base.Metrics = sim.Metrics{
		Requests:  count,
		AvgWait:   waitSum / float64(count),
		AvgDelay:  delaySum / float64(count),
		MissRatio: float64(misses) / float64(count),
		Wait:      stats.SummaryOf(wait, ws),
		Delay:     stats.SummaryOf(delay, ds),
	}
	base.Ledger = ledger
	base.Misses = misses
	base.TraceDigest = digest
	return base, nil
}

func addLedger(l, o *chaos.Ledger) {
	l.LostDeliveries += o.LostDeliveries
	l.CorruptSkips += o.CorruptSkips
	l.StallSkips += o.StallSkips
	l.ChurnSkips += o.ChurnSkips
	l.Retries += o.Retries
	l.Unserved += o.Unserved
}

// finish attaches the plan-level quantities exactly as the chaos engine
// does: effective loss always, the graceful-degradation replan when the
// config asks for one and the plan degrades capacity below nominal.
func finish(res *Result, plan *chaos.Plan, prog *core.Program) (*Result, error) {
	res.EffectiveLoss = plan.EffectiveLossRate()
	if plan.Config().Replan {
		eff := plan.EffectiveChannels()
		if eff < prog.Channels() {
			eng, err := replan.New(prog.GroupSet(), prog.Channels())
			if err != nil {
				return nil, fmt.Errorf("loadgen: degradation replan at %d channels: %w", eff, err)
			}
			delta, err := eng.SetChannels(eff)
			if err != nil {
				return nil, fmt.Errorf("loadgen: degradation replan at %d channels: %w", eff, err)
			}
			res.Result.Replan = &chaos.Replan{
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
