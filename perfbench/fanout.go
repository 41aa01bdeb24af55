package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/loadgen"
	"tcsa/internal/netcast"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// Client population of one fan-out call: two stream shards, one per
// worker on a two-core machine, and enough calls per run that the p90
// call time has ten or more calls beyond it.
const (
	fanoutClients     = 2 * workload.ShardSize
	fanoutClientsTiny = 4096
)

// fanoutSpec is one fan-out workload: the paper's Figure 4 instance with
// a group-size distribution, a page-choice model and a fault plan.
type fanoutSpec struct {
	dist   workload.Distribution
	choice workload.PageChoice
	theta  float64
	fault  chaos.Config
}

func runFanoutClean(opts options, res *result) error {
	return runFanout(opts, res, fanoutSpec{
		dist: workload.Uniform,
	})
}

func runFanoutFaulted(opts options, res *result) error {
	return runFanout(opts, res, fanoutSpec{
		dist:   workload.SSkewed,
		choice: workload.ZipfPages,
		theta:  0.8,
		fault:  canonicalFaults(),
	})
}

// canonicalFaults is the all-classes fault mix of the chaos gate in
// cmd/airbench, with that gate's fault seed: every fault class active,
// plus the degradation replan. The air's fault pattern is part of the
// workload's definition and stays fixed; --seed draws the clients. (Over
// three channels the burst tapes alone move retries per client between
// 0.41 and 0.52 from one fault seed to the next, which would swamp every
// other difference between runs.)
func canonicalFaults() chaos.Config {
	return chaos.Config{
		Seed:       1,
		Loss:       0.10,
		Corrupt:    0.02,
		Churn:      0.05,
		Jitter:     0.25,
		StallEvery: 64,
		StallFor:   4,
		Burst:      &chaos.BurstConfig{GoodToBad: 0.05, BadToGood: 0.25, LossBad: 0.8},
		Replan:     true,
	}
}

// fanoutInputs is a built fan-out scenario.
type fanoutInputs struct {
	prog   *core.Program
	a      *core.Analysis
	stream workload.Stream
	fault  chaos.Config
	plan   *chaos.Plan
}

// build constructs the scenario: group set, PAMAD at the knee
// (ceil(MinChannels/5)), analysis, request stream and fault plan.
func (s fanoutSpec) build(seed int64, clients int, sw *stopwatch) (*fanoutInputs, error) {
	in := &fanoutInputs{fault: s.fault}
	var gs *core.GroupSet
	err := sw.lap("workload.GroupSet", func() (err error) {
		gs, err = workload.GroupSet(s.dist, 8, 1000, 4, 2)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := sw.lap("pamad.Build", func() (err error) {
		in.prog, _, err = pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
		return err
	}); err != nil {
		return nil, err
	}
	if err := sw.lap("core.Analyze", func() error {
		in.a = core.Analyze(in.prog)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := sw.lap("workload.NewStream", func() (err error) {
		in.stream, err = workload.NewStream(gs, in.prog.Length(), workload.RequestConfig{
			Count: clients, Seed: seed, Choice: s.choice, Theta: s.theta,
		})
		return err
	}); err != nil {
		return nil, err
	}
	if err := sw.lap("chaos.NewPlan", func() (err error) {
		in.plan, err = chaos.NewPlan(in.fault, in.prog.Channels(), in.prog.Length())
		return err
	}); err != nil {
		return nil, err
	}
	return in, nil
}

// reference computes the retained reference result: chaos.RunParallel,
// which with an inactive plan must itself equal sim.MeasureStream.
func (in *fanoutInputs) reference() (*chaos.Result, error) {
	ref, err := chaos.RunParallel(in.a, in.stream, in.fault, 0)
	if err != nil {
		return nil, err
	}
	if !in.fault.Active() {
		m, err := sim.MeasureStream(in.a, in.stream)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(*m, ref.Metrics) {
			return nil, fmt.Errorf("zero-fault chaos.RunParallel metrics differ from sim.MeasureStream")
		}
	}
	return ref, nil
}

// fanoutCounts are the exact counts of one RunStream call.
func fanoutCounts(r *loadgen.Result) map[string]int64 {
	ch := int64(r.Channels)
	skipped := r.FaultStats.StalledSlots*ch + r.FaultStats.DroppedFrames
	served := int64(r.Clients) - r.Unserved
	return map[string]int64{
		"frames_published": r.SlotsAired*ch - skipped,
		"frames_skipped":   skipped,
		"frames_corrupt":   r.FaultStats.CorruptFrames,
		"polls":            served + r.Retries,
		"retries":          r.Retries,
		"unserved":         r.Unserved,
		"misses":           r.Misses,
		"digest_hi":        int64(r.TraceDigest >> 32),
		"digest_lo":        int64(r.TraceDigest & 0xffffffff),
	}
}

// checkFanout verifies one call against the reference and, after the
// first call, its exact counts against the first call's.
func checkFanout(res *result, r *loadgen.Result, ref *chaos.Result, first *map[string]int64, call int) {
	if !reflect.DeepEqual(r.Result, *ref) {
		res.fail("call %d: loadgen.RunStream differs from the reference (digest %016x, want %016x)",
			call, r.TraceDigest, ref.TraceDigest)
	}
	res.checkRepeat(first, fanoutCounts(r), call)
}

func runFanout(opts options, res *result, spec fanoutSpec) error {
	clients := fanoutClients
	if opts.tiny {
		clients = fanoutClientsTiny
	}
	sw := newStopwatch(res.tracer)
	var in *fanoutInputs
	setup, err := medianSetup(func() (err error) {
		in, err = spec.build(opts.seed, clients, sw)
		return err
	})
	if err != nil {
		return err
	}
	res.metrics["setup_s"] = setup
	ref, err := in.reference()
	if err != nil {
		return err
	}
	if opts.trace {
		res.metrics["core.analyze_ms"] = 1e3 * sw.median("core.Analyze")
		res.metrics["pamad.build_ms"] = 1e3 * sw.median("pamad.Build")
		res.metrics["chaos.plan_ms"] = 1e3 * sw.median("chaos.NewPlan")
		return traceFanout(opts, res, in, ref)
	}

	ctx := context.Background()
	var lat []float64
	var first map[string]int64
	var allocs, served int64
	start := time.Now()
	for call := 0; call == 0 || !deadline(start, opts.seconds); call++ {
		a0 := totalAlloc()
		t0 := time.Now()
		r, err := loadgen.RunStream(ctx, in.a, in.stream, in.fault, loadgen.Options{})
		d := time.Since(t0).Seconds()
		allocs += int64(totalAlloc() - a0)
		if err != nil {
			return err
		}
		lat = append(lat, d)
		checkFanout(res, r, ref, &first, call)
		res.attempted += int64(clients)
		res.failed += r.Unserved
		served = int64(clients) - r.Unserved
	}
	p50 := median(lat)
	res.metrics["requests_per_s"] = float64(served) / p50
	res.metrics["latency_p50_ms"] = 1e3 * p50
	res.metrics["latency_p90_ms"] = 1e3 * quantile(lat, 0.9)
	res.metrics["wait_p50_slots"] = ref.Wait.P50
	res.metrics["wait_p99_slots"] = ref.Wait.P99
	res.metrics["miss_ratio"] = ref.MissRatio
	res.metrics["alloc_bytes_per_op"] = float64(allocs) / float64(res.attempted)
	res.metrics["analytic_delay_slots"] = in.a.AvgDelay()
	fmt.Fprintf(res.log, "%s: %d calls of %d clients, median %.1f ms, p90 %.1f ms; setup %.2f ms\n",
		opts.workload, len(lat), clients, 1e3*p50, 1e3*quantile(lat, 0.9), 1e3*setup)
	return nil
}

// requestsOf materialises the stream's pages and cycle offsets, so a
// lookup replay times the lookups and not the draw.
func requestsOf(stream workload.Stream, L float64) ([]core.PageID, []float64) {
	pages := make([]core.PageID, 0, stream.Count())
	offs := make([]float64, 0, stream.Count())
	cur := stream.NewCursor()
	var r workload.Request
	for k := 0; k < stream.Shards(); k++ {
		cur.Seek(k)
		for cur.Next(&r) {
			pages = append(pages, r.Page)
			offs = append(offs, math.Mod(r.Arrival, L))
		}
	}
	return pages, offs
}

// sink keeps the replays' reads observable to the compiler.
var sink int64

// drawWalks replays the request draw: walks cursors over every shard.
func drawWalks(stream workload.Stream, walks int) {
	cur := stream.NewCursor()
	var r workload.Request
	for w := 0; w < walks; w++ {
		for k := 0; k < stream.Shards(); k++ {
			cur.Seek(k)
			for cur.Next(&r) {
				sink += int64(r.Page)
			}
		}
	}
}

// foldReplay replays the metric fold: two Sketch.Add and two Online.Add
// per value, the measurement engines' per-request fold.
func foldReplay(xs, ys []float64, lo, hi, lo2, hi2 float64) error {
	s1, err := stats.NewSketch(lo, hi, 0.01)
	if err != nil {
		return err
	}
	s2, err := stats.NewSketch(lo2, hi2, 0.01)
	if err != nil {
		return err
	}
	var o1, o2 stats.Online
	for i, x := range xs {
		y := ys[i]
		o1.Add(x)
		o2.Add(y)
		s1.Add(x)
		s2.Add(y)
	}
	sink += o1.N() + s2.N()
	return nil
}

// traceFanout is the traced pass: each iteration times one RunStream call
// with its CPU time, then replays every layer RunStream calls into, from
// outside, with the call's own counts. The layers run on one goroutine,
// so they are reconciled against the call's CPU time (user+sys); the
// residual is loadgen's own work: heap scheduling, watermark gating and
// spin-yields.
func traceFanout(opts options, res *result, in *fanoutInputs, ref *chaos.Result) error {
	t := res.tracer
	ctx := context.Background()
	L := float64(in.prog.Length())
	n := in.stream.Count()
	pages, offs := requestsOf(in.stream, L)
	gs := in.prog.GroupSet()
	waits := make([]float64, n)
	delays := make([]float64, n)

	var untraced []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := loadgen.RunStream(ctx, in.a, in.stream, in.fault, loadgen.Options{}); err != nil {
			return err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
	}

	var first map[string]int64
	var iters int
	var wall, measure float64
	var cpu cpuTimes
	layers := map[string]float64{}
	var slots, polls, retries, served, published, skipped int64
	start := time.Now()
	for ; iters == 0 || !deadline(start, opts.seconds); iters++ {
		root := t.begin("iteration", 0)
		c0 := cpuNow()
		id := t.begin("loadgen.RunStream", root)
		r, err := loadgen.RunStream(ctx, in.a, in.stream, in.fault, loadgen.Options{})
		wall += t.end(id, int64(n))
		cpu = cpu.add(cpuNow().sub(c0))
		if err != nil {
			return err
		}
		checkFanout(res, r, ref, &first, iters)
		counts := fanoutCounts(r)
		slots, retries = r.SlotsAired, r.Retries
		polls, served = counts["polls"], int64(n)-r.Unserved
		published, skipped = counts["frames_published"], counts["frames_skipped"]
		res.attempted += int64(n)
		res.failed += r.Unserved

		// loadgen draws every request twice: to build the client heaps
		// and again to fold the outcomes.
		layers["workload.draw"] += t.timed("workload.Cursor", root, 2*int64(n), func() { drawWalks(in.stream, 2) })
		layers["core.lookup"] += t.timed("core.NextAfter", root, int64(n), func() {
			for i, p := range pages {
				waits[i] = in.a.NextAfter(p, offs[i])
			}
		})
		for i, p := range pages {
			delays[i] = math.Max(0, waits[i]-float64(gs.TimeOf(p)))
		}

		ring, err := netcast.NewBroadcastRing(in.prog.Channels(), 0)
		if err != nil {
			return err
		}
		caster, err := netcast.NewCaster(in.prog, ring, in.plan)
		if err != nil {
			return err
		}
		layers["netcast.publish"] += t.timed("netcast.CastSlot", root, slots, func() {
			for abs := 0; abs < int(slots); abs++ {
				caster.CastSlot(abs)
			}
		})
		if caster.Faults() != r.FaultStats {
			res.fail("publish replay fault stats %+v differ from the call's %+v", caster.Faults(), r.FaultStats)
		}
		chans, window := int64(in.prog.Channels()), int64(ring.Slots())
		layers["netcast.poll"] += t.timed("netcast.Poll", root, polls, func() {
			for i := int64(0); i < polls; i++ {
				f, _ := ring.Poll(int(i%chans), slots-1-(i/chans)%window)
				sink += int64(f.Page)
			}
		})
		if in.fault.Active() {
			layers["chaos.classify"] += t.timed("chaos.Classify+ChurnAway", root, polls, func() {
				for i := int64(0); i < polls; i++ {
					ch, abs := int(i%chans), int(slots-1-(i/chans)%window)
					if in.plan.Classify(ch, abs) != chaos.SkipNone || in.plan.ChurnAway(i, int(i&7)) {
						sink++
					}
				}
			})
		}
		var ferr error
		layers["stats.fold"] += t.timed("stats.fold", root, int64(n), func() {
			ferr = foldReplay(waits, delays, L/(1<<20), L, L/(1<<20), L)
		})
		if ferr != nil {
			return ferr
		}
		var merr error
		measure += t.timed("sim.MeasureStream", root, int64(n), func() { _, merr = sim.MeasureStream(in.a, in.stream) })
		if merr != nil {
			return merr
		}
		t.end(root, 0)
	}

	k := float64(iters)
	for name := range layers {
		layers[name] /= k
	}
	wall /= k
	measure /= k
	cpu = cpuTimes{cpu.user / k, cpu.sys / k}
	m := res.metrics
	m["workload.draw_ns_per_req"] = 1e9 * layers["workload.draw"] / float64(2*n)
	m["core.lookup_ns_per_req"] = 1e9 * layers["core.lookup"] / float64(n)
	m["netcast.publish_ns_per_slot"] = 1e9 * layers["netcast.publish"] / float64(slots)
	m["netcast.frames_published"] = float64(published)
	m["netcast.frames_skipped"] = float64(skipped)
	m["netcast.poll_ns"] = 1e9 * layers["netcast.poll"] / float64(polls)
	m["netcast.polls"] = float64(polls)
	m["chaos.classify_ns_per_attempt"] = 1e9 * layers["chaos.classify"] / float64(polls)
	m["loadgen.retries"] = float64(retries)
	m["loadgen.served_per_poll"] = float64(served) / float64(polls)
	m["loadgen.cpu_per_wall"] = cpu.total() / (wall * float64(runtime.GOMAXPROCS(0)))
	m["loadgen.overhead_vs_measure"] = wall / measure
	m["stats.fold_ns_per_req"] = 1e9 * layers["stats.fold"] / float64(n)
	m["sim.measure_s"] = measure
	m["cpu_user_s"] = cpu.user
	m["cpu_sys_s"] = cpu.sys
	attribution{
		e2e: cpu.total(), e2eWall: wall, untraced: median(untraced),
		layers: layers, residual: "loadgen.self_s",
	}.report(res, "CPU seconds per loadgen.RunStream call")
	return nil
}
