package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"tcsa/internal/core"
	"tcsa/internal/online"
	"tcsa/internal/pamad"
	"tcsa/internal/workload"
)

// Requests of one online-tier call: Poisson arrivals at 24 per slot over
// about 26 broadcast cycles.
const (
	hybridRequests     = 4 * workload.ShardSize
	hybridRequestsTiny = 4096
	hybridRate         = 24
)

// hybridConfig is the tier under test: Longest Wait First with one
// reserved online channel.
var hybridConfig = online.Config{
	Policy: online.LWF,
	Split:  online.Split{Mode: online.SplitReserved, OnlineChannels: 1},
}

type hybridInputs struct {
	prog   *core.Program
	a      *core.Analysis
	stream workload.Stream
}

func buildHybrid(seed int64, requests int, sw *stopwatch) (*hybridInputs, error) {
	in := &hybridInputs{}
	var gs *core.GroupSet
	if err := sw.lap("workload.GroupSet", func() (err error) {
		gs, err = workload.GroupSet(workload.Uniform, 8, 400, 4, 2)
		return err
	}); err != nil {
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
	if err := sw.lap("workload.NewPoissonStream", func() (err error) {
		in.stream, err = workload.NewPoissonStream(gs, workload.PoissonConfig{
			RequestConfig: workload.RequestConfig{Count: requests, Seed: seed},
			Rate:          hybridRate,
		})
		return err
	}); err != nil {
		return nil, err
	}
	return in, nil
}

// hybridReference runs the retained serial reference with per-request
// flows recorded, and derives the deadline-miss ratio from them.
func hybridReference(in *hybridInputs) (*online.Result, float64, error) {
	cfg := hybridConfig
	cfg.RecordFlows = true
	ref, err := online.RunSerial(in.prog, in.stream, cfg)
	if err != nil {
		return nil, 0, err
	}
	gs := in.prog.GroupSet()
	pages, _ := requestsOf(in.stream, float64(in.prog.Length()))
	if len(pages) != len(ref.Flows) {
		return nil, 0, fmt.Errorf("online.RunSerial recorded %d flows for %d requests", len(ref.Flows), len(pages))
	}
	misses := 0
	for i, p := range pages {
		if ref.Flows[i] > float64(gs.TimeOf(p)) {
			misses++
		}
	}
	return ref, float64(misses) / float64(len(pages)), nil
}

func hybridCounts(r *online.Result) map[string]int64 {
	return map[string]int64{
		"airings":       int64(r.OnlineAirings),
		"stolen_slots":  int64(r.StolenSlots),
		"horizon_slots": int64(r.HorizonSlots),
		"push_served":   int64(r.PushServed),
		"online_served": int64(r.OnlineServed),
		"digest_hi":     int64(r.TraceDigest >> 32),
		"digest_lo":     int64(r.TraceDigest & 0xffffffff),
	}
}

// checkHybrid verifies one online.Run call against the serial reference
// (every field but the recorded flows) and its counts against the first
// call's.
func checkHybrid(res *result, r, ref *online.Result, first *map[string]int64, call int) {
	want := *ref
	want.Flows, want.ServedOnline = nil, nil
	if !reflect.DeepEqual(*r, want) {
		res.fail("call %d: online.Run differs from online.RunSerial (digest %016x, want %016x)",
			call, r.TraceDigest, ref.TraceDigest)
	}
	res.checkRepeat(first, hybridCounts(r), call)
}

func runHybridOnline(opts options, res *result) error {
	requests := hybridRequests
	if opts.tiny {
		requests = hybridRequestsTiny
	}
	sw := newStopwatch(res.tracer)
	var in *hybridInputs
	setup, err := medianSetup(func() (err error) {
		in, err = buildHybrid(opts.seed, requests, sw)
		return err
	})
	if err != nil {
		return err
	}
	res.metrics["setup_s"] = setup
	ref, missRatio, err := hybridReference(in)
	if err != nil {
		return err
	}
	if opts.trace {
		res.metrics["core.analyze_ms"] = 1e3 * sw.median("core.Analyze")
		res.metrics["pamad.build_ms"] = 1e3 * sw.median("pamad.Build")
		return traceHybrid(opts, res, in, ref)
	}

	var lat []float64
	var first map[string]int64
	var allocs, served int64
	start := time.Now()
	for call := 0; call == 0 || !deadline(start, opts.seconds); call++ {
		a0 := totalAlloc()
		t0 := time.Now()
		r, err := online.Run(in.prog, in.stream, hybridConfig)
		d := time.Since(t0).Seconds()
		allocs += int64(totalAlloc() - a0)
		if err != nil {
			return err
		}
		lat = append(lat, d)
		checkHybrid(res, r, ref, &first, call)
		served = int64(r.PushServed + r.OnlineServed)
		res.attempted += int64(r.Requests)
		res.failed += int64(r.Requests) - served
	}
	p50 := median(lat)
	res.metrics["requests_per_s"] = float64(served) / p50
	res.metrics["latency_p50_ms"] = 1e3 * p50
	res.metrics["latency_p90_ms"] = 1e3 * quantile(lat, 0.9)
	res.metrics["wait_p50_slots"] = ref.Flow.P50
	res.metrics["wait_p99_slots"] = ref.Flow.P99
	res.metrics["miss_ratio"] = missRatio
	res.metrics["alloc_bytes_per_op"] = float64(allocs) / float64(res.attempted)
	res.metrics["analytic_delay_slots"] = in.a.AvgDelay()
	fmt.Fprintf(res.log, "%s: %d calls of %d requests, median %.1f ms, p90 %.1f ms; setup %.2f ms\n",
		opts.workload, len(lat), requests, 1e3*p50, 1e3*quantile(lat, 0.9), 1e3*setup)
	return nil
}

// traceHybrid is the traced pass of the online tier. online.Run draws the
// stream four times (three admission passes, one measurement pass),
// analyses the push program once, looks up each request's next push
// airing and folds flow and delay factor per request; those layers are
// replayed from outside with the call's counts and reconciled against the
// call's CPU time. The residual is the online tier itself: the serial
// decision pass, the LWF queue and the airing index.
func traceHybrid(opts options, res *result, in *hybridInputs, ref *online.Result) error {
	t := res.tracer
	L := float64(in.prog.Length())
	n := in.stream.Count()
	pages, offs := requestsOf(in.stream, L)
	gs := in.prog.GroupSet()
	factors := make([]float64, n)
	for i, p := range pages {
		factors[i] = math.Max(1, ref.Flows[i]/float64(gs.TimeOf(p)))
	}
	next := make([]float64, n)

	var untraced []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := online.Run(in.prog, in.stream, hybridConfig); err != nil {
			return err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
	}

	var first map[string]int64
	var iters int
	var wall float64
	var cpu cpuTimes
	var last *online.Result
	layers := map[string]float64{}
	start := time.Now()
	for ; iters == 0 || !deadline(start, opts.seconds); iters++ {
		root := t.begin("iteration", 0)
		c0 := cpuNow()
		id := t.begin("online.Run", root)
		r, err := online.Run(in.prog, in.stream, hybridConfig)
		wall += t.end(id, int64(n))
		cpu = cpu.add(cpuNow().sub(c0))
		if err != nil {
			return err
		}
		checkHybrid(res, r, ref, &first, iters)
		last = r
		res.attempted += int64(r.Requests)
		res.failed += int64(r.Requests - r.PushServed - r.OnlineServed)

		layers["workload.draw"] += t.timed("workload.Cursor", root, 4*int64(n), func() { drawWalks(in.stream, 4) })
		layers["core.analyze"] += t.timed("core.Analyze", root, 1, func() { core.Analyze(in.prog) })
		layers["core.lookup"] += t.timed("core.NextAfter", root, int64(n), func() {
			for i, p := range pages {
				next[i] = in.a.NextAfter(p, offs[i])
			}
		})
		var ferr error
		layers["stats.fold"] += t.timed("stats.fold", root, int64(n), func() {
			ferr = foldReplay(ref.Flows, factors, L/(1<<20), 64*L, 0.5, 4096)
		})
		if ferr != nil {
			return ferr
		}
		t.end(root, 0)
	}

	k := float64(iters)
	for name := range layers {
		layers[name] /= k
	}
	wall /= k
	cpu = cpuTimes{cpu.user / k, cpu.sys / k}
	m := res.metrics
	m["workload.draw_ns_per_req"] = 1e9 * layers["workload.draw"] / float64(4*n)
	m["core.lookup_ns_per_req"] = 1e9 * layers["core.lookup"] / float64(n)
	m["stats.fold_ns_per_req"] = 1e9 * layers["stats.fold"] / float64(n)
	m["online.run_s"] = wall
	m["online.airings"] = float64(last.OnlineAirings)
	m["online.stolen_slots"] = float64(last.StolenSlots)
	m["online.horizon_slots"] = float64(last.HorizonSlots)
	m["online.served_online_ratio"] = float64(last.OnlineServed) / float64(last.Requests)
	m["cpu_user_s"] = cpu.user
	m["cpu_sys_s"] = cpu.sys
	attribution{
		e2e: cpu.total(), e2eWall: wall, untraced: median(untraced),
		layers: layers, residual: "online.self_s",
	}.report(res, "CPU seconds per online.Run call")
	return nil
}
