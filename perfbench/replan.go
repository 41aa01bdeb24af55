package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tcsa/internal/core"
	"tcsa/internal/netcast"
	"tcsa/internal/pamad"
	"tcsa/internal/replan"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// Instance sizes: the paper instance x100, and the paper instance itself
// for the smoke test.
const (
	replanPages     = 100_000
	replanPagesTiny = 1000
	replanGroups    = 8
	// qualityClients is the client population measured against the final
	// schedule for the wait and miss metrics.
	qualityClients = 2 * workload.ShardSize
)

// opKind is one kind of single-page edit.
type opKind int

const (
	opRetire opKind = iota
	opAdd
	opDoubleTime // double the last group's expected time
	opRestoreTime
)

func (k opKind) String() string {
	return [...]string{"RetirePage", "AddPage", "SetExpectedTime(x2)", "SetExpectedTime(x1)"}[k]
}

type editOp struct {
	kind  opKind
	group int
}

// blockOps is the edit sequence of block b. Every block has the same
// make-up: a retire and an add in every group, three more retire/add
// pairs in the last group (the cheap append path) and one doubling of the
// last group's expected time followed at once by its restore. A block
// returns the instance to where it started. The seed and the block index
// only shuffle the order, so a run averages over many orders (what an
// edit costs depends a little on what ran before it) while the
// make-up keeps the latency percentiles on the same edit costs.
func blockOps(seed int64, b int) []editOp {
	var units [][]editOp
	for g := 0; g < replanGroups; g++ {
		units = append(units, []editOp{{opRetire, g}}, []editOp{{opAdd, g}})
	}
	last := replanGroups - 1
	for i := 0; i < 3; i++ {
		units = append(units, []editOp{{opRetire, last}}, []editOp{{opAdd, last}})
	}
	units = append(units, []editOp{{opDoubleTime, last}, {opRestoreTime, last}})
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(b)))
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	var ops []editOp
	for _, u := range units {
		ops = append(ops, u...)
	}
	return ops
}

// blockSize is the number of edits in a block.
var blockSize = len(blockOps(0, 0))

type replanInputs struct {
	eng    *replan.Engine
	ring   *netcast.BroadcastRing
	caster *netcast.Caster
	times  []int // the initial expected times
	abs    int   // next slot the caster airs
}

func buildReplan(pages int, sw *stopwatch) (*replanInputs, error) {
	in := &replanInputs{}
	var gs *core.GroupSet
	if err := sw.lap("workload.GroupSet", func() (err error) {
		gs, err = workload.GroupSet(workload.Uniform, replanGroups, pages, 4, 2)
		return err
	}); err != nil {
		return nil, err
	}
	in.times = gs.Times()
	if err := sw.lap("replan.New", func() (err error) {
		in.eng, err = replan.New(gs, core.CeilDiv(gs.MinChannels(), 5))
		return err
	}); err != nil {
		return nil, err
	}
	err := sw.lap("netcast.NewCaster", func() (err error) {
		prog := in.eng.Snapshot()
		if in.ring, err = netcast.NewBroadcastRing(prog.Channels(), prog.Length()); err != nil {
			return err
		}
		in.caster, err = netcast.NewCaster(prog, in.ring, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	return in, nil
}

// apply runs one edit event on the engine.
func (in *replanInputs) apply(op editOp) (*replan.Delta, error) {
	switch op.kind {
	case opRetire:
		return in.eng.RetirePage(op.group)
	case opAdd:
		return in.eng.AddPage(op.group)
	case opDoubleTime:
		return in.eng.SetExpectedTime(op.group, 2*in.times[op.group])
	default:
		return in.eng.SetExpectedTime(op.group, in.times[op.group])
	}
}

// gridDigest fingerprints a program's grid cell by cell (FNV-1a).
func gridDigest(p *core.Program) uint64 {
	h := uint64(0xcbf29ce484222325)
	for ch := 0; ch < p.Channels(); ch++ {
		for s := 0; s < p.Length(); s++ {
			h = (h ^ uint64(uint32(p.At(ch, s)))) * 0x100000001b3
		}
	}
	return h ^ uint64(p.Channels())<<32 ^ uint64(p.Length())
}

// airThrough is the end-of-block check on the broadcast side: the caster
// airs until the staged program flips in at the next cycle boundary, then
// one whole cycle of it; every polled frame must match the final grid and
// the epoch sequence number must have advanced.
func (in *replanInputs) airThrough(res *result, final *core.Program, block int) {
	seq := in.caster.Epoch().Seq
	for limit := in.abs + 4*final.Length(); in.caster.Epoch().Seq == seq; in.abs++ {
		if in.abs > limit {
			res.fail("block %d: staged program never flipped in (epoch %d)", block, seq)
			return
		}
		in.caster.CastSlot(in.abs)
	}
	ep := in.caster.Epoch()
	if ep.Program != final {
		res.fail("block %d: epoch %d airs a different program than the last staged snapshot", block, ep.Seq)
		return
	}
	for ; in.abs < ep.Base+final.Length(); in.abs++ {
		in.caster.CastSlot(in.abs)
	}
	for ch := 0; ch < final.Channels(); ch++ {
		for s := 0; s < final.Length(); s++ {
			f, st := in.ring.Poll(ch, int64(ep.Base+s))
			if st != netcast.RingOK || f.Page != final.At(ch, s) {
				res.fail("block %d: polled (%d, %d) = page %d status %d, final grid has %d",
					block, ch, s, f.Page, st, final.At(ch, s))
				return
			}
		}
	}
}

// eventRecord is what one timed edit produced.
type eventRecord struct {
	op                     editOp
	latency                float64 // event call until StageProgram returns
	apply, snap, stage     float64 // traced spans inside the latency
	rebuild                float64 // the reference pamad.Build, outside the latency
	kind                   replan.Kind
	placed, changed, bytes int64
	cpu                    cpuTimes
}

// runEvent times one edit: the engine event, the snapshot and the stage,
// then verifies the snapshot against a from-scratch pamad.Build of the
// edited instance, outside the timed region.
func (in *replanInputs) runEvent(res *result, op editOp, t *tracer, parent int) (eventRecord, *core.Program, error) {
	rec := eventRecord{op: op}
	// Collect the previous edit's and the reference build's garbage first,
	// so the edit is timed on its own work; its allocations still count
	// in alloc_bytes_per_op.
	runtime.GC()
	a0 := totalAlloc()
	c0 := cpuNow()
	t0 := time.Now()
	ev := t.begin("event", parent)
	id := t.begin("replan."+op.kind.String(), ev)
	d, err := in.apply(op)
	rec.apply = t.end(id, 1)
	if err != nil {
		return rec, nil, fmt.Errorf("%s group %d: %w", op.kind, op.group, err)
	}
	id = t.begin("core.Snapshot", ev)
	snap := in.eng.Snapshot()
	rec.snap = t.end(id, 1)
	id = t.begin("netcast.StageProgram", ev)
	err = in.caster.StageProgram(snap)
	rec.stage = t.end(id, 1)
	t.end(ev, 1)
	rec.latency = time.Since(t0).Seconds()
	rec.cpu = cpuNow().sub(c0)
	rec.bytes = int64(totalAlloc() - a0)
	if err != nil {
		return rec, nil, err
	}
	rec.kind = d.Kind
	rec.placed = int64(d.PlacedCells)
	rec.changed = int64(d.Moved + d.Added)

	var want *core.Program
	b0 := time.Now()
	id = t.begin("pamad.Build", parent)
	want, _, err = pamad.Build(in.eng.GroupSet(), in.eng.Channels())
	t.end(id, 1)
	rec.rebuild = time.Since(b0).Seconds()
	if err != nil {
		return rec, nil, err
	}
	if got, ref := gridDigest(snap), gridDigest(want); got != ref {
		res.fail("%s group %d (edit %d): grid %016x differs from pamad.Build %016x",
			op.kind, op.group, in.eng.Seq(), got, ref)
	}
	return rec, snap, nil
}

// blockCounts are the exact counts of one block of edits, in order.
func blockCounts(recs []eventRecord) map[string]int64 {
	c := map[string]int64{}
	for i, r := range recs {
		c[fmt.Sprintf("e%02d.kind", i)] = int64(r.kind)
		c[fmt.Sprintf("e%02d.placed", i)] = r.placed
		c[fmt.Sprintf("e%02d.changed", i)] = r.changed
	}
	return c
}

// kindCounts counts each (edit, group, kind) of a block: the same in
// every block, whatever its order.
func kindCounts(recs []eventRecord) map[string]int64 {
	c := map[string]int64{}
	for _, r := range recs {
		c[fmt.Sprintf("%s.g%d.%s", r.op.kind, r.op.group, r.kind)]++
	}
	return c
}

// blockChecks holds what later blocks are compared against: the exact
// counts of each block order seen so far and the first block's kinds.
type blockChecks struct {
	byOrder map[int]map[string]int64
	kinds   map[string]int64
}

// runBlock replays block b's edits, checks the broadcast side at its end
// and compares its counts with earlier blocks: exactly, against an
// earlier block of the same order, and by kind against the first block.
func (in *replanInputs) runBlock(res *result, seed int64, b int, t *tracer, chk *blockChecks) ([]eventRecord, error) {
	ops := blockOps(seed, b)
	root := t.begin("block", 0)
	defer t.end(root, int64(len(ops)))
	recs := make([]eventRecord, 0, len(ops))
	var snap *core.Program
	for _, op := range ops {
		res.attempted++
		rec, s, err := in.runEvent(res, op, t, root)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		snap = s
	}
	in.airThrough(res, snap, b)
	counts := blockCounts(recs)
	if prev, ok := chk.byOrder[b]; ok {
		sameCounts(res, prev, counts, b)
	} else {
		chk.byOrder[b] = counts
	}
	if b == 0 {
		for k, v := range counts {
			res.counts[k] = v
		}
	}
	if chk.kinds == nil {
		chk.kinds = kindCounts(recs)
	} else {
		sameCounts(res, chk.kinds, kindCounts(recs), b)
	}
	return recs, nil
}

func runReplanLive(opts options, res *result) error {
	pages := replanPages
	if opts.tiny {
		pages = replanPagesTiny
	}
	sw := newStopwatch(res.tracer)
	var in *replanInputs
	setup, err := medianSetup(func() (err error) {
		in, err = buildReplan(pages, sw)
		return err
	})
	if err != nil {
		return err
	}
	res.metrics["setup_s"] = setup
	res.metrics["pamad.build_ms"] = 1e3 * sw.median("replan.New")
	// A traced run first replays block 0 untraced: the baseline for the
	// tracing overhead, and an exact-count check against traced block 0.
	chk := &blockChecks{byOrder: map[int]map[string]int64{}}
	var untraced float64 // mean latency of the untraced block
	if opts.trace {
		recs, err := in.runBlock(res, opts.seed, 0, nil, chk)
		if err != nil {
			res.fail("untraced block: %v", err)
			return nil
		}
		for _, r := range recs {
			untraced += r.latency / float64(len(recs))
		}
	}
	var all []eventRecord
	start := time.Now()
	for b := 0; b == 0 || !deadline(start, opts.seconds); b++ {
		recs, err := in.runBlock(res, opts.seed, b, res.tracer, chk)
		if err != nil {
			res.fail("block %d: %v", b, err)
			return nil
		}
		all = append(all, recs...)
	}

	final := in.eng.Snapshot()
	analyze := time.Now()
	fa := core.Analyze(final)
	res.metrics["core.analyze_ms"] = 1e3 * time.Since(analyze).Seconds()
	stream, err := workload.NewStream(final.GroupSet(), final.Length(), workload.RequestConfig{
		Count: qualityClients, Seed: opts.seed,
	})
	if err != nil {
		return err
	}
	quality, err := sim.MeasureStream(fa, stream)
	if err != nil {
		return err
	}

	lat := latencies(all)
	var total, bytes float64
	for _, r := range all {
		total += r.latency
		bytes += float64(r.bytes)
	}
	m := res.metrics
	m["requests_per_s"] = float64(len(all)) / total
	m["latency_p50_ms"] = 1e3 * median(lat)
	m["latency_p90_ms"] = 1e3 * quantile(lat, 0.9)
	m["wait_p50_slots"] = quality.Wait.P50
	m["wait_p99_slots"] = quality.Wait.P99
	m["miss_ratio"] = quality.MissRatio
	m["alloc_bytes_per_op"] = bytes / float64(len(all))
	m["analytic_delay_slots"] = in.eng.Delay()
	fmt.Fprintf(res.log, "%s: %d edits in %d-edit blocks, p50 %.2f ms, p90 %.2f ms; setup %.1f ms\n",
		opts.workload, len(all), blockSize, 1e3*median(lat), 1e3*quantile(lat, 0.9), 1e3*setup)
	if opts.trace {
		reportReplanLayers(res, all, untraced)
	}
	return nil
}

func latencies(recs []eventRecord) []float64 {
	lat := make([]float64, len(recs))
	for i, r := range recs {
		lat[i] = r.latency
	}
	return lat
}

// reportReplanLayers turns the traced edits into the per-layer metrics.
// Each edit's latency is the engine event, the snapshot and the stage,
// plus the benchmark's own glue between them as the residual.
func reportReplanLayers(res *result, recs []eventRecord, untraced float64) {
	m := res.metrics
	n := float64(len(recs))
	var lat, apply, snap, stage, rebuild float64
	var placed, changed int64
	var cpu cpuTimes
	applyG := make([]float64, replanGroups)
	rebuildG := make([]float64, replanGroups)
	for _, r := range recs {
		lat += r.latency
		apply += r.apply
		snap += r.snap
		stage += r.stage
		rebuild += r.rebuild
		placed += r.placed
		changed += r.changed
		cpu = cpu.add(r.cpu)
		if r.op.kind == opRetire || r.op.kind == opAdd {
			applyG[r.op.group] += r.apply
			rebuildG[r.op.group] += r.rebuild
		}
	}
	for _, r := range recs[:blockSize] {
		switch r.kind {
		case replan.KindAppend:
			m["replan.kind_append"]++
		case replan.KindSuffix:
			m["replan.kind_suffix"]++
		case replan.KindRebuild:
			m["replan.kind_rebuild"]++
		}
	}
	for g := 0; g < replanGroups; g++ {
		m[fmt.Sprintf("replan.apply_over_rebuild.g%d", g)] = applyG[g] / rebuildG[g]
	}
	m["replan.apply_ms"] = 1e3 * apply / n
	m["core.snapshot_ms"] = 1e3 * snap / n
	m["netcast.stage_ns"] = 1e9 * stage / n
	m["pamad.rebuild_ms"] = 1e3 * rebuild / n
	m["replan.cells_placed_per_event"] = float64(placed) / n
	m["replan.changed_per_placed"] = float64(changed) / float64(placed)
	m["cpu_user_s"] = cpu.user / n
	m["cpu_sys_s"] = cpu.sys / n
	attribution{
		e2e: lat / n, e2eWall: lat / n, untraced: untraced,
		layers: map[string]float64{
			"replan.apply":         apply / n,
			"core.snapshot":        snap / n,
			"netcast.StageProgram": stage / n,
		},
	}.report(res, "wall seconds per edit")
}
