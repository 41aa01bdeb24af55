package online

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

func mustGroupSet(t *testing.T, d workload.Distribution, h, n, t1, c int) *core.GroupSet {
	t.Helper()
	gs, err := workload.GroupSet(d, h, n, t1, c)
	if err != nil {
		t.Fatalf("GroupSet: %v", err)
	}
	return gs
}

func sliceStream(pages []core.PageID, arrivals []float64) workload.Stream {
	reqs := make([]workload.Request, len(pages))
	for i := range pages {
		reqs[i] = workload.Request{Page: pages[i], Arrival: arrivals[i]}
	}
	return workload.SliceStream(reqs)
}

// materialize drains a stream into parallel page/arrival slices for the
// conformance oracles.
func materialize(stream workload.Stream) (pages []core.PageID, arrivals []float64) {
	cur := stream.NewCursor()
	var r workload.Request
	for k := 0; k < stream.Shards(); k++ {
		cur.Seek(k)
		for cur.Next(&r) {
			pages = append(pages, r.Page)
			arrivals = append(arrivals, r.Arrival)
		}
	}
	return pages, arrivals
}

// toSlotAirings converts the engine's airing log for the oracles.
func toSlotAirings(airings []Airing) []conformance.SlotAiring {
	out := make([]conformance.SlotAiring, len(airings))
	for i, a := range airings {
		out[i] = conformance.SlotAiring{Slot: a.Slot, Channel: a.Channel, Page: a.Page}
	}
	return out
}

// pushRowsOf is the oracle-facing push-owned row count of a split.
func pushRowsOf(prog *core.Program, split Split) int {
	if split.Mode == SplitPureOnline {
		return 0
	}
	return prog.Channels()
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("sjf"); err == nil {
		t.Fatal("ParsePolicy accepted unknown policy")
	}
}

func TestParseSplit(t *testing.T) {
	cases := map[string]Split{
		"pure":       {Mode: SplitPureOnline},
		"reserved":   {Mode: SplitReserved, OnlineChannels: 1},
		"reserved:3": {Mode: SplitReserved, OnlineChannels: 3},
		"steal":      {Mode: SplitSteal},
		"steal:8":    {Mode: SplitSteal, StealThreshold: 8},
		"steal:2.5":  {Mode: SplitSteal, StealThreshold: 2.5},
	}
	for in, want := range cases {
		got, err := ParseSplit(in)
		if err != nil || got != want {
			t.Fatalf("ParseSplit(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "quota", "reserved:x", "steal:"} {
		if _, err := ParseSplit(bad); err == nil {
			t.Fatalf("ParseSplit(%q) succeeded", bad)
		}
	}
	// Round trip through the String form.
	for in := range cases {
		s, err := ParseSplit(in)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseSplit(s.String())
		if err != nil || again != s {
			t.Fatalf("ParseSplit(%q).String() = %q does not round-trip", in, s.String())
		}
	}
}

func TestRunValidation(t *testing.T) {
	gs := mustGroupSet(t, workload.Uniform, 2, 8, 4, 2)
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	stream := sliceStream([]core.PageID{0}, []float64{0})
	if _, err := Run(nil, stream, Config{Split: Split{Mode: SplitPureOnline}}); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := Run(prog, nil, Config{Split: Split{Mode: SplitPureOnline}}); err == nil {
		t.Fatal("nil stream accepted")
	}
	if _, err := Run(prog, stream, Config{Split: Split{Mode: SplitReserved}}); err == nil {
		t.Fatal("reserved split with zero channels accepted")
	}
	if _, err := Run(prog, stream, Config{Policy: Policy(99), Split: Split{Mode: SplitPureOnline}}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Run(prog, stream, Config{Split: Split{Mode: SplitSteal, StealThreshold: -1}}); err == nil {
		t.Fatal("negative steal threshold accepted")
	}
	bad := sliceStream([]core.PageID{99}, []float64{0})
	if _, err := Run(prog, bad, Config{Split: Split{Mode: SplitPureOnline}}); !errors.Is(err, core.ErrPageRange) {
		t.Fatalf("out-of-range page: %v", err)
	}
	neg := sliceStream([]core.PageID{0}, []float64{-1})
	if _, err := Run(prog, neg, Config{Split: Split{Mode: SplitPureOnline}}); !errors.Is(err, core.ErrSlotRange) {
		t.Fatalf("negative arrival: %v", err)
	}
}

// seekCounter wraps a stream and counts the cursors it hands out and the
// Seek calls of each shard across all of them; workers draw concurrently.
type seekCounter struct {
	workload.Stream
	cursors atomic.Int64
	seeks   []atomic.Int64
}

func (s *seekCounter) NewCursor() workload.Cursor {
	s.cursors.Add(1)
	return &countingCursor{Cursor: s.Stream.NewCursor(), s: s}
}

type countingCursor struct {
	workload.Cursor
	s *seekCounter
}

func (c *countingCursor) Seek(k int) {
	c.s.seeks[k].Add(1)
	c.Cursor.Seek(k)
}

// TestRunDrawsStreamOnce: Run reads every shard of its stream exactly
// once, at any worker count, on one cursor per drawing worker.
func TestRunDrawsStreamOnce(t *testing.T) {
	gs := mustGroupSet(t, workload.Uniform, 2, 24, 4, 2)
	prog, err := susc.Build(gs, gs.MinChannels())
	if err != nil {
		t.Fatal(err)
	}
	inner, err := workload.NewPoissonStream(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: 2*workload.ShardSize + 100, Seed: 5},
		Rate:          60,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		stream := &seekCounter{Stream: inner, seeks: make([]atomic.Int64, inner.Shards())}
		cfg := Config{Policy: LWF, Split: Split{Mode: SplitReserved, OnlineChannels: 1}, Workers: workers}
		if _, err := Run(prog, stream, cfg); err != nil {
			t.Fatal(err)
		}
		for k := range stream.seeks {
			if n := stream.seeks[k].Load(); n != 1 {
				t.Errorf("workers %d: shard %d sought %d times, want 1", workers, k, n)
			}
		}
		if n, want := stream.cursors.Load(), int64(min(workers, inner.Shards())); n != want {
			t.Errorf("workers %d: %d cursors, want %d", workers, n, want)
		}
	}
}

// shortCount under-reports Count by one, so its last shard yields more
// than its share.
type shortCount struct{ workload.Stream }

func (s shortCount) Count() int { return s.Stream.Count() - 1 }

// truncated drops the last request of shard 0.
type truncated struct{ workload.Stream }

func (s truncated) NewCursor() workload.Cursor { return &truncCursor{Cursor: s.Stream.NewCursor()} }

type truncCursor struct {
	workload.Cursor
	left int // requests shard 0 still yields; negative elsewhere
}

func (c *truncCursor) Seek(k int) {
	c.left = -1
	if k == 0 {
		c.left = workload.ShardSize - 1
	}
	c.Cursor.Seek(k)
}

func (c *truncCursor) Next(r *workload.Request) bool {
	if c.left == 0 {
		return false
	}
	c.left--
	return c.Cursor.Next(r)
}

// TestRunRejectsMisshapenShards: the measurement pass reads shard k back
// from position k·ShardSize, so a stream whose shards do not hold exactly
// their share of Count is refused.
func TestRunRejectsMisshapenShards(t *testing.T) {
	gs := mustGroupSet(t, workload.Uniform, 2, 8, 4, 2)
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{Count: workload.ShardSize + 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 3; workers++ {
		cfg := Config{Split: Split{Mode: SplitPureOnline}, Workers: workers}
		if _, err := Run(prog, inner, cfg); err != nil {
			t.Fatalf("workers %d: well-formed stream: %v", workers, err)
		}
		for name, bad := range map[string]workload.Stream{"long last shard": shortCount{inner}, "short first shard": truncated{inner}} {
			if _, err := Run(prog, bad, cfg); err == nil {
				t.Errorf("workers %d: %s accepted", workers, name)
			}
		}
	}
}

func TestZeroRequests(t *testing.T) {
	gs := mustGroupSet(t, workload.Uniform, 2, 8, 4, 2)
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(*core.Program, workload.Stream, Config) (*Result, error){Run, RunSerial} {
		res, err := run(prog, workload.SliceStream(nil), Config{Split: Split{Mode: SplitPureOnline}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != 0 || res.OnlineAirings != 0 || res.HorizonSlots != 0 || res.AvgFlow != 0 {
			t.Fatalf("zero-request result not zeroed: %+v", res)
		}
	}
}

// TestPureOnlineFCFSExactFlows pins the engine's slot semantics on a
// hand-checkable single-channel instance: three pages, one request each,
// FCFS order, flow = serve slot - arrival.
func TestPureOnlineFCFSExactFlows(t *testing.T) {
	gs := mustGroupSet(t, workload.Uniform, 1, 3, 16, 2)
	prog, err := susc.Build(gs, 1)
	if err != nil {
		t.Fatal(err)
	}
	stream := sliceStream(
		[]core.PageID{2, 0, 1},
		[]float64{0, 0.5, 0.75},
	)
	res, err := Run(prog, stream, Config{
		Policy:      FCFS,
		Split:       Split{Mode: SplitPureOnline},
		RecordFlows: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 admits only page 2 (arrival 0) and airs it; pages 0 and 1
	// (bucket 1) then go in arrival order: page 0 at slot 1, page 1 at 2.
	wantFlows := []float64{0, 0.5, 1.25}
	for i, want := range wantFlows {
		if res.Flows[i] != want {
			t.Fatalf("flow[%d] = %g, want %g (flows %v)", i, res.Flows[i], want, res.Flows)
		}
	}
	if res.OnlineServed != 3 || res.PushServed != 0 {
		t.Fatalf("pure online attribution: %+v", res)
	}
	if res.MaxFlow != 1.25 || res.AvgFlow != (0+0.5+1.25)/3 {
		t.Fatalf("flow summary: avg %g max %g", res.AvgFlow, res.MaxFlow)
	}
	want := []Airing{{0, 0, 2}, {1, 0, 0}, {2, 0, 1}}
	if len(res.Airings) != len(want) {
		t.Fatalf("airings %v", res.Airings)
	}
	for i := range want {
		if res.Airings[i] != want[i] {
			t.Fatalf("airing[%d] = %+v, want %+v", i, res.Airings[i], want[i])
		}
	}
}

// TestConservationAllPoliciesAndSplits is the request-clearing conservation
// gate of the acceptance criteria: every policy under every split serves
// every request exactly once at its first on-air instant, never preempting
// a filled push cell, on a PAMAD program with spilled pages (scarce
// channels) so both tiers genuinely compete.
func TestConservationAllPoliciesAndSplits(t *testing.T) {
	gs := mustGroupSet(t, workload.Uniform, 4, 80, 2, 2)
	prog, _, err := pamad.Build(gs, 3) // scarce: some pages spill out of the push grid
	if err != nil {
		t.Fatal(err)
	}
	// Guarantee empty cells so the steal splits can reach spilled pages.
	prog.Clear(0, 0)
	prog.Clear(1, prog.Length()-1)
	stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{
		Count: 400, Choice: workload.ZipfPages, Theta: 0.8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	pages, arrivals := materialize(stream)
	splits := []Split{
		{Mode: SplitReserved, OnlineChannels: 1},
		{Mode: SplitReserved, OnlineChannels: 2},
		{Mode: SplitSteal, StealThreshold: 0},
		{Mode: SplitSteal, StealThreshold: 4},
		{Mode: SplitPureOnline},
	}
	for _, policy := range Policies() {
		for _, split := range splits {
			res, err := Run(prog, stream, Config{Policy: policy, Split: split, RecordFlows: true, MaxSlots: 50000})
			if err != nil {
				t.Fatalf("%v/%v: %v", policy, split, err)
			}
			if res.PushServed+res.OnlineServed != res.Requests {
				t.Fatalf("%v/%v: served %d+%d != %d", policy, split, res.PushServed, res.OnlineServed, res.Requests)
			}
			rows := pushRowsOf(prog, split)
			air := toSlotAirings(res.Airings)
			if err := conformance.OnlineConservation(prog, rows, air, pages, arrivals, res.Flows); err != nil {
				t.Fatalf("%v/%v: %v", policy, split, err)
			}
			if err := conformance.PushIntegrity(prog, rows, air); err != nil {
				t.Fatalf("%v/%v: %v", policy, split, err)
			}
			if split.Mode != SplitSteal && res.StolenSlots != 0 {
				t.Fatalf("%v/%v: stole %d slots outside steal mode", policy, split, res.StolenSlots)
			}
			for i, f := range res.Flows {
				if f < 0 {
					t.Fatalf("%v/%v: negative flow %g at %d", policy, split, f, i)
				}
			}
			if res.MaxDelayFactor < 1 || res.AvgDelayFactor < 1 {
				t.Fatalf("%v/%v: delay factors below 1: %+v", policy, split, res)
			}
		}
	}
}

// TestStealRespectsThreshold: with an infinite threshold nothing is stolen;
// with threshold zero the empty row is used and flows improve.
func TestStealRespectsThreshold(t *testing.T) {
	gs := mustGroupSet(t, workload.Uniform, 1, 4, 4, 2)
	// Two channels, row 0 a valid SUSC cycle, row 1 entirely empty.
	prog, err := core.NewProgram(gs, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if err := prog.Place(0, s, core.PageID(s)); err != nil {
			t.Fatal(err)
		}
	}
	stream := sliceStream(
		[]core.PageID{3, 3, 2},
		[]float64{0, 0.25, 0.25},
	)
	never, err := Run(prog, stream, Config{
		Policy:      LWF,
		Split:       Split{Mode: SplitSteal, StealThreshold: math.Inf(1)},
		MaxSlots:    64,
		RecordFlows: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if never.StolenSlots != 0 || never.OnlineServed != 0 {
		t.Fatalf("infinite threshold still stole: %+v", never)
	}
	eager, err := Run(prog, stream, Config{
		Policy:      LWF,
		Split:       Split{Mode: SplitSteal, StealThreshold: 0},
		RecordFlows: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eager.StolenSlots == 0 || eager.OnlineServed == 0 {
		t.Fatalf("zero threshold never stole: %+v", eager)
	}
	if eager.AvgFlow >= never.AvgFlow {
		t.Fatalf("stealing did not improve flow: %g >= %g", eager.AvgFlow, never.AvgFlow)
	}
	pages, arrivals := materialize(stream)
	for _, res := range []*Result{never, eager} {
		if err := conformance.OnlineConservation(prog, prog.Channels(), toSlotAirings(res.Airings), pages, arrivals, res.Flows); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnservableRequestFails: a page outside the push grid under a split
// that never yields an online slot must fail at the slot bound, not loop.
func TestUnservableRequestFails(t *testing.T) {
	gs := mustGroupSet(t, workload.Uniform, 1, 4, 4, 2)
	prog, err := core.NewProgram(gs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		// Page 3 never airs; its cell broadcasts page 0 instead.
		id := core.PageID(s)
		if s == 3 {
			id = 0
		}
		if err := prog.Place(0, s, id); err != nil {
			t.Fatal(err)
		}
	}
	stream := sliceStream([]core.PageID{3}, []float64{0})
	cfg := Config{Policy: LWF, Split: Split{Mode: SplitSteal, StealThreshold: math.Inf(1)}, MaxSlots: 32}
	if _, err := Run(prog, stream, cfg); err == nil {
		t.Fatal("unservable request did not fail")
	}
	if _, err := RunSerial(prog, stream, cfg); err == nil {
		t.Fatal("unservable request did not fail in the reference")
	}
}

// TestLWFDominanceAdversarial runs the conformance adversarial family on a
// single pure-online channel: LWF must beat (or tie) every rival policy on
// total flow, strictly beating the arrival-order and deadline-order
// policies that burn slots on the decoy backlog.
func TestLWFDominanceAdversarial(t *testing.T) {
	const decoys, hot = 5, 3
	gs := mustGroupSet(t, workload.Uniform, 1, decoys+1, 16, 2)
	prog, err := susc.Build(gs, 1)
	if err != nil {
		t.Fatal(err)
	}
	pages, arrivals := conformance.SingleChannelBacklog(hot, decoys)
	stream := sliceStream(pages, arrivals)
	totals := make(map[Policy]float64)
	for _, policy := range Policies() {
		res, err := Run(prog, stream, Config{Policy: policy, Split: Split{Mode: SplitPureOnline}, RecordFlows: true})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if err := conformance.OnlineConservation(prog, 0, toSlotAirings(res.Airings), pages, arrivals, res.Flows); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		var total float64
		for _, f := range res.Flows {
			total += f
		}
		totals[policy] = total
	}
	for _, rival := range []Policy{MRF, EDF, FCFS} {
		if err := conformance.LWFDominance(totals[LWF], rival.String(), totals[rival]); err != nil {
			t.Fatal(err)
		}
	}
	// The backlog family is built to make arrival- and deadline-order
	// scheduling strictly worse, not merely tied.
	if totals[LWF] >= totals[FCFS] {
		t.Fatalf("LWF %g not strictly better than FCFS %g", totals[LWF], totals[FCFS])
	}
	if totals[LWF] >= totals[EDF] {
		t.Fatalf("LWF %g not strictly better than EDF %g", totals[LWF], totals[EDF])
	}
}

// TestReservedKeepsPushValid: under a reserved split the push grid is
// untouched by construction; the oracle-checked as-aired validity is the
// acceptance criterion "push-tier conformance still green under every
// split".
func TestReservedKeepsPushValid(t *testing.T) {
	gs := mustGroupSet(t, workload.Uniform, 3, 30, 2, 2)
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	if err := conformance.ValidFromAnyStart(prog); err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{Count: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, stream, Config{Policy: LWF, Split: Split{Mode: SplitReserved, OnlineChannels: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := conformance.PushIntegrity(prog, prog.Channels(), toSlotAirings(res.Airings)); err != nil {
		t.Fatal(err)
	}
	// The grid itself is immutable through the run, so the Section 3.1
	// guarantee still holds verbatim.
	if err := conformance.ValidFromAnyStart(prog); err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Airings {
		if a.Channel != prog.Channels() {
			t.Fatalf("reserved airing on unexpected channel: %+v", a)
		}
	}
}
