package loadgen

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/online"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// scenario builds a paper-style instance, its PAMAD program at the knee
// channel count, and a request stream over it.
func scenario(tb testing.TB, pages, count int, choice workload.PageChoice, theta float64, seed int64) (*core.Analysis, workload.Stream) {
	tb.Helper()
	gs, err := workload.GroupSet(workload.Uniform, 6, pages, 4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		tb.Fatal(err)
	}
	stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{
		Count:  count,
		Seed:   seed,
		Choice: choice,
		Theta:  theta,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return core.Analyze(prog), stream
}

// allFaults is the canonical every-class fault mix (the airbench chaos
// baseline's), exercising stall, i.i.d. and burst loss, corruption,
// churn, jitter and the degradation replan at once.
func allFaults(seed int64) chaos.Config {
	return chaos.Config{
		Seed:       seed,
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

// TestRunStreamZeroFaultMatchesMeasureStream pins the transport-identity
// anchor: with faults off, driving clients through the broadcast ring
// reproduces sim.MeasureStream bit for bit — metrics, and the chaos
// engine's trace digest too.
func TestRunStreamZeroFaultMatchesMeasureStream(t *testing.T) {
	a, stream := scenario(t, 300, workload.ShardSize+777, workload.UniformPages, 0, 11)
	res, err := RunStream(context.Background(), a, stream, chaos.Config{}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.MeasureStream(a, stream)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != *m {
		t.Errorf("metrics diverge from sim.MeasureStream:\n ring: %+v\n  sim: %+v", res.Metrics, *m)
	}
	if res.Ledger != (chaos.Ledger{}) {
		t.Errorf("zero-fault run has non-empty ledger: %+v", res.Ledger)
	}
	want, err := chaos.Run(a, stream, chaos.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceDigest != want.TraceDigest {
		t.Errorf("trace digest %016x, chaos engine %016x", res.TraceDigest, want.TraceDigest)
	}
}

// TestRunStreamMatchesChaos pins full-Result bit-identity against the
// chaos measurement engine across fault mixes and page-choice models —
// the loadgen harness is the same experiment observed through the
// transport.
func TestRunStreamMatchesChaos(t *testing.T) {
	cases := []struct {
		name   string
		fault  chaos.Config
		choice workload.PageChoice
		theta  float64
	}{
		{name: "all-faults", fault: allFaults(1)},
		{
			name:   "zipf-high-loss",
			fault:  chaos.Config{Seed: 7, Loss: 0.5, Churn: 0.1, MaxCycles: 2},
			choice: workload.ZipfPages,
			theta:  0.8,
		},
		{
			name:  "stall-corrupt-jitter",
			fault: chaos.Config{Seed: 3, StallEvery: 32, StallFor: 4, Corrupt: 0.05, Jitter: 0.1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, stream := scenario(t, 300, workload.ShardSize+777, tc.choice, tc.theta, 5)
			res, err := RunStream(context.Background(), a, stream, tc.fault, Options{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			want, err := chaos.RunParallel(a, stream, tc.fault, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&res.Result, want) {
				t.Errorf("result diverges from chaos engine:\n ring: %+v\nchaos: %+v", res.Result, *want)
			}
		})
	}
}

// TestRunStreamWorkerDeterminism pins that the Result — including the
// order-sensitive trace digest and the server-side fault counters — is
// identical at any worker count and any ring depth, including a
// pathologically tiny ring that forces constant flow-control pressure.
func TestRunStreamWorkerDeterminism(t *testing.T) {
	a, stream := scenario(t, 300, workload.ShardSize+777, workload.UniformPages, 0, 9)
	fault := allFaults(2)
	base, err := RunStream(context.Background(), a, stream, fault, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Workers: 4},
		{Workers: 0},
		{Workers: 3, RingSlots: 8},
	} {
		got, err := RunStream(context.Background(), a, stream, fault, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("%+v: result diverges from single-worker run", opts)
		}
	}
	if base.FaultStats.DroppedFrames == 0 || base.FaultStats.StalledSlots == 0 {
		t.Errorf("faulted run recorded no server-side faults: %+v", base.FaultStats)
	}
}

// TestRunMatchesChaosEndToEnd pins the top-level Run wrapper: the
// scenario it materialises measures identically to the chaos engine run
// on the same manually built instance.
func TestRunMatchesChaosEndToEnd(t *testing.T) {
	cfg := Config{
		Clients: 5000,
		Workers: 2,
		Dist:    workload.SSkewed,
		Pages:   200,
		Groups:  5,
		Seed:    21,
		Fault:   chaos.Config{Seed: 21, Loss: 0.2, Jitter: 0.2},
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := workload.GroupSet(workload.SSkewed, 5, 200, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{Count: 5000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	want, err := chaos.Run(core.Analyze(prog), stream, cfg.Fault)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&res.Result, want) {
		t.Errorf("Run result diverges from chaos engine:\n ring: %+v\nchaos: %+v", res.Result, *want)
	}
	if res.Channels != prog.Channels() || res.CycleLen != prog.Length() || res.Clients != 5000 {
		t.Errorf("scenario echo wrong: %d channels %d cycle %d clients",
			res.Channels, res.CycleLen, res.Clients)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Clients: -1}); err == nil {
		t.Error("expected error for negative client count")
	}
	res, err := Run(context.Background(), Config{Clients: 0, Pages: 100, Groups: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 0 || res.TraceDigest != 0 {
		t.Errorf("zero-client run not empty: %+v", res.Result)
	}
	if _, err := RunStream(context.Background(), nil, nil, chaos.Config{}, Options{}); err == nil {
		t.Error("expected error for nil analysis")
	}
}

// TestEnginesReportLowestBadRequest pins one validation error across the
// four engines: a three-shard stream with out-of-range pages in shards 1
// and 2 reports the lower request at every worker count, whichever worker
// owns which shard.
func TestEnginesReportLowestBadRequest(t *testing.T) {
	a, stream := scenario(t, 200, 2*workload.ShardSize+6, workload.UniformPages, 0, 5)
	reqs := make([]workload.Request, 0, stream.Count())
	cur := stream.NewCursor()
	var r workload.Request
	for k := 0; k < stream.Shards(); k++ {
		cur.Seek(k)
		for cur.Next(&r) {
			reqs = append(reqs, r)
		}
	}
	bad := core.PageID(a.Program().GroupSet().Pages())
	reqs[65539].Page = bad
	reqs[131077].Page = bad
	bs := workload.SliceStream(reqs)
	engines := []struct {
		name string
		run  func(workers int) error
	}{
		{"sim", func(w int) error {
			_, err := sim.MeasureParallel(a, bs, w)
			return err
		}},
		{"chaos", func(w int) error {
			_, err := chaos.RunParallel(a, bs, chaos.Config{}, w)
			return err
		}},
		{"online", func(w int) error {
			_, err := online.Run(a.Program(), bs, online.Config{Split: online.Split{Mode: online.SplitReserved, OnlineChannels: 1}, Workers: w})
			return err
		}},
		{"loadgen", func(w int) error {
			_, err := RunStream(context.Background(), a, bs, chaos.Config{}, Options{Workers: w})
			return err
		}},
	}
	for _, e := range engines {
		for w := 1; w <= 3; w++ {
			err := e.run(w)
			if !errors.Is(err, core.ErrPageRange) || !strings.Contains(err.Error(), "request 65539 page") {
				t.Errorf("%s at %d workers: got %v, want ErrPageRange at request 65539", e.name, w, err)
			}
		}
	}
}

// TestRunStreamContextCancel pins that cancellation aborts a run instead
// of deadlocking the broadcaster/worker handshake.
func TestRunStreamContextCancel(t *testing.T) {
	a, stream := scenario(t, 100, 2000, workload.UniformPages, 0, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunStream(ctx, a, stream, allFaults(1), Options{Workers: 2, RingSlots: 8}); err == nil {
		t.Error("expected error from cancelled context")
	}
}

// TestRunStreamHundredKClients is the acceptance-scale anchor: 131072
// simulated clients through the ring, faults off, bit-for-bit equal to
// sim.MeasureStream.
func TestRunStreamHundredKClients(t *testing.T) {
	a, stream := scenario(t, 1000, 2*workload.ShardSize, workload.UniformPages, 0, 1)
	res, err := RunStream(context.Background(), a, stream, chaos.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.MeasureStream(a, stream)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != *m {
		t.Errorf("100k-client metrics diverge from sim.MeasureStream:\n ring: %+v\n  sim: %+v", res.Metrics, *m)
	}
}
