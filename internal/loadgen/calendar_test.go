package loadgen

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/workload"
)

// TestClientSize pins the client struct at 48 bytes: the calendar's
// intrusive link must not grow the per-client footprint.
func TestClientSize(t *testing.T) {
	if got := unsafe.Sizeof(client{}); got != 48 {
		t.Errorf("client is %d bytes, want 48", got)
	}
}

// TestCalendarWindow pins the calendar invariant: a client may be filed
// anywhere from the slot being drained up to one window ahead of it, and
// filing it behind that slot or a whole window ahead — where it would
// alias another slot's bucket — is a hard error.
func TestCalendarWindow(t *testing.T) {
	const cycleLen = 414
	q := newCalendar(cycleLen)
	window := q.mask + 1
	if window < 2*cycleLen+1 || window&q.mask != 0 {
		t.Fatalf("window %d: want a power of two >= %d", window, 2*cycleLen+1)
	}
	const cur = 5000
	clients := []client{
		{glob: 0, next: cur},
		{glob: 1, next: cur + window - 1},
		{glob: 2, next: cur + 1},
		{glob: 3, next: cur + 1},
		{glob: 4, next: cur + window},
		{glob: 5, next: cur - 1},
	}
	for i := range clients[:4] {
		if err := q.push(clients, int32(i), cur); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 4; i < len(clients); i++ {
		if err := q.push(clients, int32(i), cur); err == nil {
			t.Errorf("client due at slot %d filed at slot %d without error", clients[i].next, cur)
		}
	}
	chain := func(slot int64) []int64 {
		var globs []int64
		for i := q.take(slot); i >= 0; i = clients[i].link {
			globs = append(globs, clients[i].glob)
		}
		return globs
	}
	for _, tc := range []struct {
		slot int64
		want []int64
	}{
		{cur, []int64{0}},
		{cur + 1, []int64{3, 2}},
		{cur + window - 1, []int64{1}},
		{cur + 1, nil}, // take empties the bucket
	} {
		if got := chain(tc.slot); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("slot %d: chain %v, want %v", tc.slot, got, tc.want)
		}
	}
}

// neverAiredScenario is a hand-built two-channel program in which page 1
// straddles both channels and page 3 never airs, with a shuffled
// (unsorted) slice stream over all four pages spanning four shards.
func neverAiredScenario(t *testing.T) (*core.Analysis, workload.Stream) {
	t.Helper()
	gs, err := core.NewGroupSet([]core.Group{{Time: 2, Count: 2}, {Time: 4, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.NewProgram(gs, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []struct {
		ch, slot int
		page     core.PageID
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 0}, {0, 3, 2},
		{1, 0, 1}, {1, 2, 2},
	} {
		if err := prog.Place(cell.ch, cell.slot, cell.page); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	reqs := make([]workload.Request, 3*workload.ShardSize+777)
	for i := range reqs {
		reqs[i] = workload.Request{Page: core.PageID(rng.Intn(4)), Arrival: 40 * rng.Float64()}
	}
	return core.Analyze(prog), workload.SliceStream(reqs)
}

// TestRunStreamCalendarEdges drives the calendar through its edge cases —
// long retry chains, give-ups at every bound, a tiny ring, arrivals that
// wrap past a one-cycle bound, never-aired pages — and requires the
// Result to be bit-identical to the chaos engine and the same at one to
// four workers.
func TestRunStreamCalendarEdges(t *testing.T) {
	cases := []struct {
		name      string
		fault     chaos.Config
		ringSlots int
		neverAir  bool
		giveUps   bool // some clients must hit the MaxCycles bound
	}{
		{name: "loss0.9-max1", fault: chaos.Config{Seed: 4, Loss: 0.9, MaxCycles: 1}, giveUps: true},
		{name: "loss0.9-max2", fault: chaos.Config{Seed: 4, Loss: 0.9, MaxCycles: 2}, giveUps: true},
		{name: "loss0.9-max64", fault: chaos.Config{Seed: 4, Loss: 0.9, MaxCycles: 64}},
		{name: "ring8", fault: allFaults(6), ringSlots: 8},
		// Fault-free air serves every client at its first opportunity,
		// even one that wraps past a one-cycle bound.
		{name: "wrap-max1", fault: chaos.Config{Seed: 8, MaxCycles: 1}},
		{name: "wrap-max1-churn", fault: chaos.Config{Seed: 8, Churn: 0.2, MaxCycles: 1}, giveUps: true},
		{name: "never-aired", fault: chaos.Config{Seed: 2, Loss: 0.3, MaxCycles: 3}, neverAir: true},
		{name: "never-aired-fault-free", neverAir: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var a *core.Analysis
			var stream workload.Stream
			if tc.neverAir {
				a, stream = neverAiredScenario(t)
			} else {
				a, stream = scenario(t, 300, 3*workload.ShardSize+777, workload.UniformPages, 0, 13)
			}
			want, err := chaos.RunParallel(a, stream, tc.fault, 2)
			if err != nil {
				t.Fatal(err)
			}
			var first *Result
			for workers := 1; workers <= 4; workers++ {
				got, err := RunStream(context.Background(), a, stream, tc.fault,
					Options{Workers: workers, RingSlots: tc.ringSlots})
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				if !reflect.DeepEqual(&got.Result, want) {
					t.Fatalf("%d workers: result diverges from chaos engine:\n ring: %+v\nchaos: %+v",
						workers, got.Result, *want)
				}
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Fatalf("%d workers: result diverges from the single-worker run", workers)
				}
			}
			if tc.giveUps != (first.Unserved > 0) {
				t.Errorf("give-ups %v, want %v: %+v", first.Unserved > 0, tc.giveUps, first.Ledger)
			}
		})
	}
}

// allocsPerClient measures the bytes one RunStream call allocates per
// client (after a warm-up call).
func allocsPerClient(t *testing.T, cfg Config) float64 {
	t.Helper()
	a, stream, err := Materialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := RunStream(context.Background(), a, stream, cfg.Fault, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Clients)
}

// TestRunStreamMemoryPerClient guards the per-client footprint at 2^17
// clients: the 48-byte client struct plus a small share of the
// population-independent state (ring, plan, sketches, calendar). A
// per-client side array would push it past the bound.
func TestRunStreamMemoryPerClient(t *testing.T) {
	const bound = 56
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero-fault", Config{Dist: workload.Uniform}},
		{"faulted", Config{Dist: workload.SSkewed, PageChoice: workload.ZipfPages, Theta: 0.8, Fault: allFaults(1)}},
	} {
		tc.cfg.Clients, tc.cfg.Seed = 2*workload.ShardSize, 1
		if got := allocsPerClient(t, tc.cfg); got > bound {
			t.Errorf("%s: RunStream allocates %.1f B per client, bound %d", tc.name, got, bound)
		}
	}
}
