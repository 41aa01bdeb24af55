package loadgen

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/netcast"
	"tcsa/internal/workload"
)

// TestRunStreamFaultStatsMatchFullCast pins the accounted tail: however
// early the clients drain, SlotsAired and FaultStats equal a fresh
// caster that casts every one of those slots under the full plan, at any
// worker count and ring depth.
func TestRunStreamFaultStatsMatchFullCast(t *testing.T) {
	a, stream := scenario(t, 200, 2*workload.ShardSize+100, workload.UniformPages, 0, 13)
	prog := a.Program()
	for _, tc := range []struct {
		name  string
		fault chaos.Config
	}{
		{"inactive", chaos.Config{Seed: 4}},
		{"all-faults", allFaults(4)},
		{"loss-only", chaos.Config{Seed: 4, Loss: 0.2}},
	} {
		plan, err := chaos.NewPlan(tc.fault, prog.Channels(), prog.Length())
		if err != nil {
			t.Fatal(err)
		}
		for workers := 1; workers <= 3; workers++ {
			for _, ringSlots := range []int{8, 0} {
				res, err := RunStream(context.Background(), a, stream, tc.fault, Options{Workers: workers, RingSlots: ringSlots})
				if err != nil {
					t.Fatalf("%s at %d workers, ring %d: %v", tc.name, workers, ringSlots, err)
				}
				maxCycles := tc.fault.CycleBound()
				if !tc.fault.Active() {
					maxCycles = max(maxCycles, 2)
				}
				if want := int64(maxCycles) * int64(prog.Length()); res.SlotsAired != want {
					t.Errorf("%s at %d workers, ring %d: %d slots aired, want %d",
						tc.name, workers, ringSlots, res.SlotsAired, want)
				}
				ring, err := netcast.NewBroadcastRing(prog.Channels(), 0)
				if err != nil {
					t.Fatal(err)
				}
				caster, err := netcast.NewCaster(prog, ring, plan)
				if err != nil {
					t.Fatal(err)
				}
				for abs := 0; abs < int(res.SlotsAired); abs++ {
					caster.CastSlot(abs)
				}
				if got, want := res.FaultStats, caster.Faults(); got != want {
					t.Errorf("%s at %d workers, ring %d: fault stats %+v, full cast %+v",
						tc.name, workers, ringSlots, got, want)
				}
			}
		}
	}
}

// gatedStream wraps a stream so that the cursor reading any shard in
// block stops before that shard's first request until release closes.
// blocked receives one value per cursor that stops.
type gatedStream struct {
	workload.Stream
	block   map[int]bool
	release <-chan struct{}
	blocked chan int
}

type gatedCursor struct {
	workload.Cursor
	s     *gatedStream
	shard int
	first bool
}

func (s *gatedStream) NewCursor() workload.Cursor {
	return &gatedCursor{Cursor: s.Stream.NewCursor(), s: s}
}

func (c *gatedCursor) Seek(shard int) {
	c.shard, c.first = shard, true
	c.Cursor.Seek(shard)
}

func (c *gatedCursor) Next(r *workload.Request) bool {
	if c.first && c.s.block[c.shard] {
		c.s.blocked <- c.shard
		<-c.s.release
	}
	c.first = false
	return c.Cursor.Next(r)
}

// parkedIn counts the goroutines blocked in engine.park under fn
// ("broadcast" or "work"), from a dump of every goroutine's stack.
func parkedIn(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "loadgen.(*engine).park(") && strings.Contains(g, "loadgen.(*engine)."+fn+"(") {
			n++
		}
	}
	return n
}

// awaitParked polls until at least n goroutines are parked under fn.
func awaitParked(t *testing.T, fn string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for parkedIn(fn) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d parked %s goroutine(s)", n, fn)
		}
		time.Sleep(time.Millisecond)
	}
}

// runAsync starts RunStream and returns a channel that yields its error.
func runAsync(ctx context.Context, a *core.Analysis, stream workload.Stream, fault chaos.Config, opts Options) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := RunStream(ctx, a, stream, fault, opts)
		done <- err
	}()
	return done
}

// awaitRun waits a bounded time for a run started by runAsync.
func awaitRun(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("RunStream did not return")
		return nil
	}
}

// awaitGoroutines polls until the goroutine count is back to baseline.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunStreamCancelWhileParked pins cancellation on the blocking paths:
// with worker 1 held in its build (watermark 0), the broadcaster fills an
// 8-slot ring and parks, and worker 0 parks on the first slot it cannot
// read yet. Cancelling then returns the context error promptly, and every
// goroutine the run started exits.
func TestRunStreamCancelWhileParked(t *testing.T) {
	a, stream := scenario(t, 200, 2*workload.ShardSize, workload.UniformPages, 0, 6)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gated := &gatedStream{Stream: stream, block: map[int]bool{1: true}, release: ctx.Done(), blocked: make(chan int, 1)}
	baseline := runtime.NumGoroutine()
	done := runAsync(ctx, a, gated, chaos.Config{}, Options{Workers: 2, RingSlots: 8})
	<-gated.blocked
	awaitParked(t, "broadcast", 1)
	awaitParked(t, "work", 1)
	cancel()
	if err := awaitRun(t, done); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	awaitGoroutines(t, baseline)
}

// TestRunStreamBadRequestWhileParked pins the failure path on the
// blocking paths: the shards holding bad requests are held until the
// broadcaster has parked on a full 8-slot ring, then released. The run
// must report the lowest bad request at every worker count, without
// hanging, and leave no goroutine behind.
func TestRunStreamBadRequestWhileParked(t *testing.T) {
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
	for workers := 1; workers <= 3; workers++ {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			release := make(chan struct{})
			var once sync.Once
			open := func() { once.Do(func() { close(release) }) }
			defer open()
			gated := &gatedStream{
				Stream:  workload.SliceStream(reqs),
				block:   map[int]bool{1: true, 2: true},
				release: release,
				blocked: make(chan int, 2),
			}
			baseline := runtime.NumGoroutine()
			done := runAsync(context.Background(), a, gated, chaos.Config{}, Options{Workers: workers, RingSlots: 8})
			<-gated.blocked
			awaitParked(t, "broadcast", 1)
			open()
			err := awaitRun(t, done)
			if !errors.Is(err, core.ErrPageRange) || !strings.Contains(err.Error(), "request 65539 page") {
				t.Fatalf("got %v, want ErrPageRange at request 65539", err)
			}
			awaitGoroutines(t, baseline)
		})
	}
}
