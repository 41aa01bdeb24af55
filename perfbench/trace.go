package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// span is one timed call into a layer's public functions, recorded from
// outside the layer. Spans of one traced iteration share a parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"` // operations inside the span
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so untraced runs pay no bookkeeping.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.origin)),
	})
	return len(t.spans)
}

// end closes span id, recording the operations it covered, and returns
// its duration in seconds.
func (t *tracer) end(id int, count int64) float64 {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.origin))
	s.Count = count
	return float64(s.End-s.Start) / 1e9
}

// timed runs f inside a span and returns the span's duration in seconds.
func (t *tracer) timed(name string, parent int, count int64, f func()) float64 {
	id := t.begin(name, parent)
	f()
	return t.end(id, count)
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuTimes is the process's user and system CPU time, from getrusage.
type cpuTimes struct{ user, sys float64 }

func cpuNow() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{float64(ru.Utime.Nano()) / 1e9, float64(ru.Stime.Nano()) / 1e9}
}

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }
func (c cpuTimes) add(o cpuTimes) cpuTimes { return cpuTimes{c.user + o.user, c.sys + o.sys} }
func (c cpuTimes) total() float64          { return c.user + c.sys }

// totalAlloc is runtime.MemStats.TotalAlloc: bytes allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// quantile is the nearest-rank p-quantile of xs (xs is not modified).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Set-up is repeated at least minSetupReps times and until it has run
// for setupSeconds (at most maxSetupReps times); setup_s is the median,
// so neither a cold first build nor a stray slow one sets the figure.
const (
	minSetupReps = 7
	maxSetupReps = 1001
	setupSeconds = 0.5
)

// medianSetup runs build repeatedly and returns the median wall time in
// seconds. The last build's state is the one the run uses.
func medianSetup(build func() error) (float64, error) {
	var times []float64
	var total float64
	for len(times) < minSetupReps || (total < setupSeconds && len(times) < maxSetupReps) {
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		d := time.Since(start).Seconds()
		times = append(times, d)
		total += d
	}
	return median(times), nil
}

// attribution is a traced workload's reconciliation: the layer times plus
// the named residual add up to the traced end-to-end figure.
type attribution struct {
	e2e      float64 // traced end-to-end figure, on the workload's clock
	e2eWall  float64 // traced wall time of the same calls
	untraced float64 // untraced wall time of the same calls
	layers   map[string]float64
	residual string // metric naming the residual, or "" for trace.residual_s only
}

// report writes the trace.* metrics and prints the per-layer table.
func (a attribution) report(res *result, clock string) {
	w := res.log
	var sum float64
	names := make([]string, 0, len(a.layers))
	for n, v := range a.layers {
		names = append(names, n)
		sum += v
	}
	sort.Strings(names)
	residual := a.e2e - sum
	res.metrics["trace.e2e_s"] = a.e2e
	res.metrics["trace.e2e_wall_s"] = a.e2eWall
	res.metrics["trace.layers_s"] = sum
	res.metrics["trace.residual_s"] = residual
	res.metrics["trace.overhead_s"] = a.e2eWall - a.untraced
	if a.residual != "" {
		res.metrics[a.residual] = residual
	}
	label := a.residual
	if label == "" {
		label = "residual"
	}
	fmt.Fprintf(w, "per-layer attribution (%s):\n", clock)
	for _, n := range names {
		fmt.Fprintf(w, "  %-22s %12.6f s  %6.1f%%\n", n, a.layers[n], 100*a.layers[n]/a.e2e)
	}
	fmt.Fprintf(w, "  %-22s %12.6f s  %6.1f%%\n", label, residual, 100*residual/a.e2e)
	fmt.Fprintf(w, "  %-22s %12.6f s  (layers + residual = %.6f s)\n", "traced end-to-end", a.e2e, sum+residual)
	fmt.Fprintf(w, "  tracing overhead: traced wall %.6f s - untraced wall %.6f s = %+.6f s\n",
		a.e2eWall, a.untraced, a.e2eWall-a.untraced)
	if math.Abs(sum+residual-a.e2e) > 1e-9*math.Max(1, a.e2e) {
		res.fail("attribution does not reconcile: layers %g + residual %g != %g", sum, residual, a.e2e)
	}
}

// stopwatch times named set-up steps across repetitions, recording a
// span for each when tracing.
type stopwatch struct {
	t    *tracer
	laps map[string][]float64
}

func newStopwatch(t *tracer) *stopwatch {
	return &stopwatch{t: t, laps: map[string][]float64{}}
}

func (s *stopwatch) lap(name string, f func() error) error {
	id := s.t.begin(name, 0)
	start := time.Now()
	err := f()
	s.laps[name] = append(s.laps[name], time.Since(start).Seconds())
	s.t.end(id, 1)
	return err
}

func (s *stopwatch) median(name string) float64 { return median(s.laps[name]) }
