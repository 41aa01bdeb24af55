// Command perfbench is the repository benchmark. It runs one named
// workload through the public functions of the system's layers, checks
// the outputs against a retained reference implementation, and prints one
// JSON result line:
//
//	perfbench --workload fanout_clean --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced pass times every layer from outside, by
// wrapping the calls into its public functions, and the result carries
// the per-layer metrics instead. README.md describes the workloads and
// the metrics; run.py builds the binary and forwards the arguments.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one reported metric: its name and unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every --trace 0 run reports, on every
// workload. README.md gives each workload's definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"requests_per_s", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"wait_p50_slots", "slots"},
	{"wait_p99_slots", "slots"},
	{"miss_ratio", "ratio"},
	{"alloc_bytes_per_op", "B/op"},
	{"analytic_delay_slots", "slots"},
}

// perLayer lists the metrics every --trace 1 run reports. A layer that is
// not on a workload's path reports 0 there.
var perLayer = []metricDef{
	{"workload.draw_ns_per_req", "ns/req"},
	{"core.lookup_ns_per_req", "ns/req"},
	{"core.analyze_ms", "ms"},
	{"core.snapshot_ms", "ms"},
	{"pamad.build_ms", "ms"},
	{"pamad.rebuild_ms", "ms"},
	{"replan.apply_ms", "ms"},
	{"replan.apply_over_rebuild.g0", "ratio"},
	{"replan.apply_over_rebuild.g1", "ratio"},
	{"replan.apply_over_rebuild.g2", "ratio"},
	{"replan.apply_over_rebuild.g3", "ratio"},
	{"replan.apply_over_rebuild.g4", "ratio"},
	{"replan.apply_over_rebuild.g5", "ratio"},
	{"replan.apply_over_rebuild.g6", "ratio"},
	{"replan.apply_over_rebuild.g7", "ratio"},
	{"replan.kind_append", "count"},
	{"replan.kind_suffix", "count"},
	{"replan.kind_rebuild", "count"},
	{"replan.cells_placed_per_event", "cells"},
	{"replan.changed_per_placed", "ratio"},
	{"netcast.publish_ns_per_slot", "ns/slot"},
	{"netcast.frames_published", "count"},
	{"netcast.frames_skipped", "count"},
	{"netcast.poll_ns", "ns"},
	{"netcast.polls", "count"},
	{"netcast.stage_ns", "ns"},
	{"chaos.plan_ms", "ms"},
	{"chaos.classify_ns_per_attempt", "ns"},
	{"loadgen.retries", "count"},
	{"loadgen.served_per_poll", "ratio"},
	{"loadgen.self_s", "s"},
	{"loadgen.cpu_per_wall", "ratio"},
	{"loadgen.overhead_vs_measure", "ratio"},
	{"stats.fold_ns_per_req", "ns/req"},
	{"sim.measure_s", "s"},
	{"online.run_s", "s"},
	{"online.airings", "count"},
	{"online.stolen_slots", "count"},
	{"online.horizon_slots", "count"},
	{"online.served_online_ratio", "ratio"},
	{"online.self_s", "s"},
	{"cpu_user_s", "s"},
	{"cpu_sys_s", "s"},
	{"trace.e2e_s", "s"},
	{"trace.e2e_wall_s", "s"},
	{"trace.layers_s", "s"},
	{"trace.residual_s", "s"},
	{"trace.overhead_s", "s"},
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64 // 0 = exactly one measured call (smoke runs)
	trace    bool
	tiny     bool   // shrink every input, for the smoke test
	out      string // directory for span traces and count records; "" = none
}

// result is what a workload run reports. A failed check makes the run
// incorrect and counts every attempted operation as failed.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	// counts are the exact counts that must repeat between runs with the
	// same seed and inputs.
	counts map[string]int64
	// problems are failed verifications and determinism checks.
	problems []string
	tracer   *tracer
	log      io.Writer // human-readable summaries
}

func newResult(t *tracer, log io.Writer) *result {
	return &result{metrics: map[string]float64{}, counts: map[string]int64{}, tracer: t, log: log}
}

// fail records a failed check; the run still reports, as incorrect.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloadFunc runs one workload. An error means the program under test
// failed an operation; the run then reports every operation as failed.
type workloadFunc func(opts options, res *result) error

var workloads = map[string]workloadFunc{
	"fanout_clean":   runFanoutClean,
	"fanout_faulted": runFanoutFaulted,
	"hybrid_online":  runHybridOnline,
	"replan_live":    runReplanLive,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var traceFlag int
	fs.StringVar(&opts.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opts.seed, "seed", 1, "input seed")
	fs.Float64Var(&opts.seconds, "seconds", 10, "measuring time per run; 0 = one measured call")
	fs.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	fs.BoolVar(&opts.tiny, "tiny", false, "shrink every input (smoke test)")
	fs.StringVar(&opts.out, "out", "", "directory for span traces and count records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[opts.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || opts.seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	opts.trace = traceFlag == 1

	var t *tracer
	if opts.trace {
		t = newTracer()
	}
	res := newResult(t, stderr)
	if err := fn(opts, res); err != nil {
		res.fail("%s: %v", opts.workload, err)
	}
	if err := checkCounts(opts, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if t != nil && opts.out != "" {
		path := filepath.Join(opts.out, "traces", fmt.Sprintf("%s-seed%d.json", opts.workload, opts.seed))
		if err := t.write(path, opts.workload, opts.seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s\n", path)
	}
	line, err := encodeResult(opts, res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "FAILED: %s\n", p)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// encodeResult renders the result line. End-to-end metrics must all have
// been set by the workload; per-layer metrics default to 0 (layer not on
// this workload's path).
func encodeResult(opts options, res *result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	correct := len(res.problems) == 0
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !opts.trace && correct {
			return nil, fmt.Errorf("workload %s did not report %s", opts.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
	}
	if res.attempted < 1 {
		res.attempted = 1
	}
	if !correct {
		res.failed = res.attempted
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.failed, metrics})
}

// checkCounts is the cross-process half of the exact-count determinism
// check (each workload also compares every repeated call within the run):
// the first run of a binary on a (workload, seed, size) stores its counts,
// every later one must reproduce them exactly. Records are keyed by the
// executable's hash, so a rebuilt program starts fresh.
func checkCounts(opts options, res *result) error {
	if opts.out == "" || len(res.counts) == 0 || len(res.problems) > 0 {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	size := "full"
	if opts.tiny {
		size = "tiny"
	}
	dir := filepath.Join(opts.out, "counts")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%s.json",
		opts.workload, size, opts.seed, hex.EncodeToString(sum[:6])))
	want, err := json.Marshal(res.counts)
	if err != nil {
		return err
	}
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if !bytes.Equal(bytes.TrimSpace(prev), want) {
			res.fail("exact counts differ from an earlier run with the same seed: %s vs %s", prev, want)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, append(want, '\n'), 0o644)
	default:
		return err
	}
}

// sameCounts compares a repeated call's exact counts with the first
// call's, recording the first difference.
func sameCounts(res *result, first, got map[string]int64, call int) {
	keys := make([]string, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != first[k] {
			res.fail("call %d: count %s = %d, first call had %d", call, k, got[k], first[k])
			return
		}
	}
}

// checkRepeat keeps the first call's exact counts, for the cross-process
// check too, and compares every later call's with them.
func (r *result) checkRepeat(first *map[string]int64, counts map[string]int64, call int) {
	if *first != nil {
		sameCounts(r, *first, counts, call)
		return
	}
	*first = counts
	for k, v := range counts {
		r.counts[k] = v
	}
}

// deadline reports whether a measuring loop that started at start has
// run for the requested time. With seconds 0 the loop makes one call.
func deadline(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}
