package main

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
	"tcsa/internal/experiments"
	"tcsa/internal/online"
	"tcsa/internal/pamad"
	"tcsa/internal/perf"
	"tcsa/internal/workload"
)

// hybridConfig carries the -hybrid mode flags.
type hybridConfig struct {
	out      string // -hybridout: where to write the report
	baseline string // -hybridbaseline: prior report to compare against ("" = none)
	slowdown float64
	allocs   float64
}

// onlineSeries flattens an online result into the float series the
// trajectory checksum freezes. The trace digest (sim.Mix chain) rides
// along as two 32-bit halves (a uint64 does not fit a float64 exactly), so
// a change of digest moves only those two entries of the series.
func onlineSeries(res *online.Result) []float64 {
	return []float64{
		res.AvgFlow, res.MaxFlow, res.AvgDelayFactor, res.MaxDelayFactor,
		float64(res.Requests), float64(res.PushServed), float64(res.OnlineServed),
		float64(res.OnlineAirings), float64(res.StolenSlots), float64(res.HorizonSlots),
		float64(res.TraceDigest >> 32), float64(res.TraceDigest & 0xffffffff),
	}
}

// hybridBenchInstance builds the gate's main workload: a scarce mid-size
// instance with enough pressure that both tiers carry real load, small
// enough that the gate stays CI-speed.
func hybridBenchInstance() (*core.Program, workload.Stream, online.Config, error) {
	gs, err := workload.GroupSet(workload.Uniform, 8, 400, 4, 2)
	if err != nil {
		return nil, nil, online.Config{}, err
	}
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		return nil, nil, online.Config{}, err
	}
	stream, err := workload.NewPoissonStream(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: 120_000, Seed: 9},
		Rate:          24,
	})
	if err != nil {
		return nil, nil, online.Config{}, err
	}
	ocfg := online.Config{Policy: online.LWF, Split: online.Split{Mode: online.SplitReserved, OnlineChannels: 1}}
	return prog, stream, ocfg, nil
}

// hybridMatrixSpec is the committed shape of the coupled-matrix sample.
func hybridMatrixSpec() (experiments.Params, []float64, []online.Split) {
	p := experiments.DefaultParams()
	p.Pages, p.Groups, p.Requests = 80, 4, 400
	rates := []float64{2, 8}
	splits := []online.Split{
		{Mode: online.SplitReserved, OnlineChannels: 1},
		{Mode: online.SplitPureOnline},
	}
	return p, rates, splits
}

// runHybridBench measures the online hybrid tier and writes the
// BENCH_hybrid.json trajectory. Its load-bearing assertions run in-process
// before any number is committed: the sharded parallel engine must be
// bit-identical to the serial reference at several worker counts, and a
// recorded run must pass the brute-force conservation and push-integrity
// oracles. Only then are the wall-time samples and series checksums
// compared against the baseline.
func runHybridBench(cfg hybridConfig, out io.Writer) error {
	rep := &perf.Report{
		Schema:   perf.SchemaVersion,
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		MaxProcs: runtime.GOMAXPROCS(0),
	}
	add := func(name string, r testing.BenchmarkResult, checksum string) {
		rep.Samples = append(rep.Samples, perf.Sample{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: int64(r.AllocsPerOp()),
			BytesPerOp:  int64(r.AllocedBytesPerOp()),
			Checksum:    checksum,
		})
		fmt.Fprintf(out, "%-24s %12.0f ns/op %10d allocs/op %12d B/op  series %s\n",
			name, rep.Samples[len(rep.Samples)-1].NsPerOp, r.AllocsPerOp(), r.AllocedBytesPerOp(), checksum)
	}

	prog, stream, ocfg, err := hybridBenchInstance()
	if err != nil {
		return err
	}

	// Bit-identity gate: the serial reference and the parallel engine must
	// agree in every float and in the trace digest before we benchmark it.
	ref, err := online.RunSerial(prog, stream, ocfg)
	if err != nil {
		return err
	}
	refSum := perf.SeriesChecksum(onlineSeries(ref))
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		wcfg := ocfg
		wcfg.Workers = workers
		got, err := online.Run(prog, stream, wcfg)
		if err != nil {
			return err
		}
		if got.TraceDigest != ref.TraceDigest || perf.SeriesChecksum(onlineSeries(got)) != refSum {
			return fmt.Errorf("hybrid: online run at %d workers diverged from the serial reference (%016x vs %016x)",
				workers, got.TraceDigest, ref.TraceDigest)
		}
	}
	fmt.Fprintf(out, "serial/parallel identity holds across worker counts: digest %016x, series %s\n",
		ref.TraceDigest, refSum)

	// Oracle gate on a recorded small run: every flow equals the first
	// on-air instant, no airing preempts or duplicates the push grid.
	smallGS, err := workload.GroupSet(workload.Uniform, 4, 80, 2, 2)
	if err != nil {
		return err
	}
	smallProg, _, err := pamad.Build(smallGS, 3)
	if err != nil {
		return err
	}
	smallReqs, err := workload.GeneratePoissonRequests(smallGS, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: 2000, Seed: 10},
		Rate:          8,
	})
	if err != nil {
		return err
	}
	srec, err := online.Run(smallProg, workload.SliceStream(smallReqs), online.Config{
		Policy: online.LWF, Split: online.Split{Mode: online.SplitReserved, OnlineChannels: 1},
		RecordFlows: true,
	})
	if err != nil {
		return err
	}
	pages := make([]core.PageID, len(smallReqs))
	arrivals := make([]float64, len(smallReqs))
	for i, r := range smallReqs {
		pages[i], arrivals[i] = r.Page, r.Arrival
	}
	airings := make([]conformance.SlotAiring, len(srec.Airings))
	for i, a := range srec.Airings {
		airings[i] = conformance.SlotAiring{Slot: a.Slot, Channel: a.Channel, Page: a.Page}
	}
	rows := smallProg.Channels()
	if err := conformance.OnlineConservation(smallProg, rows, airings, pages, arrivals, srec.Flows); err != nil {
		return fmt.Errorf("hybrid: conservation oracle: %w", err)
	}
	if err := conformance.PushIntegrity(smallProg, rows, airings); err != nil {
		return fmt.Errorf("hybrid: push-integrity oracle: %w", err)
	}
	fmt.Fprintf(out, "conservation and push-integrity oracles hold on %d recorded requests\n", len(smallReqs))

	var res *online.Result
	add("OnlineLWFReserved", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := online.Run(prog, stream, ocfg)
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
	}), refSum)
	if perf.SeriesChecksum(onlineSeries(res)) != refSum {
		return fmt.Errorf("hybrid: benchmark run diverged from the reference series")
	}

	// The full coupled matrix: arrival intensity x split x policy through
	// hybrid.Run, fingerprinted as one series.
	p, rates, splits := hybridMatrixSpec()
	first, err := experiments.HybridMatrix(p, workload.Uniform, rates, splits, online.Policies())
	if err != nil {
		return err
	}
	matrixSum := perf.SeriesChecksum(experiments.HybridSeries(first))
	var pts []experiments.HybridPoint
	add("HybridMatrix", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := experiments.HybridMatrix(p, workload.Uniform, rates, splits, online.Policies())
			if err != nil {
				b.Fatal(err)
			}
			pts = m
		}
	}), matrixSum)
	if perf.SeriesChecksum(experiments.HybridSeries(pts)) != matrixSum {
		return fmt.Errorf("hybrid: matrix is not deterministic across runs")
	}

	return writeAndCompare(rep, cfg.out, cfg.baseline, benchConfig{
		slowdown: cfg.slowdown, allocs: cfg.allocs,
	}, out)
}
