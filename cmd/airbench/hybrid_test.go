package main

import (
	"math"
	"testing"

	"tcsa/internal/experiments"
	"tcsa/internal/online"
	"tcsa/internal/perf"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// TestHybridCommittedChecksums recomputes the two series the -hybrid gate
// freezes — the serial reference of the main online workload and the
// coupled intensity x split x policy matrix — and compares them against the
// committed BENCH_hybrid.json. Any engine change that moves a float, a
// count, or the trace digest shows up here without running the wall-time
// benchmarks.
func TestHybridCommittedChecksums(t *testing.T) {
	rep, err := perf.ReadFile("../../BENCH_hybrid.json")
	if err != nil {
		t.Fatal(err)
	}
	prog, stream, ocfg, err := hybridBenchInstance()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := online.RunSerial(prog, stream, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Find("OnlineLWFReserved"); s == nil {
		t.Fatal("committed report missing OnlineLWFReserved")
	} else if got := perf.SeriesChecksum(onlineSeries(ref)); got != s.Checksum {
		t.Errorf("online series drifted from committed gate: %s != %s", got, s.Checksum)
	}

	p, rates, splits := hybridMatrixSpec()
	pts, err := experiments.HybridMatrix(p, workload.Uniform, rates, splits, online.Policies())
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Find("HybridMatrix"); s == nil {
		t.Fatal("committed report missing HybridMatrix")
	} else if got := perf.SeriesChecksum(experiments.HybridSeries(pts)); got != s.Checksum {
		t.Errorf("matrix series drifted from committed gate: %s != %s", got, s.Checksum)
	}
}

// fnvOnlineLWFReserved is the OnlineLWFReserved series checksum committed
// while trace digests chained byte-wise FNV-1a (sim.FNV64) instead of
// sim.Mix.
const fnvOnlineLWFReserved = "a8a781a9962f2000"

// TestHybridReferenceChainReproducesFNVChecksum rebuilds the byte-wise
// FNV-1a trace digest from the serial reference's recorded per-request
// outcomes and shows that, in place of the word-wise digest, it reproduces
// the checksum committed under FNV: the runs are the same, only the
// digest's mixing step changed. Only the digest halves of the series move.
func TestHybridReferenceChainReproducesFNVChecksum(t *testing.T) {
	prog, stream, ocfg, err := hybridBenchInstance()
	if err != nil {
		t.Fatal(err)
	}
	ocfg.RecordFlows = true
	res, err := online.RunSerial(prog, stream, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	digest := sim.FNVOffset
	cur := stream.NewCursor()
	var r workload.Request
	for k := 0; k < stream.Shards(); k++ {
		d := sim.FNVOffset
		cur.Seek(k)
		for i := k * workload.ShardSize; cur.Next(&r); i++ {
			served := uint64(0)
			if res.ServedOnline[i] {
				served = 1
			}
			d = sim.FNV64(d, uint64(uint32(r.Page)))
			d = sim.FNV64(d, math.Float64bits(res.Flows[i]))
			d = sim.FNV64(d, served)
		}
		digest = sim.FNV64(digest, d)
	}
	if digest == res.TraceDigest {
		t.Fatalf("reference chain equals the word-wise digest %016x", digest)
	}
	mixed := perf.SeriesChecksum(onlineSeries(res))
	res.TraceDigest = digest
	if got := perf.SeriesChecksum(onlineSeries(res)); got != fnvOnlineLWFReserved {
		t.Errorf("byte-wise chain gives series %s, committed under FNV-1a %s", got, fnvOnlineLWFReserved)
	}
	if mixed == fnvOnlineLWFReserved {
		t.Errorf("word-wise series %s equals the FNV-1a checksum", mixed)
	}
}
