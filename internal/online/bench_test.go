package online

import (
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/workload"
)

// BenchmarkOnlineRun times one Run call in the shape of the repository
// benchmark's hybrid_online workload: 400 uniform pages in 8 groups on a
// PAMAD program at ceil(MinChannels/5) channels, 2^18 sorted Poisson
// requests at 24 per slot, Longest Wait First with one reserved online
// channel.
func BenchmarkOnlineRun(b *testing.B) {
	gs, err := workload.GroupSet(workload.Uniform, 8, 400, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		b.Fatal(err)
	}
	const requests = 4 * workload.ShardSize
	stream, err := workload.NewPoissonStream(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: requests, Seed: 1},
		Rate:          24,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Policy: LWF, Split: Split{Mode: SplitReserved, OnlineChannels: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(prog, stream, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*requests/b.Elapsed().Seconds(), "requests/s")
}
