package loadgen

import (
	"context"
	"testing"

	"tcsa/internal/workload"
)

// benchRunStream times one RunStream call over 2^17 clients (two stream
// shards) on the paper's Figure 4 instance at the knee channel count.
func benchRunStream(b *testing.B, cfg Config) {
	cfg.Clients = 2 * workload.ShardSize
	cfg.Seed = 1
	a, stream, err := Materialize(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStream(context.Background(), a, stream, cfg.Fault, Options{RingSlots: cfg.RingSlots}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(cfg.Clients)/b.Elapsed().Seconds(), "clients/s")
}

// BenchmarkRunStreamZeroFault: uniform group sizes and pages, fault-free
// air.
func BenchmarkRunStreamZeroFault(b *testing.B) {
	benchRunStream(b, Config{Dist: workload.Uniform})
}

// BenchmarkRunStreamFaulted: S-skewed group sizes, Zipf(0.8) pages and
// the canonical every-class fault mix — the retry path.
func BenchmarkRunStreamFaulted(b *testing.B) {
	benchRunStream(b, Config{
		Dist:       workload.SSkewed,
		PageChoice: workload.ZipfPages,
		Theta:      0.8,
		Fault:      allFaults(1),
	})
}

// BenchmarkRunStreamTinyRing: the zero-fault run through an 8-slot ring,
// so the broadcaster and the workers park and wake on almost every slot.
func BenchmarkRunStreamTinyRing(b *testing.B) {
	benchRunStream(b, Config{Dist: workload.Uniform, RingSlots: 8})
}
