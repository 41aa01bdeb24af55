package sim

import (
	"errors"

	"tcsa/internal/core"
	"tcsa/internal/workload"
)

// MeasureStream evaluates a request stream against a finished program's
// analysis without materialising the requests or retaining samples: one
// pass, O(1) memory in the request count. It is the serial core of
// MeasureParallel and produces bit-identical Metrics to it at any worker
// count.
func MeasureStream(a *core.Analysis, stream workload.Stream) (*Metrics, error) {
	return MeasureParallel(a, stream, 1)
}

// MeasureParallel is MeasureStream sharded across a worker pool: the fold
// kernel (FoldShards) hands out fixed-size stream shards
// (workload.ShardSize requests) and merges them in ascending shard order,
// so the returned Metrics are bit-for-bit identical for any worker count,
// including 1 (the serial path). workers <= 0 uses GOMAXPROCS.
func MeasureParallel(a *core.Analysis, stream workload.Stream, workers int) (*Metrics, error) {
	if a == nil {
		return nil, errors.New("sim: nil analysis")
	}
	if stream == nil {
		return nil, errors.New("sim: nil stream")
	}
	count := stream.Count()
	if count == 0 {
		return &Metrics{}, nil
	}
	prog := a.Program()
	pages := prog.GroupSet().Pages()
	length := prog.Length()
	L := float64(length)
	times := prog.GroupSet().ExpectedTimes()
	total, err := FoldShards(workers, stream.Shards(), WaitLayout(L), func() ShardFunc {
		cur := stream.NewCursor()
		cols := a.Index().NewCursor(stream.Sorted())
		var r workload.Request
		return func(k int, f Fold) (Fold, error) {
			cur.Seek(k)
			for local := 0; cur.Next(&r); local++ {
				if r.Page < 0 || int(r.Page) >= pages || r.Arrival < 0 {
					return f, RequestError(r, k*workload.ShardSize+local, pages)
				}
				// The program is cyclic, so arrivals beyond the first
				// cycle (e.g. Poisson streams) fold back into it.
				u := core.CycleOffset(r.Arrival, length)
				cs, j := cols.First(r.Page, u)
				wait := core.WaitAt(cs, j, u, L)
				f.Add(wait, f.Delay(wait, times[r.Page]))
			}
			return f, nil
		}
	})
	if err != nil {
		return nil, err
	}
	m := total.Metrics(count)
	return &m, nil
}
