package bench

import (
	"fmt"
	"time"

	"repro/cluster"
	"repro/internal/coll"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/mpi"
)

// CollBenchOptions tunes one collective-benchmark measurement: Op at Bytes
// payload per rank, averaged over Iters, on NP ranks block-placed so the
// topology-aware variants have co-located ranks to aggregate.
type CollBenchOptions struct {
	// Op is one of "bcast", "allreduce", "allgather", "alltoall", or the
	// vector ops "alltoallv", "allgatherv", "reducescatter".
	Op string
	// Bytes is the per-rank payload: the full buffer for bcast, the vector
	// bytes for allreduce (rounded down to whole float64s), the per-rank
	// block for allgather/alltoall, and the average per-rank block for the
	// vector ops (the skew redistributes it).
	Bytes int
	// Skew shapes the vector ops' per-rank counts: "uniform" (or empty),
	// "linear" (counts ramp from zero to twice the average across rank
	// pairs, zero-length blocks included) or "sparse" (everything
	// concentrated on self and right neighbour, the rest empty).
	Skew string
	// Iters averages over this many repetitions (after one warmup).
	Iters int
	// NP is the number of ranks.
	NP int
	// Algo forces one algorithm (coll.AlgoAuto lets the selector choose).
	Algo coll.Algo
	// Seg forces the pipeline segment size of the segmented algorithms in
	// bytes (0 = table entry's seg, then coll.DefSegBytes).
	Seg int
	// Stripe forces the rail-stripe width of the rail-striped algorithms
	// (0 = table entry's stripe, then no striping). Only meaningful on a
	// multirail stack: with fewer than two rails the width resolves to 0
	// whatever is forced.
	Stripe int
	// Table supplies calibrated selection thresholds for the auto rows
	// (nil keeps the built-in defaults). Ignored when Algo forces a pick.
	Table *coll.Table
	// TwoLevel enables the topology-aware variants.
	TwoLevel bool
	// NoCache disables the per-communicator schedule cache.
	NoCache bool
	// Trace, when set, records the run's event trace.
	Trace *trace.Trace
}

func (o CollBenchOptions) withDefaults() CollBenchOptions {
	if o.Op == "" {
		o.Op = "allreduce"
	}
	if o.Bytes == 0 {
		o.Bytes = 32 << 10
	}
	if o.Iters == 0 {
		o.Iters = 10
	}
	if o.NP == 0 {
		o.NP = 8
	}
	return o
}

// CollBenchResult reports one configuration's measurement.
type CollBenchResult struct {
	// PerOp is the virtual time of one collective, in seconds.
	PerOp float64
	// HostMS is the host wall-clock of the whole simulated run in
	// milliseconds — the quantity schedule caching improves.
	HostMS float64
	// Compiles and Hits are rank 0's schedule-cache counters.
	Compiles, Hits int64
	// Counters is the run's registry snapshot (cache effectiveness across
	// all ranks, poll split, and per-rail traffic — one Rails entry per
	// rail, so striping benchmarks see how the payload split across wires).
	Counters *mpi.CounterSnapshot
}

// OpKindOf maps the benchmark op name to the registry's kind.
func OpKindOf(op string) (coll.OpKind, error) {
	switch op {
	case "bcast":
		return coll.OpBcast, nil
	case "allreduce":
		return coll.OpAllreduce, nil
	case "allgather":
		return coll.OpAllgather, nil
	case "alltoall":
		return coll.OpAlltoall, nil
	case "alltoallv":
		return coll.OpAlltoallv, nil
	case "allgatherv":
		return coll.OpAllgatherv, nil
	case "reducescatter", "reduce-scatter":
		// Both the harness's historical spelling and the registry's
		// canonical OpKind name, so names copied out of colltune tables
		// work here unchanged.
		return coll.OpReduceScatter, nil
	}
	return 0, fmt.Errorf("bench: unknown collective %q", op)
}

// alltoallvLayout derives rank me's alltoallv arguments under a skew: the
// send row and receive column of the count matrix plus packed flat buffers.
func alltoallvLayout(skew string, np, bytes, me int) (scounts, rcounts []int, sbuf, rbuf []byte) {
	scounts, _ = VecCounts(skew, np, bytes, me)
	rcounts = make([]int, np)
	for s := range rcounts {
		row, _ := VecCounts(skew, np, bytes, s)
		rcounts[s] = row[me]
	}
	return scounts, rcounts, make([]byte, sumCounts(scounts)), make([]byte, sumCounts(rcounts))
}

// allgathervLayout derives the global allgatherv count vector under a skew
// plus rank me's contribution and the flat receive buffer.
func allgathervLayout(skew string, np, bytes, me int) (counts []int, mine, rbuf []byte) {
	counts, _ = VecCounts(skew, np, bytes, 0)
	return counts, make([]byte, counts[me]), make([]byte, sumCounts(counts))
}

// reduceScatterLayout derives the global reduce-scatter element counts
// under a skew (bytes averaged per rank, in float64 elements) plus rank
// me's input vector and result segment.
func reduceScatterLayout(skew string, np, bytes, me int) (counts []int, x, recv []float64) {
	bcounts, _ := VecCounts(skew, np, bytes, 0)
	counts = make([]int, np)
	for r := range counts {
		counts[r] = bcounts[r] / 8
	}
	return counts, make([]float64, sumCounts(counts)), make([]float64, counts[me])
}

// VecCounts returns the per-destination byte counts rank src sends under a
// skew pattern, averaging ~bytes per destination. The pattern depends only
// on (src, dst, np), so every rank can derive both its send row and its
// receive column of the count matrix — the global-consistency requirement
// of the vector collectives.
func VecCounts(skew string, np, bytes, src int) ([]int, error) {
	counts := make([]int, np)
	switch skew {
	case "", "uniform":
		for d := range counts {
			counts[d] = bytes
		}
	case "linear":
		div := np - 1
		if div < 1 {
			div = 1
		}
		for d := range counts {
			counts[d] = bytes * 2 * ((src + d) % np) / div
		}
	case "sparse":
		counts[src] = bytes * np / 2
		counts[(src+1)%np] = bytes * np / 2
	default:
		return nil, fmt.Errorf("bench: unknown skew %q", skew)
	}
	return counts, nil
}

// CollBenchOnce measures one stack at one (op, payload, algorithm, cache)
// configuration.
func CollBenchOnce(stack cluster.Stack, o CollBenchOptions) (CollBenchResult, error) {
	o = o.withDefaults()
	kind, err := OpKindOf(o.Op)
	if err != nil {
		return CollBenchResult{}, err
	}
	if _, err := VecCounts(o.Skew, o.NP, o.Bytes, 0); err != nil {
		return CollBenchResult{}, err
	}
	// The 2-node Xeon pair fits the calibration-scale runs byte-for-byte;
	// beyond its 16 cores the machine grows with the job — 8-core nodes
	// behind one switch, as a real large allocation would —
	// so NP in the thousands measures a plausible topology instead of
	// failing a capacity check.
	cl := cluster.Xeon2()
	if o.NP > cl.NumNodes*cl.CoresPerNode {
		cl = cluster.XeonRacks((o.NP + 7) / 8)
	}
	cfg := mpi.Config{
		Cluster:      cl,
		Stack:        stack,
		NP:           o.NP,
		Placement:    topo.Block(o.NP, cl.NumNodes),
		TwoLevelColl: o.TwoLevel,
		NoSchedCache: o.NoCache,
		Trace:        o.Trace,
	}
	if o.Algo != coll.AlgoAuto {
		cfg.Coll.Force = map[coll.OpKind]coll.Algo{kind: o.Algo}
	}
	cfg.Coll.Table = o.Table
	cfg.Coll.SegBytes = o.Seg
	cfg.Coll.StripeWidth = o.Stripe

	var res CollBenchResult
	start := time.Now()
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) {
		np := c.Size()
		body := func() {}
		switch kind {
		case coll.OpBcast:
			data := make([]byte, o.Bytes)
			body = func() { c.Bcast(0, data) }
		case coll.OpAllreduce:
			x := make([]float64, o.Bytes/8)
			body = func() { c.AllreduceF64(x, mpi.OpSum) }
		case coll.OpAllgather:
			mine := make([]byte, o.Bytes)
			out := make([][]byte, np)
			for r := range out {
				out[r] = make([]byte, o.Bytes)
			}
			body = func() { c.Allgather(mine, out) }
		case coll.OpAlltoall:
			send := make([][]byte, np)
			recv := make([][]byte, np)
			for r := range send {
				send[r] = make([]byte, o.Bytes)
				recv[r] = make([]byte, o.Bytes)
			}
			body = func() { c.Alltoall(send, recv) }
		case coll.OpAlltoallv:
			scounts, rcounts, sbuf, rbuf := alltoallvLayout(o.Skew, np, o.Bytes, c.Rank())
			body = func() { c.Alltoallv(sbuf, scounts, nil, rbuf, rcounts, nil) }
		case coll.OpAllgatherv:
			counts, mine, rbuf := allgathervLayout(o.Skew, np, o.Bytes, c.Rank())
			body = func() { c.Allgatherv(mine, rbuf, counts, nil) }
		case coll.OpReduceScatter:
			counts, x, recv := reduceScatterLayout(o.Skew, np, o.Bytes, c.Rank())
			body = func() { c.ReduceScatterF64(x, recv, counts, mpi.OpSum) }
		}
		body() // warmup: connections settle, schedule compiles
		c.Barrier()
		t0 := c.Wtime()
		for i := 0; i < o.Iters; i++ {
			body()
		}
		if c.Rank() == 0 {
			res.PerOp = (c.Wtime() - t0) / float64(o.Iters)
			res.Compiles, res.Hits = c.SchedCacheStats()
		}
	})
	res.HostMS = float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		return res, err
	}
	res.Counters = rep.Counters()
	return res, nil
}

func sumCounts(counts []int) int {
	t := 0
	for _, n := range counts {
		t += n
	}
	return t
}
