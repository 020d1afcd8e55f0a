package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/cluster"
	"repro/internal/topo"
	"repro/mpi"
)

// CollStorm is the heavy-traffic host-path stress workload: every rank keeps
// a large window of nonblocking allreduces outstanding at once, spread over
// several sibling Split communicators, and refills the window for a number of
// batches. Unlike collbench — which measures the virtual time of one
// collective — collstorm measures the *host* cost of sustaining thousands of
// concurrent operations: matching-queue pressure (the bucketed posted and
// unexpected queues), free-list effectiveness (pooled requests, shm jobs and
// nbc ops) and schedule-cache hits, reported as ops/sec, ns/op and
// allocs/op of wall-clock simulator time.
//
// Each window slot uses a distinct vector length, so slots map to distinct
// schedule-cache keys and every slot compiles in batch 0; batch ≥ 2 runs
// entirely on cache hits — the steady state the pools target.

// CollStormOptions tunes one stress measurement.
type CollStormOptions struct {
	// NP is the number of ranks (round-robin placed so sibling
	// communicators span nodes and the shm and network paths are both
	// under load). Up to 16 ranks run on the paper's two-node Xeon
	// testbed; larger NP scales the node count at 8 cores per node.
	NP int
	// Workers is the number of PIOMan background progression workers per
	// rank (0/1 = the classic single worker).
	Workers int
	// Splits is the number of sibling Split communicators each rank joins
	// (colors rotate over low rank bits, so each has about NP/2 members).
	Splits int
	// InFlight is the total number of concurrently outstanding
	// nonblocking collectives across all ranks; each rank holds
	// ceil(InFlight/NP) window slots.
	InFlight int
	// Batches is how many times the window is refilled and drained.
	Batches int
	// VecLen is the base float64 vector length; slot s uses VecLen+s so
	// every slot has a distinct schedule-cache key.
	VecLen int
}

func (o CollStormOptions) withDefaults() CollStormOptions {
	if o.NP == 0 {
		o.NP = 8
	}
	if o.Splits == 0 {
		o.Splits = 3
	}
	if o.InFlight == 0 {
		o.InFlight = 1000
	}
	if o.Batches == 0 {
		o.Batches = 4
	}
	if o.VecLen == 0 {
		o.VecLen = 16
	}
	return o
}

// CollStormResult reports one stress measurement.
type CollStormResult struct {
	// Ops is the total number of nonblocking collectives started across
	// all ranks and batches.
	Ops int64 `json:"ops"`
	// InFlight is the concurrently outstanding op count during each
	// batch (the requested window, rounded up to a multiple of NP).
	InFlight int `json:"in_flight"`
	// HostMS is the host wall-clock of the whole simulated run.
	HostMS float64 `json:"host_ms"`
	// NsPerOp is host nanoseconds per operation (HostMS / Ops).
	NsPerOp float64 `json:"ns_per_op"`
	// OpsPerSec is the sustained host-side operation rate.
	OpsPerSec float64 `json:"ops_per_sec"`
	// AllocsPerOp is heap allocations per operation over the whole run
	// (includes first-batch schedule compiles; later batches hit the cache).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// CachedAllocsPerOp is heap allocations per operation over batches
	// 1..N-1 only — the steady state where every schedule start is a cache
	// hit and the free lists are primed. This is the number the CI
	// regression threshold pins (0 when Batches < 2).
	CachedAllocsPerOp float64 `json:"cached_allocs_per_op"`
	// VirtualS is the deterministic simulated time of the run.
	VirtualS float64 `json:"virtual_s"`
	// Events is the engine's total scheduled-event count: a deterministic,
	// noise-free proxy for host-side simulation work (bit-identical across
	// repetitions of the same configuration).
	Events int64 `json:"events"`
	// NsPerEvent is host nanoseconds per engine event. Per-op host time
	// legitimately grows O(log NP) with the collective's round count; per-
	// event host time must stay flat as NP grows — any growth there is a
	// host-side scaling bug (dense per-rank state, super-linear matching),
	// not algorithm depth.
	NsPerEvent float64 `json:"ns_per_event"`
	// Counters is the run-wide registry snapshot: pool hits/misses,
	// request in-flight peak, nbc started/completed, queue traffic.
	Counters *mpi.CounterSnapshot `json:"counters,omitempty"`
}

// CollStormOnce runs one stress measurement on the given stack.
func CollStormOnce(stack cluster.Stack, o CollStormOptions) (CollStormResult, error) {
	o = o.withDefaults()
	if o.NP < 2 {
		return CollStormResult{}, fmt.Errorf("bench: collstorm needs NP >= 2, got %d", o.NP)
	}
	perRank := (o.InFlight + o.NP - 1) / o.NP
	// The paper's two-node Xeon testbed caps at 16 ranks (8 cores/node);
	// the NP sweep grows the node count with the same per-node shape so
	// placement validation holds and per-node pressure stays constant.
	clus := cluster.Xeon2()
	if need := (o.NP + clus.CoresPerNode - 1) / clus.CoresPerNode; need > clus.NumNodes {
		clus.NumNodes = need
	}
	cfg := mpi.Config{
		Cluster:   clus,
		Stack:     stack,
		NP:        o.NP,
		Placement: topo.RoundRobin(o.NP, clus.NumNodes),
		Pioman:    mpi.PiomanConfig{Workers: o.Workers},
	}

	res := CollStormResult{
		Ops:      int64(o.NP) * int64(perRank) * int64(o.Batches),
		InFlight: perRank * o.NP,
	}
	errs := make([]error, o.NP)

	// msMid snapshots the heap after every rank finished batch 0 (schedule
	// compiles, pool warm-up): the batches after it are the cached steady
	// state the allocs/op threshold pins. The barrier synchronizes ranks,
	// and the engine runs exactly one proc at a time, so the host-side read
	// below is race-free.
	var ms0, msMid, ms1 runtime.MemStats
	midTaken := false
	// Collect the previous measurement's garbage first: back-to-back sweep
	// configurations otherwise hand growing GC debt to whichever row runs
	// later, skewing cross-configuration comparisons.
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) {
		me := c.Rank()
		subs := make([]*mpi.Comm, o.Splits)
		for k := range subs {
			color := (me >> (k % 3)) & 1
			subs[k] = c.Split(color, me)
		}

		// One buffer and request slot per window position; slot s runs on
		// sub-communicator s%Splits with a slot-unique vector length.
		bufs := make([][]float64, perRank)
		reqs := make([]*mpi.Request, perRank)
		for s := range bufs {
			bufs[s] = make([]float64, o.VecLen+s)
		}

		for b := 0; b < o.Batches; b++ {
			for s := 0; s < perRank; s++ {
				sub := subs[s%o.Splits]
				x := bufs[s]
				for i := range x {
					x[i] = float64(sub.Rank() + 1)
				}
				reqs[s] = sub.IallreduceF64(x, mpi.OpSum)
			}
			c.WaitAll(reqs...)
			for s := 0; s < perRank; s++ {
				sub := subs[s%o.Splits]
				sz := sub.Size()
				want := float64(sz*(sz+1)) / 2
				if got := bufs[s][0]; got != want && errs[me] == nil {
					errs[me] = fmt.Errorf("rank %d batch %d slot %d: allreduce got %v, want %v",
						me, b, s, got, want)
				}
			}
			if b == 0 && o.Batches > 1 {
				c.Barrier()
				if !midTaken {
					midTaken = true
					runtime.ReadMemStats(&msMid)
				}
			}
		}
	})
	res.HostMS = float64(time.Since(start).Microseconds()) / 1e3
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return res, err
	}
	for _, e := range errs {
		if e != nil {
			return res, e
		}
	}
	hostSec := res.HostMS / 1e3
	res.NsPerOp = res.HostMS * 1e6 / float64(res.Ops)
	if hostSec > 0 {
		res.OpsPerSec = float64(res.Ops) / hostSec
	}
	res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Ops)
	if midTaken {
		cachedOps := int64(o.NP) * int64(perRank) * int64(o.Batches-1)
		res.CachedAllocsPerOp = float64(ms1.Mallocs-msMid.Mallocs) / float64(cachedOps)
	}
	res.VirtualS = rep.Seconds
	res.Events = rep.Events
	if rep.Events > 0 {
		res.NsPerEvent = res.HostMS * 1e6 / float64(rep.Events)
	}
	res.Counters = rep.Counters()
	if cs := res.Counters; cs.NbcStarted != cs.NbcCompleted {
		return res, fmt.Errorf("bench: collstorm leaked ops: started %d != completed %d",
			cs.NbcStarted, cs.NbcCompleted)
	}
	if got := res.Counters.NbcStarted; got < res.Ops {
		return res, fmt.Errorf("bench: collstorm started %d nbc ops, expected at least %d",
			got, res.Ops)
	}
	return res, nil
}
