package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/cluster"
	"repro/internal/coll"
	"repro/internal/coll/tune"
	"repro/internal/topo"
	"repro/mpi"
)

// kind is one simulated MPI operation type.
type kind uint8

const (
	kAllreduce kind = iota // IallreduceF64 / AllreduceF64, OpSum
	kBcast                 // Ibcast / Bcast
	kAllgather             // Iallgather
	kBarrier               // Ibarrier / Barrier
	kExchange              // Irecv+Isend with the partner rank on the other node
)

var kindNames = [...]string{"allreduce", "bcast", "allgather", "barrier", "exchange"}

func (k kind) String() string { return kindNames[k] }

// class is one entry of a workload's per-class quota: count operations of
// one kind whose payloads are log-uniform over [lo, hi] bytes — the
// geometric midpoints of count equal strata of the log range, so the sizes
// are distinct and every seed has the same ones. A non-empty pool replaces
// the range: each pool entry is used equally often.
type class struct {
	name   string
	kind   kind
	count  int
	lo, hi int
	pool   []int
	// warm and probe are how many of the class's ops (spread evenly over
	// its sizes) run as the untimed warm-up pass, and as the two-pass
	// overlap probe after the timed phase of window and blocking loops, so
	// every seed warms up and probes the same mix.
	warm, probe int
}

// op is one generated operation. n is a payload in bytes (a multiple of 8
// for allreduce); root is comm-local; sub selects the sibling communicator
// (storm) and is 0 elsewhere.
type op struct {
	kind  kind
	class int
	k     int // index within the class: sizes ascend with k
	sub   int
	n     int
	root  int
}

// loop is how a rank issues its operations; every loop is closed: a rank
// starts its next operation only after an earlier one completed.
type loop uint8

const (
	// loopWindow keeps window nonblocking ops in flight per rank, waiting
	// on them oldest-first and refilling.
	loopWindow loop = iota
	// loopTwoPass runs the list comm-only (start, Wait), then again with
	// Compute equal to each op's pass-1 time between start and Wait; one op
	// at a time, each after a Barrier.
	loopTwoPass
	// loopBlocking issues blocking collectives one at a time, each after a
	// Barrier.
	loopBlocking
)

// spec fixes one workload: the simulated machine and stack, the loop and the
// per-class operation quota of one repetition. The seed only permutes the
// quota.
type spec struct {
	name      string
	np        int
	cluster   topo.Cluster
	placement topo.Placement
	stack     cluster.Stack
	workers   int
	// table names the transport stack whose embedded calibrated table is
	// installed, with Coll.Stack set to it so striping and segmentation
	// engage ("" runs the default selector).
	table   string
	loop    loop
	window  int
	splits  int // sibling Split communicators the ops spread over
	classes []class
}

// specFor returns the named workload. tiny shrinks it for the determinism
// tests: same machine shape and stack, a few ops per class.
func specFor(name string, tiny bool) (spec, error) {
	var sp spec
	switch name {
	case "storm":
		shapes := make([]int, 64)
		for i := range shapes {
			shapes[i] = 8 * (1 + i + i*i/16) // 8 B .. 2.5 KiB, 64 distinct lengths
		}
		// Every allgather has its own size (8..518 B), so no two are ever
		// in flight under one cached schedule: a cached Bruck schedule's
		// send scratch is rewritten by the next same-shape start while the
		// previous op's eager message may still be in flight, and the
		// program delivers it by reference (README.md, "Known defect";
		// TestInFlightSameShapeAllgather).
		gathers := make([]int, 256)
		for i := range gathers {
			gathers[i] = 8 + 2*i
		}
		sp = spec{
			name: name, np: 8, cluster: cluster.Xeon2(),
			placement: topo.RoundRobin(8, 2),
			stack:     cluster.MPICH2NmadIB().WithPIOMan(true), workers: 1,
			loop: loopWindow, window: 128, splits: 3,
			classes: []class{
				{name: "allreduce", kind: kAllreduce, count: 3328, pool: shapes, warm: 208, probe: 32},
				{name: "bcast", kind: kBcast, count: 320, lo: 8, hi: 4 << 10, warm: 20, probe: 8},
				{name: "allgather", kind: kAllgather, count: 256, pool: gathers, warm: 16, probe: 4},
				{name: "barrier", kind: kBarrier, count: 192, warm: 12, probe: 4},
			},
		}
		if tiny {
			sp.window = 8
			for i, n := range []int{24, 4, 4, 2} {
				sp.classes[i].count, sp.classes[i].warm, sp.classes[i].probe = n, 1, 1
			}
		}
	case "bulk":
		sp = spec{
			name: name, np: 4, cluster: cluster.Xeon2(),
			placement: topo.RoundRobin(4, 2),
			stack:     cluster.MPICH2NmadMulti().WithPIOMan(true),
			table:     cluster.MPICH2NmadMulti().Name,
			// The warm-up runs each class's largest op: the first large
			// collective of a run is faster in virtual time than later
			// identical ones, so timing starts after it. The model carries
			// state across ops even between Barriers (a large op's latency
			// depends on the kind of op before it), which moves the tail
			// percentile with the seed's order; the quota is large enough
			// that the tail averages over many ops.
			loop: loopTwoPass,
			classes: []class{
				{name: "exchange", kind: kExchange, count: 384, lo: 64 << 10, hi: 4 << 20, warm: 1},
				{name: "bcast", kind: kBcast, count: 192, lo: 64 << 10, hi: 4 << 20, warm: 1},
				{name: "allreduce", kind: kAllreduce, count: 192, lo: 64 << 10, hi: 4 << 20, warm: 1},
			},
		}
		if tiny {
			for i := range sp.classes {
				sp.classes[i].count = 2
				sp.classes[i].hi = 256 << 10
			}
		}
	case "scale":
		np, nodes := 512, 64
		if tiny {
			np, nodes = 32, 4
		}
		sp = spec{
			name: name, np: np, cluster: cluster.XeonRacks(nodes),
			placement: topo.Block(np, nodes),
			stack:     cluster.MPICH2NmadIB(),
			loop:      loopBlocking,
			// Band edges sit on the default selector's thresholds (bcast
			// 12 KiB, allreduce 4 KiB) so every seed runs the same
			// algorithm mix. The one large bcast is the NP=512
			// scatter-allgather pick the benchmark keeps visible; it costs
			// seconds of host time, so there is one per repetition, in a
			// band narrow enough that the seed barely moves its cost. It
			// is also the slowest op in virtual time (allreduces stop at
			// 16 KiB), so the tail percentile is its latency, not that of
			// whichever allreduce size the seed drew largest.
			classes: []class{
				{name: "barrier", kind: kBarrier, count: 2, probe: 1},
				{name: "bcast-small", kind: kBcast, count: 6, lo: 8, hi: 12 << 10, probe: 2},
				{name: "bcast-large", kind: kBcast, count: 1, lo: 32 << 10, hi: 40 << 10},
				{name: "allreduce-small", kind: kAllreduce, count: 5, lo: 8, hi: 4 << 10, probe: 2},
				{name: "allreduce-large", kind: kAllreduce, count: 3, lo: 4<<10 + 8, hi: 16 << 10},
			},
		}
	default:
		return sp, fmt.Errorf("unknown workload %q (want storm, bulk or scale)", name)
	}
	return sp, nil
}

// config is the mpi.Run configuration of one repetition.
func (sp *spec) config() mpi.Config {
	cfg := mpi.Config{
		Cluster: sp.cluster, Placement: sp.placement, Stack: sp.stack, NP: sp.np,
		Pioman: mpi.PiomanConfig{Workers: sp.workers},
	}
	if sp.table != "" {
		cfg.Coll.Table = tune.TableFor(sp.table)
		cfg.Coll.Stack = sp.table
	}
	return cfg
}

// commSize is the size of the communicator an op of sp runs on.
func (sp *spec) commSize() int {
	if sp.splits > 0 {
		return sp.np / 2 // colors split on one rank bit: two equal halves
	}
	return sp.np
}

// genOps draws one repetition's operation list: a seeded permutation of the
// fixed per-class quota. Op k of a class has the class's k-th size (or pool
// entry), and its root and sibling communicator are fixed functions of k
// that cover their ranges evenly, so every seed runs the same ops — only
// their order differs — and host totals compare across seeds.
func genOps(sp *spec, seed uint64) []op {
	size := sp.commSize()
	var ops []op
	for ci, c := range sp.classes {
		for k := 0; k < c.count; k++ {
			o := op{kind: c.kind, class: ci, k: k}
			switch {
			case len(c.pool) > 0:
				o.n = c.pool[k*len(c.pool)/c.count]
			case c.hi > 0:
				u := (float64(k) + 0.5) / float64(c.count)
				lo, hi := math.Log(float64(c.lo)), math.Log(float64(c.hi))
				o.n = min(max(int(math.Round(math.Exp(lo+u*(hi-lo)))), c.lo), c.hi)
			}
			if c.kind == kAllreduce {
				o.n = max(8, o.n&^7)
			}
			if c.kind == kBcast {
				// An odd stride is a bijection on power-of-two sizes and
				// decorrelates the root from the size.
				o.root = k * 7919 % size
			}
			if sp.splits > 0 {
				o.sub = k % sp.splits
			}
			ops = append(ops, o)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// pick returns n(class) ops of each class, spread evenly over the class's
// sizes from the largest down, in list order: the same sizes for every seed.
func pick(sp *spec, ops []op, n func(class) int) []op {
	var out []op
	for _, o := range ops {
		c := sp.classes[o.class]
		if m := n(c); m > 0 && (c.count-1-o.k)*m%c.count < m {
			out = append(out, o)
		}
	}
	return out
}

// collOp maps a collective kind to its registry operation.
func (k kind) collOp() (coll.OpKind, bool) {
	switch k {
	case kAllreduce:
		return coll.OpAllreduce, true
	case kBcast:
		return coll.OpBcast, true
	case kAllgather:
		return coll.OpAllgather, true
	case kBarrier:
		return coll.OpBarrier, true
	}
	return 0, false
}
