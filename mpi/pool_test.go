package mpi

import (
	"testing"

	"repro/cluster"
	"repro/internal/coll"
	"repro/internal/topo"
)

// TestCachedSchedStartZeroAlloc pins the heavy-traffic hot path at zero
// allocations: once a shape's plan is cached, looking it up, binding it and
// handing it to the engine must not allocate — the free lists (requests,
// ops, scratch arenas) and the op's prebuilt closures cover it. Four drives
// are pinned:
//   - the nonblocking start (cachedPlan → Start, the body of every cached
//     I* start);
//   - the caller-driven blocking run (cachedPlan → Run, every cached
//     blocking collective);
//   - a second start of a shape whose plan is still bound by an operation
//     in flight (which once forced a throwaway compile);
//   - the in-place allgather, Iallgather(out[me], out), whose aliased views
//     once bypassed the cache.
//
// The run is single-rank so the schedule is local-only and the measured
// calls cross no yield point: nothing else runs during AllocsPerRun. A
// single-rank operation completes inside its start, so the in-flight
// operation of the third drive is stood in for by a binding held on its
// plan, which is all an operation in flight holds.
func TestCachedSchedStartZeroAlloc(t *testing.T) {
	cfg := xeonCfg(1, cluster.MPICH2NmadIB())
	var start, run, second, inPlace float64
	_, err := Run(cfg, func(c *Comm) {
		x := make([]float64, 64)
		out := [][]byte{make([]byte, 32)}
		// Warm the path: the first calls compile the plans, the second
		// ones grow the free lists to steady state.
		for i := 0; i < 2; i++ {
			c.Wait(c.IallreduceF64(x, OpSum))
			c.Wait(c.Iallgather(out[0], out))
		}

		// Pre-resolve what Comm.plan computes per call; KeyFor itself
		// builds a signature string, which is compile-time work outside
		// the pinned cached path.
		resolve := func(op coll.OpKind, a coll.Args) (coll.Key, coll.Args) {
			a.Rank, a.Size = c.rank, len(c.group)
			key := coll.KeyFor(&c.cfg.Coll, op, a, false)
			a.Seg = key.Seg
			return key, a
		}
		key, a := resolve(coll.OpAllreduce, coll.Args{X: x, Op: coll.OpSum})
		gkey, ga := resolve(coll.OpAllgather, coll.Args{Mine: out[0], Out: out})
		eng := c.engine()

		start = testing.AllocsPerRun(200, func() {
			eng.Start(c.proc, c.cachedPlan(key, a), a)
		})
		run = testing.AllocsPerRun(200, func() {
			eng.Run(c.proc, c.cachedPlan(key, a), a)
		})
		var held coll.Binding
		plan := c.cachedPlan(key, a)
		held.Bind(plan, a)
		second = testing.AllocsPerRun(200, func() {
			eng.Start(c.proc, c.cachedPlan(key, a), a)
		})
		held.Release(plan)
		inPlace = testing.AllocsPerRun(200, func() {
			eng.Start(c.proc, c.cachedPlan(gkey, ga), ga)
		})
		if compiles, _ := c.SchedCacheStats(); compiles != 2 {
			t.Errorf("%d compiles, want 2 (one plan per shape)", compiles)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		what   string
		allocs float64
	}{
		{"cached plan start", start},
		{"cached plan blocking run", run},
		{"second start while the plan is bound in flight", second},
		{"in-place allgather start", inPlace},
	} {
		if m.allocs != 0 {
			t.Errorf("%s allocates %.2f objects/op, want 0", m.what, m.allocs)
		}
	}
}

// TestPoolingNeutrality: the free lists (requests, shm jobs, nbc ops) and
// bucketed matching queues are host-side mechanics — disabling pooling must
// reproduce bit-identical virtual-time results on every progress regime.
func TestPoolingNeutrality(t *testing.T) {
	for _, stack := range []cluster.Stack{
		cluster.MPICH2NmadIB(),
		cluster.MPICH2NmadIB().WithPIOMan(true),
		cluster.MVAPICH2(),
	} {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			run := func(noPooling bool) float64 {
				cfg := xeonCfg(4, stack)
				cfg.Placement = topo.RoundRobin(4, cluster.Xeon2().NumNodes)
				cfg.NoPooling = noPooling
				rep, err := Run(cfg, tracedWorkload)
				if err != nil {
					t.Fatal(err)
				}
				return rep.Seconds
			}
			pooled := run(false)
			fresh := run(true)
			if pooled != fresh {
				t.Fatalf("pooling perturbed the run: %v (pooled) != %v (fresh)", pooled, fresh)
			}
		})
	}
}

// TestConcurrentNbcStress keeps hundreds of nonblocking collectives from
// many sibling Split communicators in flight at once under PIOMan — the
// collstorm shape, asserting correctness where the benchmark measures
// throughput: every allreduce reduces exactly its communicator's
// contributions (isolation), every started op completes, and the matching
// queues drain. Run under -race in CI, it also exercises the pools and
// bucketed queues for data races.
func TestConcurrentNbcStress(t *testing.T) {
	const (
		np      = 8
		nSplits = 6
		perComm = 12 // in-flight ops per (rank, sub-communicator)
		vecLen  = 16
	)
	// 8 ranks × 6 splits × 12 ops = 576 concurrently outstanding requests.
	cfg := xeonCfg(np, cluster.MPICH2NmadIB().WithPIOMan(true))
	cfg.Placement = topo.RoundRobin(np, cluster.Xeon2().NumNodes)

	drained := make([]bool, np)
	rep, err := Run(cfg, func(c *Comm) {
		me := c.Rank()
		subs := make([]*Comm, nSplits)
		for k := range subs {
			color := (me >> (k % 3)) & 1
			subs[k] = c.Split(color, me)
		}

		var reqs []*Request
		var bufs [][]float64
		for k, sub := range subs {
			for j := 0; j < perComm; j++ {
				x := make([]float64, vecLen)
				scale := float64(k*perComm + j + 1)
				for i := range x {
					x[i] = scale * float64(sub.Rank()+1)
				}
				bufs = append(bufs, x)
				reqs = append(reqs, sub.IallreduceF64(x, OpSum))
			}
		}
		c.WaitAll(reqs...)

		// Each sub-communicator has 4 members with ranks 0..3, so the
		// elementwise sum is scale * (1+2+3+4).
		i := 0
		for k := range subs {
			for j := 0; j < perComm; j++ {
				want := float64(k*perComm+j+1) * 10
				for e, v := range bufs[i] {
					if v != want {
						t.Errorf("rank %d split %d op %d elem %d: got %v, want %v",
							me, k, j, e, v, want)
						break
					}
				}
				i++
			}
		}
		// All 576 ops are complete: no posted receive may linger (a leak
		// here means a bucketed-queue removal went wrong). The unexpected
		// queue is checked loosely — ranks that finished earlier are
		// already in the finalize barrier, whose eager messages legally
		// sit here until this rank enters it (at most one per barrier
		// round), but nothing from the stress ops may remain.
		drained[me] = c.p.PostedLen() == 0 && c.p.UnexpectedQLen() < 4
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range drained {
		if !ok {
			t.Errorf("rank %d: matching queues not drained after WaitAll", r)
		}
	}
	cs := rep.Counters()
	if cs.NbcStarted != cs.NbcCompleted {
		t.Errorf("nbc ops: started %d != completed %d", cs.NbcStarted, cs.NbcCompleted)
	}
	if want := int64(np * nSplits * perComm); cs.NbcStarted < want {
		t.Errorf("nbc ops started %d, want at least %d", cs.NbcStarted, want)
	}
	if cs.ReqPoolHits == 0 || cs.OpPoolHits == 0 {
		t.Errorf("pools never hit: req %d/%d, op %d/%d",
			cs.ReqPoolHits, cs.ReqPoolMisses, cs.OpPoolHits, cs.OpPoolMisses)
	}
	if cs.ReqInFlight < np {
		t.Errorf("peak in-flight requests %d, want at least %d", cs.ReqInFlight, np)
	}
}
