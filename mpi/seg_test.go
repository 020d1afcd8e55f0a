package mpi

import (
	"math"
	"testing"

	"repro/cluster"
	"repro/internal/coll"
)

// segCfg builds a config that forces the segmented algorithms for bcast
// and allreduce at a given segment size.
func segCfg(np, seg int, noCache bool) Config {
	cfg := xeonCfg(np, cluster.MPICH2NmadIB().WithPIOMan(true))
	cfg.Coll.Force = map[coll.OpKind]coll.Algo{
		coll.OpBcast:     coll.AlgoChain,
		coll.OpAllreduce: coll.AlgoSegRing,
	}
	cfg.Coll.SegBytes = seg
	cfg.NoSchedCache = noCache
	return cfg
}

// TestSegmentedSchedCacheRebind: repeated segmented collectives with fresh
// buffers compile exactly once and bind the cached plan thereafter — the
// per-segment sub-regions the pipelined builders name must all resolve
// into the new buffers, and the data must stay correct on every repeat.
func TestSegmentedSchedCacheRebind(t *testing.T) {
	const np, sz = 4, 40 << 10 // 40KB over 4KB segments: 10 segments
	_, err := Run(segCfg(np, 4<<10, false), func(c *Comm) {
		me := c.Rank()
		c.Bcast(0, make([]byte, sz))
		c.AllreduceF64(make([]float64, sz/8), OpSum)
		compiles0, _ := c.SchedCacheStats()

		const reps = 3
		for i := 0; i < reps; i++ {
			// Fresh buffers each round: reuse must come from the shape.
			data := make([]byte, sz)
			if me == 0 {
				for j := range data {
					data[j] = byte(j*13 + i)
				}
			}
			c.Bcast(0, data)
			for j := range data {
				if data[j] != byte(j*13+i) {
					t.Errorf("rank %d rep %d: chain bcast byte %d = %d, want %d",
						me, i, j, data[j], byte(j*13+i))
					return
				}
			}
			x := make([]float64, sz/8)
			for j := range x {
				x[j] = float64(me + j + i)
			}
			c.AllreduceF64(x, OpSum)
			for j := range x {
				want := float64(np*(j+i)) + float64(np*(np-1)/2)
				if math.Abs(x[j]-want) > 1e-9 {
					t.Errorf("rank %d rep %d: segring allreduce[%d] = %g, want %g",
						me, i, j, x[j], want)
					return
				}
			}
		}
		compiles, hits := c.SchedCacheStats()
		if compiles != compiles0 {
			t.Errorf("rank %d: %d new compiles on repeated segmented shapes, want 0",
				me, compiles-compiles0)
		}
		if want := int64(2 * reps); hits < want {
			t.Errorf("rank %d: %d cache hits, want >= %d", me, hits, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedSchedCacheDeterminism: cached and uncached runs of the
// pipelined builders produce identical virtual time — compilation and
// binding stay host work for segmented schedules too (the cached≡uncached
// contract extended to the pipelined builders).
func TestSegmentedSchedCacheDeterminism(t *testing.T) {
	workload := func(c *Comm) {
		data := make([]byte, 96<<10)
		x := make([]float64, 6<<10)
		for iter := 0; iter < 3; iter++ {
			q := c.IallreduceF64(x, OpSum) // segmented ring under PIOMan
			c.Compute(60e-6)
			c.Wait(q)
			c.Bcast(0, data) // pipelined chain
			c.Wait(c.Ibcast(0, data))
		}
	}
	measure := func(noCache bool) float64 {
		rep, err := Run(segCfg(8, 8<<10, noCache), workload)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Seconds
	}
	cached, uncached := measure(false), measure(true)
	if cached != uncached {
		t.Fatalf("segmented cached run %.9fs != uncached run %.9fs", cached, uncached)
	}
}

// TestSegmentedSegChangesKey: the same shape at a different -seg is a
// different schedule — ranks running under different SegBytes settings
// compile distinct keys (asserted at the coll level in
// TestKeyForSegmented), and end to end a different segment size changes
// the compile count on a fresh communicator rather than sharing a plan across
// seg values.
func TestSegmentedSegChangesKey(t *testing.T) {
	count := func(seg int) int64 {
		var compiles int64
		_, err := Run(segCfg(2, seg, false), func(c *Comm) {
			c.Bcast(0, make([]byte, 32<<10))
			c.Bcast(0, make([]byte, 32<<10))
			if c.Rank() == 0 {
				compiles, _ = c.SchedCacheStats()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return compiles
	}
	if c4, c16 := count(4<<10), count(16<<10); c4 != 1 || c16 != 1 {
		t.Fatalf("compiles = %d/%d, want 1/1 (second call hits within one seg value)", c4, c16)
	}
	// Different seg values really execute different pipelines: virtual time
	// must differ for a payload spanning several segments.
	tOf := func(seg int) float64 {
		rep, err := Run(segCfg(8, seg, false), func(c *Comm) {
			c.Bcast(0, make([]byte, 1<<20))
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Seconds
	}
	if t4, t64 := tOf(4<<10), tOf(64<<10); t4 == t64 {
		t.Fatalf("seg 4K and 64K bcast identical (%.9fs) — segment size not reaching the builder", t4)
	}
}

// TestSegmentedNonblockingForms: the I* forms execute the identical
// segmented round programs on the nbc engine — results stay exact with
// computation overlapped under PIOMan, and concurrent segmented
// collectives on one communicator never cross-match (per-segment rounds
// multiply the in-flight transfers, the regime PIOMan exists for).
func TestSegmentedNonblockingForms(t *testing.T) {
	const np, sz = 4, 64 << 10
	_, err := Run(segCfg(np, 4<<10, false), func(c *Comm) {
		me := c.Rank()
		for iter := 0; iter < 2; iter++ {
			data := make([]byte, sz)
			if me == 0 {
				for j := range data {
					data[j] = byte(j*11 + iter)
				}
			}
			x := make([]float64, sz/8)
			for j := range x {
				x[j] = float64(me*1000 + j)
			}
			qb := c.Ibcast(0, data)
			qa := c.IallreduceF64(x, OpSum)
			c.Compute(100e-6) // the pipelines advance in the background
			c.WaitAll(qb, qa)
			for j := range data {
				if data[j] != byte(j*11+iter) {
					t.Errorf("rank %d iter %d: Ibcast(chain) byte %d = %d, want %d",
						me, iter, j, data[j], byte(j*11+iter))
					return
				}
			}
			for j := range x {
				want := float64(np*j) + 1000*float64(np*(np-1)/2)
				if math.Abs(x[j]-want) > 1e-9 {
					t.Errorf("rank %d iter %d: Iallreduce(segring)[%d] = %g, want %g",
						me, iter, j, x[j], want)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
