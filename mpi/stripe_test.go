package mpi

import (
	"testing"

	"repro/cluster"
	"repro/internal/coll"
)

// TestStripedBcastEndToEnd: a forced-striped chain bcast on the two-rail
// stack delivers the exact payload to every rank, compiles its schedule once
// and binds fresh buffers on cache hits, and the registry's rail counters
// show the payload split across both wires.
func TestStripedBcastEndToEnd(t *testing.T) {
	const np, n = 4, 256 << 10
	cfg := xeonCfg(np, cluster.MPICH2NmadMulti())
	cfg.Coll.Force = map[coll.OpKind]coll.Algo{coll.OpBcast: coll.AlgoChain}
	cfg.Coll.SegBytes = 32 << 10
	cfg.Coll.StripeWidth = 2
	rep, err := Run(cfg, func(c *Comm) {
		for rep := 0; rep < 3; rep++ {
			data := make([]byte, n)
			if c.Rank() == 0 {
				for i := range data {
					data[i] = byte(i>>4 + rep)
				}
			}
			c.Bcast(0, data)
			for i := range data {
				if data[i] != byte(i>>4+rep) {
					t.Fatalf("rank %d rep %d: byte %d corrupted", c.Rank(), rep, i)
				}
			}
		}
		compiles, hits := c.SchedCacheStats()
		if c.Rank() == 0 && (compiles != 1 || hits != 2) {
			t.Errorf("striped shape: compiles=%d hits=%d, want 1/2", compiles, hits)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rails := rep.Counters().Rails
	if len(rails) != 2 {
		t.Fatalf("want 2 rail counters, got %v", rails)
	}
	for _, rc := range rails {
		// 3 bcasts × 256 KiB over a 2-rail stripe: each rail carries well
		// over 100 KiB of payload if the stripe actually split.
		if rc.Bytes < 100<<10 {
			t.Errorf("rail %s carried %d bytes — stripe did not split", rc.Name, rc.Bytes)
		}
	}
}

// TestStripedSelectionMatchesUnstriped: striping is a placement hint, so a
// striped and an unstriped run of the same collective produce identical
// results — and on a single-rail stack the forced width must not even change
// the virtual time.
func TestStripedVirtualTimeSingleRailIdentity(t *testing.T) {
	run := func(stripe int) float64 {
		var elapsed float64
		cfg := xeonCfg(2, cluster.MPICH2NmadIB())
		cfg.Coll.Force = map[coll.OpKind]coll.Algo{coll.OpBcast: coll.AlgoChain}
		cfg.Coll.SegBytes = 32 << 10
		cfg.Coll.StripeWidth = stripe
		_, err := Run(cfg, func(c *Comm) {
			data := make([]byte, 512<<10)
			t0 := c.Wtime()
			c.Bcast(0, data)
			if c.Rank() == 0 {
				elapsed = c.Wtime() - t0
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	if a, b := run(0), run(2); a != b {
		t.Fatalf("stripe width on a single-rail stack changed virtual time: %g vs %g", a, b)
	}
}
