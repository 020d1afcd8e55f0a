package mpi

import (
	"testing"

	"repro/cluster"
)

// TestConcurrentNbcSiblingComms exercises the schedule cache under
// concurrent compiles and hits: every rank keeps nonblocking collectives in
// flight on two sibling Split communicators plus the parent at once, over
// several iterations (cached plans bound anew while others compile), and
// finishes with two same-shape operations outstanding on one communicator
// (both bound to one plan, each with its own scratch arena). Run under
// -race in CI, where the PIOMan progress threads advance rounds while the
// application threads start and wait on requests.
func TestConcurrentNbcSiblingComms(t *testing.T) {
	const np = 8
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB().WithPIOMan(true)), func(c *Comm) {
		me := c.Rank()
		evens := c.Split(me%2, me)  // {0,2,4,6} / {1,3,5,7}
		thirds := c.Split(me%3, me) // {0,3,6} / {1,4,7} / {2,5}

		evenSum := 12.0 // 0+2+4+6
		if me%2 == 1 {
			evenSum = 16.0
		}
		thirdSums := []float64{9, 12, 7}
		thirdSum := thirdSums[me%3]

		for iter := 0; iter < 5; iter++ {
			x := make([]float64, 256)
			y := make([]float64, 128)
			for i := range x {
				x[i] = float64(me)
			}
			for i := range y {
				y[i] = float64(me)
			}
			data := make([]byte, 4<<10)
			if me == 0 {
				for i := range data {
					data[i] = byte(iter)
				}
			}
			q1 := evens.IallreduceF64(x, OpSum)
			q2 := thirds.IallreduceF64(y, OpSum)
			q3 := c.Ibcast(0, data)
			c.Compute(50e-6)
			c.WaitAll(q1, q2, q3)
			if x[0] != evenSum || x[len(x)-1] != evenSum {
				t.Errorf("rank %d iter %d: evens allreduce = %g, want %g", me, iter, x[0], evenSum)
			}
			if y[0] != thirdSum {
				t.Errorf("rank %d iter %d: thirds allreduce = %g, want %g", me, iter, y[0], thirdSum)
			}
			if data[0] != byte(iter) || data[len(data)-1] != byte(iter) {
				t.Errorf("rank %d iter %d: bcast payload %d, want %d", me, iter, data[0], iter)
			}
		}

		// Two same-shape operations in flight on one communicator: the
		// second binds the plan the first is still executing.
		a := make([]float64, 64)
		b := make([]float64, 64)
		for i := range a {
			a[i] = 1
			b[i] = 2
		}
		qa := evens.IallreduceF64(a, OpSum)
		qb := evens.IallreduceF64(b, OpSum)
		c.WaitAll(qa, qb)
		if a[0] != 4 || b[0] != 8 {
			t.Errorf("rank %d: overlapped same-shape allreduces = %g/%g, want 4/8", me, a[0], b[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
