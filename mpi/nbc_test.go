package mpi

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/cluster"
	"repro/internal/coll"
	"repro/internal/topo"
)

// nbcStacks are the stacks the nonblocking-collective engine is exercised
// under: the paper's system with and without PIOMan, and a baseline.
func nbcStacks() []cluster.Stack {
	return []cluster.Stack{
		cluster.MPICH2NmadIB(),
		cluster.MPICH2NmadIB().WithPIOMan(true),
		cluster.MVAPICH2(),
	}
}

// runNbcAllOps runs all five nonblocking collectives on np ranks and checks
// their results against the blocking counterparts computed in-run.
func runNbcAllOps(t *testing.T, cfg Config) {
	t.Helper()
	np := cfg.NP
	_, err := Run(cfg, func(c *Comm) {
		me := c.Rank()

		// Ibarrier: just completes on all ranks.
		c.Wait(c.Ibarrier())

		// Ibcast vs Bcast.
		want := make([]byte, 3000)
		for i := range want {
			want[i] = byte(i * 7)
		}
		got := make([]byte, len(want))
		if me == 1%np {
			copy(got, want)
		}
		c.Wait(c.Ibcast(1%np, got))
		if !bytes.Equal(got, want) {
			t.Errorf("np=%d rank %d: Ibcast mismatch", np, me)
		}

		// IallreduceF64 vs AllreduceF64.
		x := make([]float64, 33)
		y := make([]float64, 33)
		for i := range x {
			x[i] = float64(me*100 + i)
			y[i] = x[i]
		}
		c.AllreduceF64(y, OpSum)
		c.Wait(c.IallreduceF64(x, OpSum))
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-9 {
				t.Errorf("np=%d rank %d: Iallreduce[%d] = %g, want %g", np, me, i, x[i], y[i])
				break
			}
		}

		// Iallgather vs Allgather.
		mine := []byte(fmt.Sprintf("rank-%02d", me))
		outB := make([][]byte, np)
		outN := make([][]byte, np)
		for r := range outB {
			outB[r] = make([]byte, len(mine))
			outN[r] = make([]byte, len(mine))
		}
		c.Allgather(mine, outB)
		c.Wait(c.Iallgather(mine, outN))
		for r := range outB {
			if !bytes.Equal(outB[r], outN[r]) {
				t.Errorf("np=%d rank %d: Iallgather[%d] = %q, want %q", np, me, r, outN[r], outB[r])
			}
		}

		// Ialltoall vs Alltoall.
		send := make([][]byte, np)
		recvB := make([][]byte, np)
		recvN := make([][]byte, np)
		for r := range send {
			send[r] = []byte(fmt.Sprintf("%02d->%02d", me, r))
			recvB[r] = make([]byte, len(send[r]))
			recvN[r] = make([]byte, len(send[r]))
		}
		c.Alltoall(send, recvB)
		c.Wait(c.Ialltoall(send, recvN))
		for r := range recvB {
			if !bytes.Equal(recvB[r], recvN[r]) {
				t.Errorf("np=%d rank %d: Ialltoall[%d] = %q, want %q", np, me, r, recvN[r], recvB[r])
			}
		}

		// IreduceF64 vs ReduceF64.
		root := (np - 1) % np
		rx := make([]float64, 17)
		ry := make([]float64, 17)
		for i := range rx {
			rx[i] = float64(me*10 + i)
			ry[i] = rx[i]
		}
		c.ReduceF64(root, ry, OpSum)
		c.Wait(c.IreduceF64(root, rx, OpSum))
		if me == root {
			for i := range rx {
				if math.Abs(rx[i]-ry[i]) > 1e-9 {
					t.Errorf("np=%d rank %d: Ireduce[%d] = %g, want %g", np, me, i, rx[i], ry[i])
					break
				}
			}
		}

		// Igather vs Gather.
		gmine := []byte{byte(me), byte(me + 1)}
		goutB := make([][]byte, np)
		goutN := make([][]byte, np)
		for r := range goutB {
			goutB[r] = make([]byte, 2)
			goutN[r] = make([]byte, 2)
		}
		c.Gather(0, gmine, goutB)
		c.Wait(c.Igather(0, gmine, goutN))
		if me == 0 {
			for r := range goutB {
				if !bytes.Equal(goutB[r], goutN[r]) {
					t.Errorf("np=%d rank %d: Igather[%d] = %v, want %v", np, me, r, goutN[r], goutB[r])
				}
			}
		}

		// Iscatter vs Scatter.
		var blocks [][]byte
		if me == 0 {
			blocks = make([][]byte, np)
			for r := range blocks {
				blocks[r] = []byte{byte(3 * r), byte(3*r + 1)}
			}
		}
		sB := make([]byte, 2)
		sN := make([]byte, 2)
		c.Scatter(0, blocks, sB)
		c.Wait(c.Iscatter(0, blocks, sN))
		if !bytes.Equal(sB, sN) || sB[0] != byte(3*me) {
			t.Errorf("np=%d rank %d: Iscatter = %v, blocking %v", np, me, sN, sB)
		}
	})
	if err != nil {
		t.Fatalf("np=%d: %v", np, err)
	}
}

func TestNbcMatchesBlocking(t *testing.T) {
	for _, stack := range nbcStacks() {
		for _, np := range []int{2, 3, 4, 8, 16} {
			cfg := xeonCfg(np, stack)
			t.Run(fmt.Sprintf("%s/np%d", stack.Name, np), func(t *testing.T) {
				runNbcAllOps(t, cfg)
			})
		}
	}
}

// TestBlockingMixedRound: the blocking drive posts a whole round before
// waiting on it, so a round may mix several sends and receives. Here each
// of three ranks sends a rendezvous-sized block to both others and receives
// from both in one round — a shape on which an executor that completes a
// round's sends before posting its receives deadlocks (every rendezvous
// send waits for a receive nobody has posted yet).
func TestBlockingMixedRound(t *testing.T) {
	const np, n = 3, 1 << 20
	block := func(src, dst int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(src*31 + dst*7 + i)
		}
		return b
	}
	for _, stack := range nbcStacks() {
		t.Run(stack.Name, func(t *testing.T) {
			_, err := Run(xeonCfg(np, stack), func(c *Comm) {
				me := c.Rank()
				var rd coll.Round
				a := coll.Args{Send: make([][]byte, np), Recv: make([][]byte, np)}
				recv := a.Recv
				for off := 1; off < np; off++ {
					dst := (me + off) % np
					a.Send[dst] = block(me, dst)
					rd.Comm = append(rd.Comm, coll.Prim{Kind: coll.PrimSend, Peer: dst, Data: a.SendRefs()[dst]})
				}
				for off := 1; off < np; off++ {
					src := (me + off) % np
					recv[src] = make([]byte, n)
					rd.Comm = append(rd.Comm, coll.Prim{Kind: coll.PrimRecv, Peer: src, Buf: a.RecvRefs()[src]})
				}
				c.engine().Run(c.proc, &coll.Schedule{Rounds: []coll.Round{rd}}, a)
				for src := range recv {
					if src != me && !bytes.Equal(recv[src], block(src, me)) {
						t.Errorf("rank %d: block from rank %d corrupted", me, src)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestNbcSingleRank(t *testing.T) {
	_, err := Run(xeonCfg(1, cluster.MPICH2NmadIB()), func(c *Comm) {
		c.Wait(c.Ibarrier())
		x := []float64{3, 4}
		c.Wait(c.IallreduceF64(x, OpSum))
		if x[0] != 3 || x[1] != 4 {
			t.Errorf("single-rank allreduce clobbered x: %v", x)
		}
		out := [][]byte{make([]byte, 2)}
		c.Wait(c.Iallgather([]byte("ab"), out))
		if string(out[0]) != "ab" {
			t.Errorf("single-rank allgather: %q", out[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNbcDeterminism: identical runs produce identical virtual end times.
func TestNbcDeterminism(t *testing.T) {
	run := func() float64 {
		rep, err := Run(xeonCfg(8, cluster.MPICH2NmadIB().WithPIOMan(true)), func(c *Comm) {
			x := make([]float64, 512)
			for i := range x {
				x[i] = float64(c.Rank() + i)
			}
			q := c.IallreduceF64(x, OpSum)
			c.Compute(50e-6)
			c.Wait(q)
			c.Wait(c.Ibarrier())
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Seconds
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic nbc run: %v != %v", a, b)
	}
}

// TestNbcOutstandingConcurrent: several collectives in flight at once, waited
// out of order.
func TestNbcOutstandingConcurrent(t *testing.T) {
	_, err := Run(xeonCfg(4, cluster.MPICH2NmadIB().WithPIOMan(true)), func(c *Comm) {
		np := c.Size()
		x := make([]float64, 64)
		for i := range x {
			x[i] = float64(c.Rank())
		}
		mine := []byte{byte(c.Rank())}
		out := make([][]byte, np)
		for r := range out {
			out[r] = make([]byte, 1)
		}
		q1 := c.IallreduceF64(x, OpMax)
		q2 := c.Iallgather(mine, out)
		q3 := c.Ibarrier()
		c.WaitAll(q3, q1, q2)
		for i := range x {
			if x[i] != float64(np-1) {
				t.Errorf("allreduce max = %v, want %d", x[i], np-1)
				break
			}
		}
		for r := range out {
			if out[r][0] != byte(r) {
				t.Errorf("allgather[%d] = %d", r, out[r][0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNbcTestPolling: Test() eventually completes a collective without Wait.
func TestNbcTestPolling(t *testing.T) {
	_, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
		q := c.Ibarrier()
		spins := 0
		for !c.Test(q) {
			// Advance virtual time between polls (a pure spin would never
			// yield to the engine); this is the poll-while-computing idiom.
			c.Compute(1e-6)
			spins++
			if spins > 10000 {
				t.Fatal("Ibarrier never completed under Test polling")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIsendBarrierRecv: the legal MPI pattern Isend(rendezvous) -> Barrier
// -> Recv must complete — the barrier's collective traffic must not be
// completion-gated behind the outstanding rendezvous send (regression for
// the per-tag scoping of nmad's FIFO send completion).
func TestIsendBarrierRecv(t *testing.T) {
	for _, stack := range nbcStacks() {
		t.Run(stack.Name, func(t *testing.T) {
			cfg := xeonCfg(2, stack)
			_, err := Run(cfg, func(c *Comm) {
				peer := 1 - c.Rank()
				msg := make([]byte, 64<<10) // above every rdv threshold
				for i := range msg {
					msg[i] = byte(c.Rank() + i)
				}
				q := c.Isend(peer, 5, msg)
				c.Barrier()
				buf := make([]byte, len(msg))
				st := c.Recv(peer, 5, buf)
				c.Wait(q)
				if st.Len != len(msg) || buf[0] != byte(peer) {
					t.Errorf("rank %d: got len %d first byte %d", c.Rank(), st.Len, buf[0])
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNbcOverlapProperty: with PIOMan, IallreduceF64 + Compute must beat the
// blocking AllreduceF64 + Compute sequence — the schedule engine progresses
// rounds on the background thread while the app computes.
func TestNbcOverlapProperty(t *testing.T) {
	const computeSec = 300e-6
	elems := 64 << 10 // 512 KB vectors: rendezvous regime

	measure := func(stack cluster.Stack, nonblocking bool) float64 {
		var total float64
		cfg := Config{
			Cluster:   cluster.Xeon2(),
			Stack:     stack,
			NP:        2,
			Placement: topo.Placement{0, 1},
		}
		_, err := Run(cfg, func(c *Comm) {
			x := make([]float64, elems)
			for i := range x {
				x[i] = float64(c.Rank() + i)
			}
			c.Barrier()
			t0 := c.Wtime()
			if nonblocking {
				q := c.IallreduceF64(x, OpSum)
				c.Compute(computeSec)
				c.Wait(q)
			} else {
				c.AllreduceF64(x, OpSum)
				c.Compute(computeSec)
			}
			if c.Rank() == 0 {
				total = c.Wtime() - t0
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}

	pio := cluster.MPICH2NmadIB().WithPIOMan(true)
	blocking := measure(pio, false)
	overlapped := measure(pio, true)
	if overlapped >= blocking {
		t.Fatalf("PIOMan Iallreduce+Compute (%.1fµs) not faster than blocking sequence (%.1fµs)",
			overlapped*1e6, blocking*1e6)
	}
	// The win must come from genuine overlap: at least 20%% of the compute
	// time hidden behind the collective.
	if blocking-overlapped < 0.2*computeSec {
		t.Fatalf("overlap too small: blocking %.1fµs, overlapped %.1fµs",
			blocking*1e6, overlapped*1e6)
	}
}

// TestTwoLevelCollectivesMatch: topology-aware collectives produce the same
// results as the flat ones, blocking and nonblocking, on a placement with
// several ranks per node.
func TestTwoLevelCollectivesMatch(t *testing.T) {
	for _, np := range []int{4, 6, 16} {
		cfg := xeonCfg(np, cluster.MPICH2NmadIB().WithPIOMan(true))
		cfg.Placement = topo.Block(np, cfg.Cluster.NumNodes)
		cfg.TwoLevelColl = true
		t.Run(fmt.Sprintf("np%d", np), func(t *testing.T) {
			_, err := Run(cfg, func(c *Comm) {
				me := c.Rank()

				c.Barrier()
				c.Wait(c.Ibarrier())

				data := make([]byte, 2000)
				if me == 0 {
					for i := range data {
						data[i] = byte(i * 3)
					}
				}
				c.Bcast(0, data)
				for i := range data {
					if data[i] != byte(i*3) {
						t.Errorf("rank %d: two-level bcast wrong at %d", me, i)
						break
					}
				}

				x := make([]float64, 100)
				for i := range x {
					x[i] = float64(me + i)
				}
				c.AllreduceF64(x, OpSum)
				for i := range x {
					want := float64(np*i) + float64(np*(np-1)/2)
					if math.Abs(x[i]-want) > 1e-9 {
						t.Errorf("rank %d: two-level allreduce[%d] = %g, want %g", me, i, x[i], want)
						break
					}
				}

				y := make([]float64, 16)
				for i := range y {
					y[i] = float64(me)
				}
				c.Wait(c.IallreduceF64(y, OpMax))
				for i := range y {
					if y[i] != float64(np-1) {
						t.Errorf("rank %d: two-level Iallreduce = %v", me, y[i])
						break
					}
				}

				buf := make([]byte, 100)
				if me == np-1 {
					for i := range buf {
						buf[i] = byte(255 - i)
					}
				}
				c.Wait(c.Ibcast(np-1, buf))
				for i := range buf {
					if buf[i] != byte(255-i) {
						t.Errorf("rank %d: two-level Ibcast wrong at %d", me, i)
						break
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTwoLevelLeadersOnlyOnNetwork: with two-level collectives and co-located
// ranks, an allreduce moves fewer bytes over the rails than the flat variant.
func TestTwoLevelLeadersOnlyOnNetwork(t *testing.T) {
	base := xeonCfg(8, cluster.MPICH2NmadIB())
	base.Placement = topo.Block(8, base.Cluster.NumNodes)

	railBytes := func(twoLevel bool) int64 {
		cfg := base
		cfg.TwoLevelColl = twoLevel
		rep, err := Run(cfg, func(c *Comm) {
			x := make([]float64, 4096)
			for i := range x {
				x[i] = float64(c.Rank())
			}
			c.AllreduceF64(x, OpSum)
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, r := range rep.Rails {
			total += r.Bytes
		}
		return total
	}

	flat, two := railBytes(false), railBytes(true)
	if two >= flat {
		t.Fatalf("two-level allreduce used %d rail bytes, flat %d — hierarchy saved nothing", two, flat)
	}
}

// TestTwoLevelAllgatherAlltoallRails: the two-level allgather and alltoall
// aggregate per node, so only the per-node leaders appear on the rails —
// far fewer rail packets than the flat variants, whose co-located ranks
// each push their own blocks across the network.
func TestTwoLevelAllgatherAlltoallRails(t *testing.T) {
	base := xeonCfg(8, cluster.MPICH2NmadIB())
	base.Placement = topo.Block(8, base.Cluster.NumNodes) // 4 ranks per node

	railPackets := func(twoLevel bool, body func(c *Comm)) int64 {
		cfg := base
		cfg.TwoLevelColl = twoLevel
		rep, err := Run(cfg, body)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, r := range rep.Rails {
			total += r.Packets
		}
		return total
	}

	allgather := func(c *Comm) {
		mine := make([]byte, 512)
		out := make([][]byte, c.Size())
		for r := range out {
			out[r] = make([]byte, len(mine))
		}
		c.Wait(c.Iallgather(mine, out))
	}
	alltoall := func(c *Comm) {
		send := make([][]byte, c.Size())
		recv := make([][]byte, c.Size())
		for r := range send {
			send[r] = make([]byte, 512)
			recv[r] = make([]byte, 512)
		}
		c.Wait(c.Ialltoall(send, recv))
	}

	for _, tc := range []struct {
		name string
		body func(c *Comm)
	}{{"allgather", allgather}, {"alltoall", alltoall}} {
		flat, two := railPackets(false, tc.body), railPackets(true, tc.body)
		if two >= flat {
			t.Errorf("%s: two-level used %d rail packets, flat %d — leaders-only aggregation saved nothing",
				tc.name, two, flat)
		}
		// With 2 nodes the leader exchange is exactly one aggregate message
		// each way; allow a small factor for eager-protocol framing but rule
		// out per-block traffic (flat moves >= 14 cross-node blocks for
		// allgather, 32 for alltoall).
		if two*4 > flat {
			t.Errorf("%s: two-level rail packets %d not <1/4 of flat %d", tc.name, two, flat)
		}
	}
}

// TestTwoLevelAllgatherAlltoallMatch: two-level allgather/alltoall results
// match the flat variants on co-located placements, blocking and
// nonblocking.
func TestTwoLevelAllgatherAlltoallMatch(t *testing.T) {
	for _, np := range []int{4, 6, 8} {
		np := np
		cfg := xeonCfg(np, cluster.MPICH2NmadIB().WithPIOMan(true))
		cfg.Placement = topo.Block(np, cfg.Cluster.NumNodes)
		cfg.TwoLevelColl = true
		t.Run(fmt.Sprintf("np%d", np), func(t *testing.T) {
			_, err := Run(cfg, func(c *Comm) {
				me := c.Rank()

				mine := []byte(fmt.Sprintf("<blk%02d>", me))
				out := make([][]byte, np)
				for r := range out {
					out[r] = make([]byte, len(mine))
				}
				c.Allgather(mine, out)
				for r := range out {
					if string(out[r]) != fmt.Sprintf("<blk%02d>", r) {
						t.Errorf("rank %d: two-level allgather[%d] = %q", me, r, out[r])
					}
				}
				outN := make([][]byte, np)
				for r := range outN {
					outN[r] = make([]byte, len(mine))
				}
				c.Wait(c.Iallgather(mine, outN))
				for r := range outN {
					if !bytes.Equal(outN[r], out[r]) {
						t.Errorf("rank %d: two-level Iallgather[%d] = %q", me, r, outN[r])
					}
				}

				send := make([][]byte, np)
				recv := make([][]byte, np)
				recvN := make([][]byte, np)
				for r := range send {
					send[r] = []byte(fmt.Sprintf("%02d>%02d", me, r))
					recv[r] = make([]byte, len(send[r]))
					recvN[r] = make([]byte, len(send[r]))
				}
				c.Alltoall(send, recv)
				for r := range recv {
					if string(recv[r]) != fmt.Sprintf("%02d>%02d", r, me) {
						t.Errorf("rank %d: two-level alltoall[%d] = %q", me, r, recv[r])
					}
				}
				c.Wait(c.Ialltoall(send, recvN))
				for r := range recvN {
					if !bytes.Equal(recvN[r], recv[r]) {
						t.Errorf("rank %d: two-level Ialltoall[%d] = %q", me, r, recvN[r])
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
