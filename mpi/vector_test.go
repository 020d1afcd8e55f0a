package mpi

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/cluster"
)

// vCell is the deterministic payload byte at position i of the s→d block.
func vCell(s, d, i int) byte { return byte(s*37 + d*11 + i*5 + 3) }

// vMatrix is a fixed skewed count matrix for np ranks: zero blocks, a heavy
// row and a heavy column included.
func vMatrix(np int) [][]int {
	m := make([][]int, np)
	for s := range m {
		m[s] = make([]int, np)
		for d := range m[s] {
			switch {
			case (s+d)%3 == 0:
				m[s][d] = 0
			case s == 1:
				m[s][d] = 96 + d // heavy sender
			case d == 2%np:
				m[s][d] = 80 + s // heavy receiver
			default:
				m[s][d] = (s*7 + d*3) % 23
			}
		}
	}
	return m
}

// TestAlltoallvEngineMatchesReference: the counts-based entry point routes
// every irregular block, with receive displacements laying blocks out in
// reverse order (gaps included) to exercise rebatching via displs.
func TestAlltoallvEngineMatchesReference(t *testing.T) {
	for _, np := range []int{2, 3, 4, 8} {
		np := np
		t.Run(fmt.Sprintf("np%d", np), func(t *testing.T) {
			_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
				me := c.Rank()
				m := vMatrix(np)
				scounts, rcounts := m[me], make([]int, np)
				for s := 0; s < np; s++ {
					rcounts[s] = m[s][me]
				}
				stotal, rtotal := 0, 0
				for r := 0; r < np; r++ {
					stotal += scounts[r]
					rtotal += rcounts[r]
				}
				sbuf := make([]byte, stotal)
				off := 0
				for d := 0; d < np; d++ {
					for i := 0; i < scounts[d]; i++ {
						sbuf[off+i] = vCell(me, d, i)
					}
					off += scounts[d]
				}
				// Reverse-order receive layout with a 3-byte gap per block.
				rdispls := make([]int, np)
				pos := 0
				for s := np - 1; s >= 0; s-- {
					rdispls[s] = pos
					pos += rcounts[s] + 3
				}
				rbuf := make([]byte, pos)
				c.Alltoallv(sbuf, scounts, nil, rbuf, rcounts, rdispls)
				for s := 0; s < np; s++ {
					for i := 0; i < rcounts[s]; i++ {
						if got := rbuf[rdispls[s]+i]; got != vCell(s, me, i) {
							t.Errorf("rank %d: block from %d byte %d = %d, want %d",
								me, s, i, got, vCell(s, me, i))
							return
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAlltoallvBytesRunsOnEngine: the block-view form compiles schedules
// through the per-communicator cache — the historical hand-rolled loop is
// gone — and repeated shapes hit the cache instead of recompiling.
func TestAlltoallvBytesRunsOnEngine(t *testing.T) {
	const np = 4
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
		me := c.Rank()
		m := vMatrix(np)
		run := func() {
			send := make([][]byte, np)
			recv := make([][]byte, np)
			for d := 0; d < np; d++ {
				send[d] = make([]byte, m[me][d])
				for i := range send[d] {
					send[d][i] = vCell(me, d, i)
				}
				recv[d] = make([]byte, m[d][me])
			}
			c.AlltoallvBytes(send, recv)
			for s := 0; s < np; s++ {
				for i := range recv[s] {
					if recv[s][i] != vCell(s, me, i) {
						t.Errorf("rank %d: bad byte from %d", me, s)
						return
					}
				}
			}
		}
		run()
		c0, h0 := c.SchedCacheStats()
		if c0 == 0 {
			t.Errorf("rank %d: AlltoallvBytes bypassed the schedule cache", me)
		}
		for i := 0; i < 3; i++ {
			run() // fresh buffers, same counts: cache hits, no recompiles
		}
		c1, h1 := c.SchedCacheStats()
		if c1 != c0 {
			t.Errorf("rank %d: %d recompiles on repeated irregular shape", me, c1-c0)
		}
		if h1 != h0+3 {
			t.Errorf("rank %d: %d cache hits, want %d", me, h1-h0, 3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgathervGathervScattervEngine(t *testing.T) {
	const np = 5
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
		me := c.Rank()
		counts := []int{0, 17, 5, 96, 3}
		total := 0
		for _, n := range counts {
			total += n
		}
		mine := make([]byte, counts[me])
		for i := range mine {
			mine[i] = vCell(me, me, i)
		}

		rbuf := make([]byte, total)
		c.Allgatherv(mine, rbuf, counts, nil)
		off := 0
		for r := 0; r < np; r++ {
			for i := 0; i < counts[r]; i++ {
				if rbuf[off+i] != vCell(r, r, i) {
					t.Errorf("rank %d: allgatherv block %d corrupt", me, r)
					return
				}
			}
			off += counts[r]
		}

		const root = 2
		var gbuf []byte
		if me == root {
			gbuf = make([]byte, total)
		}
		if me == root {
			c.Gatherv(root, mine, gbuf, counts, nil)
		} else {
			c.Gatherv(root, mine, nil, nil, nil)
		}
		if me == root {
			off = 0
			for r := 0; r < np; r++ {
				for i := 0; i < counts[r]; i++ {
					if gbuf[off+i] != vCell(r, r, i) {
						t.Errorf("gatherv block %d corrupt", r)
						return
					}
				}
				off += counts[r]
			}
		}

		buf := make([]byte, counts[me])
		if me == root {
			sbuf := make([]byte, total)
			off = 0
			for r := 0; r < np; r++ {
				for i := 0; i < counts[r]; i++ {
					sbuf[off+i] = vCell(root, r, i)
				}
				off += counts[r]
			}
			c.Scatterv(root, sbuf, counts, nil, buf)
		} else {
			c.Scatterv(root, nil, nil, nil, buf)
		}
		for i := range buf {
			if buf[i] != vCell(root, me, i) {
				t.Errorf("rank %d: scatterv block corrupt", me)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterF64Engine(t *testing.T) {
	for _, np := range []int{2, 3, 4, 8} { // pow2 = halving, odd = pairwise
		np := np
		t.Run(fmt.Sprintf("np%d", np), func(t *testing.T) {
			_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
				me := c.Rank()
				counts := make([]int, np)
				for r := range counts {
					counts[r] = (r * 5) % 11 // zero segment at rank 0
				}
				total := 0
				for _, n := range counts {
					total += n
				}
				x := make([]float64, total)
				for i := range x {
					x[i] = float64(me*100 + i)
				}
				recv := make([]float64, counts[me])
				c.ReduceScatterF64(x, recv, counts, OpSum)
				off := 0
				for r := 0; r < me; r++ {
					off += counts[r]
				}
				for i := range recv {
					want := 0.0
					for s := 0; s < np; s++ {
						want += float64(s*100 + off + i)
					}
					if math.Abs(recv[i]-want) > 1e-9 {
						t.Errorf("rank %d elem %d = %g, want %g", me, i, recv[i], want)
						return
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIVectorCollectives: the nonblocking vector family progresses through
// the nbc engine and composes with Wait/WaitAll, overlapping compute.
func TestIVectorCollectives(t *testing.T) {
	const np = 4
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB().WithPIOMan(true)), func(c *Comm) {
		me := c.Rank()
		m := vMatrix(np)
		scounts, rcounts := m[me], make([]int, np)
		stotal, rtotal := 0, 0
		for s := 0; s < np; s++ {
			rcounts[s] = m[s][me]
			stotal += scounts[s]
			rtotal += rcounts[s]
		}
		sbuf := make([]byte, stotal)
		off := 0
		for d := 0; d < np; d++ {
			for i := 0; i < scounts[d]; i++ {
				sbuf[off+i] = vCell(me, d, i)
			}
			off += scounts[d]
		}
		rbuf := make([]byte, rtotal)

		gcounts := []int{9, 0, 33, 5}
		gtotal := 0
		for _, n := range gcounts {
			gtotal += n
		}
		mine := make([]byte, gcounts[me])
		gbuf := make([]byte, gtotal)

		ecounts := []int{3, 8, 0, 5}
		etotal := 0
		for _, n := range ecounts {
			etotal += n
		}
		x := make([]float64, etotal)
		for i := range x {
			x[i] = float64(me + i)
		}
		recv := make([]float64, ecounts[me])

		q1 := c.Ialltoallv(sbuf, scounts, nil, rbuf, rcounts, nil)
		q2 := c.Iallgatherv(mine, gbuf, gcounts, nil)
		q3 := c.IreduceScatterF64(x, recv, ecounts, OpSum)
		c.Compute(50e-6)
		c.WaitAll(q1, q2, q3)

		off = 0
		for s := 0; s < np; s++ {
			for i := 0; i < rcounts[s]; i++ {
				if rbuf[off+i] != vCell(s, me, i) {
					t.Errorf("rank %d: Ialltoallv block from %d corrupt", me, s)
					return
				}
			}
			off += rcounts[s]
		}
		eoff := 0
		for r := 0; r < me; r++ {
			eoff += ecounts[r]
		}
		for i := range recv {
			want := 0.0
			for s := 0; s < np; s++ {
				want += float64(s + eoff + i)
			}
			if math.Abs(recv[i]-want) > 1e-9 {
				t.Errorf("rank %d: IreduceScatterF64 elem %d = %g, want %g", me, i, recv[i], want)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVectorSchedCacheDeterminism: cached and uncached runs of an irregular
// workload — vector collectives mixed with their nonblocking forms — are
// identical in virtual time.
func TestVectorSchedCacheDeterminism(t *testing.T) {
	workload := func(c *Comm) {
		np := c.Size()
		me := c.Rank()
		m := vMatrix(np)
		scounts, rcounts := m[me], make([]int, np)
		stotal, rtotal := 0, 0
		for s := 0; s < np; s++ {
			rcounts[s] = m[s][me]
			stotal += scounts[s]
			rtotal += rcounts[s]
		}
		ecounts := make([]int, np)
		gcounts := make([]int, np)
		etotal, gtotal := 0, 0
		for r := range ecounts {
			ecounts[r] = (r * 3) % 7
			etotal += ecounts[r]
			gcounts[r] = (r * 5) % 9
			gtotal += gcounts[r]
		}
		for iter := 0; iter < 4; iter++ {
			sbuf := make([]byte, stotal)
			rbuf := make([]byte, rtotal)
			q := c.Ialltoallv(sbuf, scounts, nil, rbuf, rcounts, nil)
			c.Compute(30e-6)
			c.Wait(q)
			x := make([]float64, etotal)
			recv := make([]float64, ecounts[me])
			c.ReduceScatterF64(x, recv, ecounts, OpSum)
			gbuf := make([]byte, gtotal)
			c.Allgatherv(make([]byte, gcounts[me]), gbuf, gcounts, nil)
			c.Barrier()
		}
	}
	measure := func(noCache bool) float64 {
		cfg := xeonCfg(8, cluster.MPICH2NmadIB().WithPIOMan(true))
		cfg.NoSchedCache = noCache
		rep, err := Run(cfg, workload)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Seconds
	}
	cached, uncached := measure(false), measure(true)
	if cached != uncached {
		t.Fatalf("cached run %.9fs != uncached run %.9fs", cached, uncached)
	}
}

// TestVectorValidationPanics: the vector entry points reject malformed
// counts with the operation name in the message, per the validation
// convention.
func TestVectorValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		want string
		call func(c *Comm)
	}{
		{"AlltoallvNegative", "Alltoallv: negative send count",
			func(c *Comm) {
				c.Alltoallv(make([]byte, 8), []int{-1, 2}, nil, make([]byte, 8), []int{2, 2}, nil)
			}},
		{"AlltoallvCountsLen", "Alltoallv: 3 send counts for communicator size 2",
			func(c *Comm) {
				c.Alltoallv(make([]byte, 8), []int{1, 1, 1}, nil, make([]byte, 8), []int{2, 2}, nil)
			}},
		{"AlltoallvOverrun", "Alltoallv: send block 1 [4:12) exceeds buffer length 8",
			func(c *Comm) {
				c.Alltoallv(make([]byte, 8), []int{4, 8}, nil, make([]byte, 16), []int{4, 4}, nil)
			}},
		{"AlltoallvSelf", "Alltoallv: self block mismatch",
			func(c *Comm) {
				c.Alltoallv(make([]byte, 8), []int{4, 4}, nil, make([]byte, 8), []int{2, 6}, nil)
			}},
		{"AllgathervMine", "Allgatherv: rcounts[0]=4 but this rank contributes 2",
			func(c *Comm) {
				c.Allgatherv(make([]byte, 2), make([]byte, 8), []int{4, 4}, nil)
			}},
		{"AllgathervDispls", "Allgatherv: 1 recv displacements for communicator size 2",
			func(c *Comm) {
				c.Allgatherv(make([]byte, 4), make([]byte, 8), []int{4, 4}, []int{0})
			}},
		{"IalltoallvNegative", "Ialltoallv: negative recv count",
			func(c *Comm) {
				c.Ialltoallv(make([]byte, 8), []int{4, 4}, nil, make([]byte, 8), []int{4, -4}, nil)
			}},
		{"GathervRoot", "Gatherv: root 5 out of range",
			func(c *Comm) { c.Gatherv(5, make([]byte, 4), nil, nil, nil) }},
		{"ScattervBuf", "Scatterv: scounts[0]=4 but buf is 2",
			func(c *Comm) {
				c.Scatterv(0, make([]byte, 8), []int{4, 4}, nil, make([]byte, 2))
			}},
		{"ReduceScatterSum", "ReduceScatterF64: counts sum to 6 elements but x has 8",
			func(c *Comm) {
				c.ReduceScatterF64(make([]float64, 8), make([]float64, 3), []int{3, 3}, OpSum)
			}},
		{"ReduceScatterNegative", "IreduceScatterF64: negative count",
			func(c *Comm) {
				c.IreduceScatterF64(make([]float64, 8), make([]float64, 9), []int{9, -1}, OpSum)
			}},
		{"ReduceScatterRecv", "ReduceScatterF64: recv has 1 elements but counts[0]=3",
			func(c *Comm) {
				c.ReduceScatterF64(make([]float64, 8), make([]float64, 1), []int{3, 5}, OpSum)
			}},
		{"ReduceScatterAliased", "ReduceScatterF64: recv overlaps x",
			func(c *Comm) {
				x := make([]float64, 8)
				c.ReduceScatterF64(x, x[:3], []int{3, 5}, OpSum)
			}},
		{"AlltoallvAliased", "Alltoallv: recv buffer overlaps send buffer",
			func(c *Comm) {
				buf := make([]byte, 8)
				c.Alltoallv(buf, []int{2, 2}, nil, buf[2:], []int{2, 2}, nil)
			}},
		{"AllgathervAliased", "Allgatherv: recv buffer overlaps mine",
			func(c *Comm) {
				rbuf := make([]byte, 8)
				c.Allgatherv(rbuf[:4], rbuf, []int{4, 4}, nil)
			}},
		{"AlltoallvRecvOverlap", "Alltoallv: overlapping recv blocks",
			func(c *Comm) {
				c.Alltoallv(make([]byte, 8), []int{4, 4}, nil,
					make([]byte, 8), []int{4, 4}, []int{0, 2})
			}},
		{"AllgathervRecvOverlap", "Allgatherv: overlapping recv blocks",
			func(c *Comm) {
				c.Allgatherv(make([]byte, 4), make([]byte, 8), []int{4, 4}, []int{0, 0})
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var msg string
			_, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
				if c.Rank() != 0 {
					return
				}
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				tc.call(c)
			})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(msg, tc.want) {
				t.Errorf("panic %q does not contain %q", msg, tc.want)
			}
		})
	}
}

// TestAlltoallvOverlappingDisplsHitCache: a call whose send blocks alias
// each other (legal for sends) and a later same-counts call with a
// disjoint layout share one cached plan — displacements change only what
// an execution binds — and each moves its own blocks.
func TestAlltoallvOverlappingDisplsHitCache(t *testing.T) {
	const np = 2
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
		me := c.Rank()
		counts := []int{4, 4}

		// Call 1: both send blocks alias sbuf[0:4].
		sbuf := make([]byte, 8)
		for i := 0; i < 4; i++ {
			sbuf[i] = byte(0x10 + me)
		}
		rbuf := make([]byte, 8)
		c.Alltoallv(sbuf, counts, []int{0, 0}, rbuf, counts, nil)
		for s := 0; s < np; s++ {
			for i := 0; i < 4; i++ {
				if rbuf[4*s+i] != byte(0x10+s) {
					t.Errorf("rank %d: aliased call, block from %d corrupt", me, s)
					return
				}
			}
		}

		// Call 2: same counts, disjoint layout, distinct per-block content.
		// A plan bound to call 1's memory would send block 0's bytes to
		// rank 1 again.
		for d := 0; d < np; d++ {
			for i := 0; i < 4; i++ {
				sbuf[4*d+i] = byte(0x20 + 16*me + d)
			}
		}
		c.Alltoallv(sbuf, counts, []int{0, 4}, rbuf, counts, nil)
		for s := 0; s < np; s++ {
			for i := 0; i < 4; i++ {
				if got := rbuf[4*s+i]; got != byte(0x20+16*s+me) {
					t.Errorf("rank %d: disjoint call got %#x from %d, want %#x (stale aliased binding?)",
						me, got, s, 0x20+16*s+me)
					return
				}
			}
		}
		if compiles, hits := c.SchedCacheStats(); compiles != 1 || hits != 1 {
			t.Errorf("rank %d: compiles/hits = %d/%d, want 1/1 (one plan for both layouts)",
				me, compiles, hits)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallvBytesAliasedSendsHitCache: aliased send views (the
// workspace-reuse idiom) and a later same-length call with disjoint blocks
// share one cached plan, each moving its own blocks; aliased receive views
// panic.
func TestAlltoallvBytesAliasedSendsHitCache(t *testing.T) {
	const np = 2
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
		me := c.Rank()
		mkRecv := func() [][]byte {
			r := make([][]byte, np)
			for i := range r {
				r[i] = make([]byte, 4)
			}
			return r
		}

		// Call 1: every send block aliases one shared buffer.
		shared := make([]byte, 4)
		for i := range shared {
			shared[i] = byte(0x30 + me)
		}
		recv := mkRecv()
		c.AlltoallvBytes([][]byte{shared, shared}, recv)
		for s := 0; s < np; s++ {
			if recv[s][0] != byte(0x30+s) {
				t.Errorf("rank %d: aliased call corrupt from %d", me, s)
				return
			}
		}

		// Call 2: same lengths, disjoint blocks with distinct content. A
		// plan bound to call 1's memory would resend block 0 to rank 1.
		send := make([][]byte, np)
		for d := 0; d < np; d++ {
			send[d] = make([]byte, 4)
			for i := range send[d] {
				send[d][i] = byte(0x50 + 16*me + d)
			}
		}
		recv = mkRecv()
		c.AlltoallvBytes(send, recv)
		for s := 0; s < np; s++ {
			if got := recv[s][0]; got != byte(0x50+16*s+me) {
				t.Errorf("rank %d: disjoint call got %#x from %d, want %#x (stale aliased binding?)",
					me, got, s, 0x50+16*s+me)
				return
			}
		}
		if compiles, hits := c.SchedCacheStats(); compiles != 1 || hits != 1 {
			t.Errorf("rank %d: compiles/hits = %d/%d, want 1/1 (one plan for both layouts)",
				me, compiles, hits)
		}

		// Aliased receive blocks are rejected.
		if me == 0 {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "overlapping recv blocks") {
					t.Errorf("aliased recv blocks did not panic (got %v)", r)
				}
			}()
			rb := make([]byte, 4)
			c.AlltoallvBytes(send, [][]byte{rb, rb})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
