package coll

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

func TestBcastScatterAllgatherAllNP(t *testing.T) {
	for _, n := range testNPs {
		for _, sz := range []int{0, 3, 16, 257} { // incl. sz < np (empty chunks)
			for root := 0; root < n; root += 3 {
				n, sz, root := n, sz, root
				t.Run(fmt.Sprintf("np%d/sz%d/root%d", n, sz, root), func(t *testing.T) {
					bufs := make([][]byte, n)
					for r := range bufs {
						bufs[r] = make([]byte, sz)
						if r == root {
							for i := range bufs[r] {
								bufs[r][i] = byte(i*5 + root)
							}
						}
					}
					execSched(t, n, func(rank int) *Schedule {
						return BuildBcastScatterAllgather(rank, n, root, bufs[rank])
					}, 20)
					for r := range bufs {
						for i := range bufs[r] {
							if bufs[r][i] != byte(i*5+root) {
								t.Fatalf("rank %d byte %d = %d", r, i, bufs[r][i])
							}
						}
					}
				})
			}
		}
	}
}

func TestRabenseifnerAllreduce(t *testing.T) {
	// Power-of-two sizes run the real reduce-scatter + allgather; others
	// exercise the recursive-doubling fallback. Vector lengths include odd
	// sizes and lengths below the rank count (empty windows).
	for _, n := range []int{2, 3, 4, 6, 8, 16} {
		for _, m := range []int{1, 2, 5, 16, 33} {
			n, m := n, m
			t.Run(fmt.Sprintf("np%d/len%d", n, m), func(t *testing.T) {
				vecs := make([][]float64, n)
				for r := range vecs {
					vecs[r] = make([]float64, m)
					for i := range vecs[r] {
						vecs[r][i] = float64(r*100 + i)
					}
				}
				execSched(t, n, func(rank int) *Schedule {
					return BuildAllreduceRabenseifner(rank, n, vecs[rank], OpSum)
				}, 21)
				for i := 0; i < m; i++ {
					want := 0.0
					for r := 0; r < n; r++ {
						want += float64(r*100 + i)
					}
					for r := 0; r < n; r++ {
						if math.Abs(vecs[r][i]-want) > 1e-9 {
							t.Fatalf("rank %d elem %d = %g, want %g", r, i, vecs[r][i], want)
						}
					}
				}
			})
		}
	}
}

func TestBruckAllgatherAllNP(t *testing.T) {
	for _, n := range testNPs {
		n := n
		t.Run(fmt.Sprintf("np%d", n), func(t *testing.T) {
			// Irregular block sizes: rank r contributes r%3+1 bytes.
			blockOf := func(r int) []byte {
				b := make([]byte, r%3+1)
				for i := range b {
					b[i] = byte(r*7 + i)
				}
				return b
			}
			outs := make([][][]byte, n)
			for r := 0; r < n; r++ {
				outs[r] = make([][]byte, n)
				for q := 0; q < n; q++ {
					outs[r][q] = make([]byte, q%3+1)
				}
			}
			execSched(t, n, func(rank int) *Schedule {
				return BuildAllgatherBruck(rank, n, blockOf(rank), outs[rank])
			}, 22)
			for r := 0; r < n; r++ {
				for q := 0; q < n; q++ {
					if !bytes.Equal(outs[r][q], blockOf(q)) {
						t.Fatalf("rank %d slot %d = %v, want %v", r, q, outs[r][q], blockOf(q))
					}
				}
			}
		})
	}
}

func TestScatterScheduleAllNP(t *testing.T) {
	for _, n := range testNPs {
		for root := 0; root < n; root += 2 {
			n, root := n, root
			t.Run(fmt.Sprintf("np%d/root%d", n, root), func(t *testing.T) {
				blocks := make([][]byte, n)
				for r := range blocks {
					blocks[r] = []byte(fmt.Sprintf("blk-%02d", r))
				}
				got := make([][]byte, n)
				for r := range got {
					got[r] = make([]byte, len(blocks[r]))
				}
				execSched(t, n, func(rank int) *Schedule {
					var bs [][]byte
					if rank == root {
						bs = blocks
					}
					return BuildScatter(rank, n, root, bs, got[rank])
				}, 23)
				for r := range got {
					if !bytes.Equal(got[r], blocks[r]) {
						t.Fatalf("rank %d got %q, want %q", r, got[r], blocks[r])
					}
				}
			})
		}
	}
}

func TestTwoLevelAllgatherFabric(t *testing.T) {
	for _, n := range testNPs {
		if n < 2 {
			continue
		}
		for pi, nodes := range testPlacements(n) {
			nodes := nodes
			t.Run(fmt.Sprintf("np%d/p%d", n, pi), func(t *testing.T) {
				blockOf := func(r int) []byte {
					b := make([]byte, r%4+1)
					for i := range b {
						b[i] = byte(r*11 + i)
					}
					return b
				}
				outs := make([][][]byte, n)
				for r := 0; r < n; r++ {
					outs[r] = make([][]byte, n)
					for q := 0; q < n; q++ {
						outs[r][q] = make([]byte, q%4+1)
					}
				}
				execSched(t, n, func(rank int) *Schedule {
					return BuildAllgatherTwoLevel(rank, nodes, blockOf(rank), outs[rank])
				}, 24)
				for r := 0; r < n; r++ {
					for q := 0; q < n; q++ {
						if !bytes.Equal(outs[r][q], blockOf(q)) {
							t.Fatalf("rank %d slot %d = %v, want %v", r, q, outs[r][q], blockOf(q))
						}
					}
				}
			})
		}
	}
}

func TestTwoLevelAlltoallFabric(t *testing.T) {
	for _, n := range testNPs {
		if n < 2 {
			continue
		}
		for pi, nodes := range testPlacements(n) {
			nodes := nodes
			t.Run(fmt.Sprintf("np%d/p%d", n, pi), func(t *testing.T) {
				const b = 6
				blk := func(src, dst int) []byte {
					x := make([]byte, b)
					for i := range x {
						x[i] = byte(src*31 + dst*7 + i)
					}
					return x
				}
				recvs := make([][][]byte, n)
				for r := 0; r < n; r++ {
					recvs[r] = make([][]byte, n)
					for q := 0; q < n; q++ {
						recvs[r][q] = make([]byte, b)
					}
				}
				execSched(t, n, func(rank int) *Schedule {
					send := make([][]byte, n)
					for d := 0; d < n; d++ {
						send[d] = blk(rank, d)
					}
					return BuildAlltoallTwoLevel(rank, nodes, send, recvs[rank])
				}, 25)
				for r := 0; r < n; r++ {
					for q := 0; q < n; q++ {
						if !bytes.Equal(recvs[r][q], blk(q, r)) {
							t.Fatalf("rank %d from %d = %v, want %v", r, q, recvs[r][q], blk(q, r))
						}
					}
				}
			})
		}
	}
}

// TestNewBuilderRoundShapes extends the round-shape check to the tuned and
// two-level algorithm set.
func TestNewBuilderRoundShapes(t *testing.T) {
	x := make([]float64, 40)
	data := make([]byte, 4096)
	for _, n := range testNPs {
		blocks := make([][]byte, n)
		for i := range blocks {
			blocks[i] = make([]byte, 8)
		}
		nodes := make([]int, n)
		for r := range nodes {
			nodes[r] = r % 2
		}
		for rank := 0; rank < n; rank++ {
			checkRoundShape(t, BuildBcastScatterAllgather(rank, n, 0, data),
				fmt.Sprintf("bcast-sag/np%d/r%d", n, rank))
			checkRoundShape(t, BuildAllreduceRabenseifner(rank, n, x, OpSum),
				fmt.Sprintf("rabenseifner/np%d/r%d", n, rank))
			checkRoundShape(t, BuildAllgatherBruck(rank, n, blocks[0], blocks),
				fmt.Sprintf("bruck/np%d/r%d", n, rank))
			checkRoundShape(t, BuildScatter(rank, n, 0, blocks, blocks[rank]),
				fmt.Sprintf("scatter/np%d/r%d", n, rank))
			checkRoundShape(t, BuildAllgatherTwoLevel(rank, nodes, blocks[0], blocks),
				fmt.Sprintf("allgather2l/np%d/r%d", n, rank))
			checkRoundShape(t, BuildAlltoallTwoLevel(rank, nodes, blocks, blocks),
				fmt.Sprintf("alltoall2l/np%d/r%d", n, rank))
		}
	}
}

func TestSelectTable(t *testing.T) {
	var tn *Tuning
	cases := []struct {
		op       OpKind
		size     int
		bytes    int
		twoLevel bool
		want     Algo
	}{
		{OpBarrier, 8, 0, false, AlgoDissemination},
		{OpBarrier, 8, 0, true, AlgoTwoLevel},
		{OpBcast, 16, 1024, false, AlgoBinomial},
		{OpBcast, 16, 64 << 10, false, AlgoScatterAllgather},
		{OpBcast, 4, 64 << 10, false, AlgoBinomial}, // too few ranks to scatter
		{OpBcast, 16, 64 << 10, true, AlgoTwoLevel},
		{OpAllreduce, 8, 256, false, AlgoRecDoubling},
		{OpAllreduce, 8, 64 << 10, false, AlgoRabenseifner},
		{OpAllreduce, 6, 64 << 10, false, AlgoRecDoubling}, // non-power-of-two
		{OpAllreduce, 8, 64 << 10, true, AlgoTwoLevel},
		{OpAllgather, 8, 1024, false, AlgoBruck},
		{OpAllgather, 8, 1 << 20, false, AlgoRing},
		{OpAlltoall, 8, 1024, false, AlgoPairwise},
		{OpGather, 8, 1024, false, AlgoLinear},
		{OpScatter, 8, 1024, false, AlgoLinear},
	}
	for _, c := range cases {
		if got := tn.Select(c.op, c.size, c.bytes, c.twoLevel); got != c.want {
			t.Errorf("Select(%s, np%d, %dB, twoLevel=%v) = %s, want %s",
				c.op, c.size, c.bytes, c.twoLevel, got, c.want)
		}
	}
	forced := &Tuning{Force: map[OpKind]Algo{OpAllgather: AlgoRing}}
	if got := forced.Select(OpAllgather, 8, 10, false); got != AlgoRing {
		t.Errorf("forced Select = %s, want ring", got)
	}
}

// TestKeyForFallbacks: two-level requests degrade gracefully when the
// topology or the block shapes rule the hierarchical variant out.
func TestKeyForFallbacks(t *testing.T) {
	a := Args{Rank: 0, Size: 8, Data: make([]byte, 64)}
	if k := KeyFor(nil, OpBcast, a, true); k.Algo != AlgoBinomial {
		t.Errorf("two-level bcast without nodes → %s, want binomial", k.Algo)
	}
	irregular := Args{Rank: 0, Size: 4, Nodes: []int{0, 0, 1, 1},
		Send: [][]byte{make([]byte, 1), make([]byte, 2), make([]byte, 1), make([]byte, 1)},
		Recv: [][]byte{make([]byte, 1), make([]byte, 1), make([]byte, 1), make([]byte, 1)}}
	if k := KeyFor(nil, OpAlltoall, irregular, true); k.Algo != AlgoPairwise {
		t.Errorf("two-level alltoall with irregular blocks → %s, want pairwise", k.Algo)
	}
	uniform := Args{Rank: 0, Size: 4, Nodes: []int{0, 0, 1, 1},
		Send: [][]byte{make([]byte, 2), make([]byte, 2), make([]byte, 2), make([]byte, 2)},
		Recv: [][]byte{make([]byte, 2), make([]byte, 2), make([]byte, 2), make([]byte, 2)}}
	if k := KeyFor(nil, OpAlltoall, uniform, true); k.Algo != AlgoTwoLevel {
		t.Errorf("two-level alltoall with uniform blocks → %s, want two-level", k.Algo)
	}
}

// TestRebind: a schedule compiled against one set of buffers re-executes
// correctly against another after Rebind, without touching the originals —
// the persistent-schedule property the mpi cache relies on.
func TestRebind(t *testing.T) {
	const n = 4
	// Compile a large-payload bcast (sub-slicing algorithm) per rank.
	mkArgs := func(bufs [][]byte, rank int) Args {
		return Args{Rank: rank, Size: n, Root: 0, Data: bufs[rank]}
	}
	bufs1 := make([][]byte, n)
	bufs2 := make([][]byte, n)
	for r := 0; r < n; r++ {
		bufs1[r] = make([]byte, 100)
		bufs2[r] = make([]byte, 100)
	}
	fill := func(b []byte, seed byte) {
		for i := range b {
			b[i] = byte(i)*3 + seed
		}
	}
	fill(bufs1[0], 1)
	fill(bufs2[0], 2)

	scheds := make([]*Schedule, n)
	for r := 0; r < n; r++ {
		scheds[r] = Build(Key{Op: OpBcast, Algo: AlgoScatterAllgather, Root: 0},
			mkArgs(bufs1, r))
	}
	runAll(t, n, func(p *peer) { runSched(p, scheds[p.Rank()], 30) })
	for r := 0; r < n; r++ {
		if bufs1[r][50] != byte(50)*3+1 {
			t.Fatalf("first run: rank %d wrong", r)
		}
	}

	// Rebind every rank's schedule to the second buffer set and re-execute.
	for r := 0; r < n; r++ {
		scheds[r].Rebind(mkArgs(bufs1, r).BufArgs(), mkArgs(bufs2, r).BufArgs())
	}
	runAll(t, n, func(p *peer) { runSched(p, scheds[p.Rank()], 31) })
	for r := 0; r < n; r++ {
		for i := range bufs2[r] {
			if bufs2[r][i] != byte(i)*3+2 {
				t.Fatalf("rebound run: rank %d byte %d = %d", r, i, bufs2[r][i])
			}
			if bufs1[r][i] != byte(i)*3+1 {
				t.Fatalf("rebound run clobbered original: rank %d byte %d", r, i)
			}
		}
	}
}

// TestRebindAllreduce covers f64 regions and operator rewriting.
func TestRebindAllreduce(t *testing.T) {
	const n, m = 4, 10
	mk := func() [][]float64 {
		vs := make([][]float64, n)
		for r := range vs {
			vs[r] = make([]float64, m)
			for i := range vs[r] {
				vs[r][i] = float64(r + i)
			}
		}
		return vs
	}
	v1, v2 := mk(), mk()
	scheds := make([]*Schedule, n)
	for r := 0; r < n; r++ {
		scheds[r] = BuildAllreduceRabenseifner(r, n, v1[r], OpSum)
	}
	runAll(t, n, func(p *peer) { runSched(p, scheds[p.Rank()], 32) })

	for r := 0; r < n; r++ {
		old := Args{Rank: r, Size: n, X: v1[r], Op: OpSum}.BufArgs()
		new := Args{Rank: r, Size: n, X: v2[r], Op: OpMax}.BufArgs()
		scheds[r].Rebind(old, new)
	}
	runAll(t, n, func(p *peer) { runSched(p, scheds[p.Rank()], 33) })
	for r := 0; r < n; r++ {
		for i := range v2[r] {
			if v2[r][i] != float64(n-1+i) { // max over ranks of (r+i)
				t.Fatalf("rank %d elem %d = %g, want %g", r, i, v2[r][i], float64(n-1+i))
			}
		}
	}
}
