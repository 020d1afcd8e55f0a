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
					execSched(t, n, func(rank int) bound {
						return plan(OpBcast, AlgoScatterAllgather, Args{Rank: rank, Size: n, Root: root, Data: bufs[rank]})
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
				execSched(t, n, func(rank int) bound {
					return plan(OpAllreduce, AlgoRabenseifner, Args{Rank: rank, Size: n, X: vecs[rank], Op: OpSum})
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
			execSched(t, n, func(rank int) bound {
				return plan(OpAllgather, AlgoBruck, Args{Rank: rank, Size: n, Mine: blockOf(rank), Out: outs[rank]})
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
				execSched(t, n, func(rank int) bound {
					var bs [][]byte
					if rank == root {
						bs = blocks
					}
					return plan(OpScatter, AlgoLinear, Args{Rank: rank, Size: n, Root: root, Send: bs, Mine: got[rank]})
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
				execSched(t, n, func(rank int) bound {
					return plan(OpAllgather, AlgoTwoLevel, Args{Rank: rank, Size: len(nodes), Nodes: nodes, Mine: blockOf(rank), Out: outs[rank]})
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
				execSched(t, n, func(rank int) bound {
					send := make([][]byte, n)
					for d := 0; d < n; d++ {
						send[d] = blk(rank, d)
					}
					return plan(OpAlltoall, AlgoTwoLevel, Args{Rank: rank, Size: len(nodes), Nodes: nodes, Send: send, Recv: recvs[rank]})
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
			checkRoundShape(t, plan(OpBcast, AlgoScatterAllgather, Args{Rank: rank, Size: n, Root: 0, Data: data}).s,
				fmt.Sprintf("bcast-sag/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpAllreduce, AlgoRabenseifner, Args{Rank: rank, Size: n, X: x, Op: OpSum}).s,
				fmt.Sprintf("rabenseifner/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpAllgather, AlgoBruck, Args{Rank: rank, Size: n, Mine: blocks[0], Out: blocks}).s,
				fmt.Sprintf("bruck/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpScatter, AlgoLinear, Args{Rank: rank, Size: n, Root: 0, Send: blocks, Mine: blocks[rank]}).s,
				fmt.Sprintf("scatter/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpAllgather, AlgoTwoLevel, Args{Rank: rank, Size: len(nodes), Nodes: nodes, Mine: blocks[0], Out: blocks}).s,
				fmt.Sprintf("allgather2l/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpAlltoall, AlgoTwoLevel, Args{Rank: rank, Size: len(nodes), Nodes: nodes, Send: blocks, Recv: blocks}).s,
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

// TestBindingFreshBuffers: a plan compiled for one set of buffers executes
// correctly bound to another, without touching the originals — the
// persistent-schedule property the mpi cache relies on.
func TestBindingFreshBuffers(t *testing.T) {
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

	plans := make([]*Schedule, n)
	for r := 0; r < n; r++ {
		plans[r] = Build(Key{Op: OpBcast, Algo: AlgoScatterAllgather, Root: 0},
			mkArgs(bufs1, r))
	}
	runAll(t, n, func(p *peer) { runSched(p, bound{plans[p.rank], mkArgs(bufs1, p.rank)}, 30) })
	for r := 0; r < n; r++ {
		if bufs1[r][50] != byte(50)*3+1 {
			t.Fatalf("first run: rank %d wrong", r)
		}
	}

	// Execute every rank's plan again, bound to the second buffer set.
	runAll(t, n, func(p *peer) { runSched(p, bound{plans[p.rank], mkArgs(bufs2, p.rank)}, 31) })
	for r := 0; r < n; r++ {
		for i := range bufs2[r] {
			if bufs2[r][i] != byte(i)*3+2 {
				t.Fatalf("second binding: rank %d byte %d = %d", r, i, bufs2[r][i])
			}
			if bufs1[r][i] != byte(i)*3+1 {
				t.Fatalf("second binding clobbered the first's buffers: rank %d byte %d", r, i)
			}
		}
	}
}

// TestBindingAllreduceOps covers float64 regions and the operator: one plan
// executes OpSum through one binding, then OpMax through another.
func TestBindingAllreduceOps(t *testing.T) {
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
	plans := make([]*Schedule, n)
	for r := 0; r < n; r++ {
		plans[r] = plan(OpAllreduce, AlgoRabenseifner, Args{Rank: r, Size: n, X: v1[r]}).s
	}
	runAll(t, n, func(p *peer) {
		runSched(p, bound{plans[p.rank], Args{X: v1[p.rank], Op: OpSum}}, 32)
	})
	runAll(t, n, func(p *peer) {
		runSched(p, bound{plans[p.rank], Args{X: v2[p.rank], Op: OpMax}}, 33)
	})
	for r := 0; r < n; r++ {
		for i := 0; i < m; i++ {
			if want := float64(n*(n-1)/2 + n*i); v1[r][i] != want { // sum over ranks of (r+i)
				t.Fatalf("sum: rank %d elem %d = %g, want %g", r, i, v1[r][i], want)
			}
			if want := float64(n - 1 + i); v2[r][i] != want { // max over ranks of (r+i)
				t.Fatalf("max: rank %d elem %d = %g, want %g", r, i, v2[r][i], want)
			}
		}
	}
}

// TestBindingArenas: concurrent bindings of one plan get distinct scratch
// arenas, released arenas are reused, and binding after warm-up allocates
// nothing — two executions in flight at once share the plan for free.
func TestBindingArenas(t *testing.T) {
	a := Args{Rank: 0, Size: 4, X: make([]float64, 16), Op: OpSum}
	s := Build(Key{Op: OpAllreduce, Algo: AlgoRecDoubling}, a)
	if s.scratch == 0 {
		t.Fatal("recursive doubling reserved no scratch")
	}
	var b1, b2 Binding
	b1.Bind(s, a)
	b2.Bind(s, a)
	if &b1.scratch[0] == &b2.scratch[0] {
		t.Fatal("two bindings in flight share one arena")
	}
	b2.Release(s)
	b1.Release(s)
	if b1.x != nil || b1.scratch != nil {
		t.Error("a released binding still references caller memory or its arena")
	}
	allocs := testing.AllocsPerRun(100, func() {
		b1.Bind(s, a)
		b2.Bind(s, a)
		b2.Release(s)
		b1.Release(s)
	})
	if allocs != 0 {
		t.Errorf("binding two executions of a warm plan allocates %.2f objects, want 0", allocs)
	}
}
