package coll

import (
	"fmt"
	"math"
	"testing"
)

// execSched runs rank-specific plans over the in-memory fabric.
func execSched(t *testing.T, n int, build func(rank int) bound, tag int32) {
	t.Helper()
	runAll(t, n, func(p *peer) {
		runSched(p, build(p.Rank()), tag)
	})
}

// checkRoundShape asserts that a round's Comm list holds only transfers:
// the engine posts every Comm prim as a send or receive, so a local prim
// there would be silently sent. Rounds may mix any number of sends and
// receives — the engine has all of them in flight at once.
func checkRoundShape(t *testing.T, s *Schedule, label string) {
	t.Helper()
	for ri, rd := range s.Rounds {
		for _, pr := range rd.Comm {
			if pr.Kind != PrimSend && pr.Kind != PrimRecv {
				t.Fatalf("%s round %d: local prim in Comm", label, ri)
			}
		}
	}
}

func TestScheduleRoundShapes(t *testing.T) {
	x := make([]float64, 4)
	data := make([]byte, 64)
	blocks := func(n int) [][]byte {
		b := make([][]byte, n)
		for i := range b {
			b[i] = make([]byte, 8)
		}
		return b
	}
	for _, n := range testNPs {
		nodes := make([]int, n)
		for r := range nodes {
			nodes[r] = r % 2 // two nodes
		}
		for rank := 0; rank < n; rank++ {
			checkRoundShape(t, plan(OpBarrier, AlgoDissemination, Args{Rank: rank, Size: n}).s, fmt.Sprintf("barrier/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpBcast, AlgoBinomial, Args{Rank: rank, Size: n, Root: 0, Data: data}).s, fmt.Sprintf("bcast/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpReduce, AlgoBinomial, Args{Rank: rank, Size: n, Root: 0, X: x, Op: OpSum}).s, fmt.Sprintf("reduce/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpAllreduce, AlgoRecDoubling, Args{Rank: rank, Size: n, X: x, Op: OpSum}).s, fmt.Sprintf("allreduce/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpAllgather, AlgoRing, Args{Rank: rank, Size: n, Mine: data[:8], Out: blocks(n)}).s, fmt.Sprintf("allgather/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpAlltoall, AlgoPairwise, Args{Rank: rank, Size: n, Send: blocks(n), Recv: blocks(n)}).s, fmt.Sprintf("alltoall/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpGather, AlgoLinear, Args{Rank: rank, Size: n, Root: 0, Mine: data[:8], Out: blocks(n)}).s, fmt.Sprintf("gather/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpBarrier, AlgoTwoLevel, Args{Rank: rank, Size: len(nodes), Nodes: nodes}).s, fmt.Sprintf("barrier2l/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpBcast, AlgoTwoLevel, Args{Rank: rank, Size: len(nodes), Nodes: nodes, Root: 0, Data: data}).s, fmt.Sprintf("bcast2l/np%d/r%d", n, rank))
			checkRoundShape(t, plan(OpAllreduce, AlgoTwoLevel, Args{Rank: rank, Size: len(nodes), Nodes: nodes, X: x, Op: OpSum}).s, fmt.Sprintf("allreduce2l/np%d/r%d", n, rank))
		}
	}
}

// placements to exercise the two-level builders: ranks over 2 and 3 nodes,
// balanced and skewed.
func testPlacements(n int) [][]int {
	var ps [][]int
	rr2 := make([]int, n)
	blk2 := make([]int, n)
	skew := make([]int, n)
	for r := 0; r < n; r++ {
		rr2[r] = r % 2
		blk2[r] = r * 2 / n
		if r == 0 {
			skew[r] = 0
		} else {
			skew[r] = 1 + r%2
		}
	}
	ps = append(ps, rr2, blk2)
	if n >= 3 {
		ps = append(ps, skew)
	}
	return ps
}

func TestTwoLevelBarrierFabric(t *testing.T) {
	for _, n := range testNPs {
		if n < 2 {
			continue
		}
		for pi, nodes := range testPlacements(n) {
			nodes := nodes
			t.Run(fmt.Sprintf("np%d/p%d", n, pi), func(t *testing.T) {
				execSched(t, n, func(rank int) bound {
					return plan(OpBarrier, AlgoTwoLevel, Args{Rank: rank, Size: len(nodes), Nodes: nodes})
				}, 10)
			})
		}
	}
}

func TestTwoLevelBcastFabric(t *testing.T) {
	for _, n := range testNPs {
		if n < 2 {
			continue
		}
		for pi, nodes := range testPlacements(n) {
			for root := 0; root < n; root += 3 {
				nodes, root := nodes, root
				t.Run(fmt.Sprintf("np%d/p%d/root%d", n, pi, root), func(t *testing.T) {
					bufs := make([][]byte, n)
					for r := range bufs {
						bufs[r] = make([]byte, 24)
						if r == root {
							for i := range bufs[r] {
								bufs[r][i] = byte(i ^ root)
							}
						}
					}
					execSched(t, n, func(rank int) bound {
						return plan(OpBcast, AlgoTwoLevel, Args{Rank: rank, Size: len(nodes), Nodes: nodes, Root: root, Data: bufs[rank]})
					}, 11)
					for r := range bufs {
						for i := range bufs[r] {
							if bufs[r][i] != byte(i^root) {
								t.Fatalf("rank %d byte %d = %d", r, i, bufs[r][i])
							}
						}
					}
				})
			}
		}
	}
}

func TestTwoLevelAllreduceFabric(t *testing.T) {
	for _, n := range testNPs {
		if n < 2 {
			continue
		}
		for pi, nodes := range testPlacements(n) {
			nodes := nodes
			t.Run(fmt.Sprintf("np%d/p%d", n, pi), func(t *testing.T) {
				const m = 9
				vecs := make([][]float64, n)
				for r := range vecs {
					vecs[r] = make([]float64, m)
					for i := range vecs[r] {
						vecs[r][i] = float64(r*10 + i)
					}
				}
				execSched(t, n, func(rank int) bound {
					return plan(OpAllreduce, AlgoTwoLevel, Args{Rank: rank, Size: len(nodes), Nodes: nodes, X: vecs[rank], Op: OpSum})
				}, 12)
				for i := 0; i < m; i++ {
					want := 0.0
					for r := 0; r < n; r++ {
						want += float64(r*10 + i)
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

// TestFlatBuildersMatchLegacySequence pins the classic round structure: a
// dissemination barrier exchanges with one pair of peers per round, and a
// non-power-of-two allreduce keeps its pre/main/post phases.
func TestFlatBuildersMatchLegacySequence(t *testing.T) {
	s := plan(OpBarrier, AlgoDissemination, Args{Rank: 0, Size: 8}).s
	if len(s.Rounds) != 3 {
		t.Fatalf("np8 barrier rounds = %d, want 3", len(s.Rounds))
	}
	for ri, rd := range s.Rounds {
		if len(rd.Comm) != 2 {
			t.Fatalf("barrier round %d has %d prims", ri, len(rd.Comm))
		}
	}
	x := make([]float64, 2)
	s = plan(OpAllreduce, AlgoRecDoubling, Args{Rank: 3, Size: 6, X: x, Op: OpSum}).s // non-power-of-two: pre/main/post
	if len(s.Rounds) < 3 {
		t.Fatalf("np6 allreduce rounds = %d, want >= 3", len(s.Rounds))
	}
}
