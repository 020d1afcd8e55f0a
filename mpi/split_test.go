package mpi

import (
	"math"
	"testing"

	"repro/cluster"
	"repro/internal/topo"
)

// TestSplitBasic: color groups renumber 0..n-1 in (key, rank) order and
// collectives run within the subgroup only.
func TestSplitBasic(t *testing.T) {
	const np = 6
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
		me := c.Rank()
		sub := c.Split(me%2, me)
		if sub == nil {
			t.Errorf("rank %d: nil subcomm for non-negative color", me)
			return
		}
		if sub.Size() != np/2 {
			t.Errorf("rank %d: subcomm size %d, want %d", me, sub.Size(), np/2)
		}
		if want := me / 2; sub.Rank() != want {
			t.Errorf("rank %d: subcomm rank %d, want %d", me, sub.Rank(), want)
		}

		// Allreduce over the subgroup: evens sum 0+2+4, odds 1+3+5.
		x := []float64{float64(me)}
		sub.AllreduceF64(x, OpSum)
		want := 6.0 // 0+2+4
		if me%2 == 1 {
			want = 9.0 // 1+3+5
		}
		if x[0] != want {
			t.Errorf("rank %d: subcomm allreduce = %g, want %g", me, x[0], want)
		}

		// Point-to-point within the subgroup uses subcomm numbering.
		if sub.Rank() == 0 {
			sub.Send(1, 42, []byte{byte(me)})
		} else if sub.Rank() == 1 {
			buf := make([]byte, 1)
			st := sub.Recv(0, 42, buf)
			if st.Source != 0 {
				t.Errorf("rank %d: status source %d, want subcomm rank 0", me, st.Source)
			}
			if buf[0] != byte(me%2) { // subcomm rank 0 of my parity group
				t.Errorf("rank %d: got %d from subcomm rank 0", me, buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitKeyOrdering: keys reorder the subgroup; ties break by parent rank.
func TestSplitKeyOrdering(t *testing.T) {
	const np = 4
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
		me := c.Rank()
		sub := c.Split(0, -me) // reversed order
		if want := np - 1 - me; sub.Rank() != want {
			t.Errorf("rank %d: reversed subcomm rank %d, want %d", me, sub.Rank(), want)
		}
		// Bcast from subcomm root (= parent rank np-1) reaches everyone.
		data := make([]byte, 8)
		if sub.Rank() == 0 {
			for i := range data {
				data[i] = byte(i + 9)
			}
		}
		sub.Bcast(0, data)
		for i := range data {
			if data[i] != byte(i+9) {
				t.Errorf("rank %d: bcast byte %d = %d", me, i, data[i])
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitUndefined: a negative color opts out and returns nil while the
// rest proceed.
func TestSplitUndefined(t *testing.T) {
	const np = 5
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
		me := c.Rank()
		color := 0
		if me == 2 {
			color = -1
		}
		sub := c.Split(color, me)
		if me == 2 {
			if sub != nil {
				t.Errorf("rank 2: expected nil subcomm for color -1")
			}
			return
		}
		if sub == nil || sub.Size() != np-1 {
			t.Errorf("rank %d: bad subcomm after opt-out", me)
			return
		}
		sub.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitContextIsolation: same tag, same peer, two communicators — the
// receive posted on the parent must match the parent-context message even
// though the subcomm message was sent first. If Split reused the parent
// context, per-pair FIFO would deliver the subcomm payload to the parent
// receive.
func TestSplitContextIsolation(t *testing.T) {
	_, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
		sub := c.Split(0, c.Rank())
		const tag = 5
		if c.Rank() == 0 {
			sub.Send(1, tag, []byte("sub-ctx"))
			c.Send(1, tag, []byte("parent!"))
		} else {
			buf := make([]byte, 7)
			c.Recv(0, tag, buf)
			if string(buf) != "parent!" {
				t.Errorf("parent recv got %q, want \"parent!\" (context leak)", buf)
			}
			sub.Recv(0, tag, buf)
			if string(buf) != "sub-ctx" {
				t.Errorf("subcomm recv got %q, want \"sub-ctx\"", buf)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDupContextIsolation: the same property for Dup.
func TestDupContextIsolation(t *testing.T) {
	_, err := Run(xeonCfg(2, cluster.MPICH2NmadIB()), func(c *Comm) {
		d := c.Dup()
		const tag = 7
		if c.Rank() == 0 {
			d.Send(1, tag, []byte("dup-ctx"))
			c.Send(1, tag, []byte("origin!"))
		} else {
			buf := make([]byte, 7)
			c.Recv(0, tag, buf)
			if string(buf) != "origin!" {
				t.Errorf("parent recv got %q (context leak)", buf)
			}
			d.Recv(0, tag, buf)
			if string(buf) != "dup-ctx" {
				t.Errorf("dup recv got %q", buf)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitNodeLeaders: SplitNode groups co-located ranks; SplitLeaders
// returns a communicator only on the lowest rank of each node.
func TestSplitNodeLeaders(t *testing.T) {
	const np = 8
	cfg := xeonCfg(np, cluster.MPICH2NmadIB())
	cfg.Placement = topo.Block(np, cfg.Cluster.NumNodes) // 0-3 node0, 4-7 node1
	_, err := Run(cfg, func(c *Comm) {
		me := c.Rank()
		nodeComm := c.SplitNode()
		if nodeComm.Size() != 4 {
			t.Errorf("rank %d: node comm size %d, want 4", me, nodeComm.Size())
		}
		if want := me % 4; nodeComm.Rank() != want {
			t.Errorf("rank %d: node comm rank %d, want %d", me, nodeComm.Rank(), want)
		}
		leaders := c.SplitLeaders()
		if me == 0 || me == 4 {
			if leaders == nil || leaders.Size() != 2 {
				t.Errorf("rank %d: expected leader comm of size 2", me)
				return
			}
			// Leaders can run their own collective over the rails.
			x := []float64{float64(me)}
			leaders.AllreduceF64(x, OpSum)
			if x[0] != 4 {
				t.Errorf("rank %d: leader allreduce = %g, want 4", me, x[0])
			}
		} else if leaders != nil {
			t.Errorf("rank %d: non-leader got a leader comm", me)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitNodeRagged: SplitNode, SplitLeaders and the two-level collectives
// on an uneven node map over the XeonRacks cluster — 5 ranks on node 0, a
// singleton on node 1, 5 more on node 2, NP odd and not a power of two. The
// flat-map assumptions this pins against: per-node sizes derived from
// NP/nodes division, leader election by rank arithmetic instead of the node
// map, and two-level builders choking on a node that hosts exactly one rank.
func TestSplitNodeRagged(t *testing.T) {
	nodeOf := topo.Placement{0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 2}
	np := len(nodeOf)
	cfg := Config{
		Cluster:      cluster.XeonRacks(3),
		Stack:        cluster.MPICH2NmadIB(),
		NP:           np,
		Placement:    nodeOf,
		TwoLevelColl: true,
	}
	nodeSize := map[int]int{0: 5, 1: 1, 2: 5}
	_, err := Run(cfg, func(c *Comm) {
		me := c.Rank()

		node := c.SplitNode()
		if want := nodeSize[nodeOf[me]]; node.Size() != want {
			t.Errorf("rank %d: node comm size %d, want %d", me, node.Size(), want)
		}

		leaders := c.SplitLeaders()
		isLeader := me == 0 || me == 5 || me == 6
		if isLeader {
			if leaders == nil || leaders.Size() != 3 {
				t.Errorf("rank %d: leader comm missing or wrong size", me)
			}
		} else if leaders != nil {
			t.Errorf("rank %d: non-leader got a leader comm", me)
		}

		// Two-level collectives on the ragged map. Root 7 is a non-leader on
		// node 2, exercising the root-promotion rule on an uneven node.
		const root = 7
		data := make([]byte, 100)
		if me == root {
			for i := range data {
				data[i] = byte(i)
			}
		}
		c.Bcast(root, data)
		for i := range data {
			if data[i] != byte(i) {
				t.Errorf("rank %d: bcast byte %d = %d", me, i, data[i])
				break
			}
		}

		x := []float64{float64(me + 1)}
		c.AllreduceF64(x, OpSum)
		if want := float64(np*(np+1)) / 2; x[0] != want {
			t.Errorf("rank %d: allreduce = %g, want %g", me, x[0], want)
		}

		mine := []byte{byte(me), byte(me * 3)}
		out := make([][]byte, np)
		for r := range out {
			out[r] = make([]byte, 2)
		}
		c.Allgather(mine, out)
		for r := range out {
			if out[r][0] != byte(r) || out[r][1] != byte(r*3) {
				t.Errorf("rank %d: allgather block %d = %v", me, r, out[r])
			}
		}
		c.Barrier()

		// A derived communicator inherits a ragged, sparse slice of the node
		// map (odd ranks: nodes {0,0,1,2,2}); two-level still applies there.
		child := c.Split(me%2, me)
		y := []float64{1}
		child.AllreduceF64(y, OpSum)
		if want := float64(child.Size()); y[0] != want {
			t.Errorf("rank %d: child allreduce = %g, want %g", me, y[0], want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitNestedCollectives: subcomms of subcomms, with nonblocking
// collectives running on the innermost level.
func TestSplitNestedCollectives(t *testing.T) {
	const np = 8
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB().WithPIOMan(true)), func(c *Comm) {
		me := c.Rank()
		half := c.Split(me/4, me)                      // {0..3}, {4..7}
		pair := half.Split(half.Rank()/2, half.Rank()) // pairs
		if pair.Size() != 2 {
			t.Errorf("rank %d: pair size %d", me, pair.Size())
		}
		x := []float64{float64(me), 1}
		q := pair.IallreduceF64(x, OpSum)
		pair.Compute(10e-6)
		pair.Wait(q)
		base := me - me%2
		if want := float64(2*base + 1); x[0] != want || x[1] != 2 {
			t.Errorf("rank %d: pair Iallreduce = %v, want [%g 2]", me, x, want)
		}
		// Collectives on different levels interleave without cross-matching.
		c.Barrier()
		half.Barrier()
		pair.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitAlltoallvBytes: the variable-size alltoall primitive translates
// sub-communicator ranks to world ranks (regression: it used to pass local
// ranks straight to the transport and deadlock on split communicators).
func TestSplitAlltoallvBytes(t *testing.T) {
	const np = 4
	_, err := Run(xeonCfg(np, cluster.MPICH2NmadIB()), func(c *Comm) {
		me := c.Rank()
		sub := c.Split(me/2, me) // {0,1} and {2,3}
		n := sub.Size()
		send := make([][]byte, n)
		recv := make([][]byte, n)
		for r := 0; r < n; r++ {
			send[r] = []byte{byte(me), byte(r)}
			recv[r] = make([]byte, 2)
		}
		sub.AlltoallvBytes(send, recv)
		base := (me / 2) * 2
		for r := 0; r < n; r++ {
			if recv[r][0] != byte(base+r) || recv[r][1] != byte(sub.Rank()) {
				t.Errorf("rank %d: AlltoallvBytes from sub rank %d = %v", me, r, recv[r])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitTwoLevelOnSubcomm: a subcomm spanning both nodes still applies
// the two-level variants using its restricted placement view.
func TestSplitTwoLevelOnSubcomm(t *testing.T) {
	const np = 8
	cfg := xeonCfg(np, cluster.MPICH2NmadIB())
	cfg.Placement = topo.Block(np, cfg.Cluster.NumNodes)
	cfg.TwoLevelColl = true
	_, err := Run(cfg, func(c *Comm) {
		me := c.Rank()
		sub := c.Split(me%2, me) // evens and odds, each spanning both nodes
		x := make([]float64, 50)
		for i := range x {
			x[i] = float64(me + i)
		}
		sub.AllreduceF64(x, OpSum)
		for i := range x {
			want := 0.0
			for r := me % 2; r < np; r += 2 {
				want += float64(r + i)
			}
			if math.Abs(x[i]-want) > 1e-9 {
				t.Errorf("rank %d: subcomm two-level allreduce[%d] = %g, want %g", me, i, x[i], want)
				break
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
