package mpi

import (
	"encoding/binary"
	"sort"
)

// Split partitions the communicator (MPI_Comm_split): ranks passing the
// same color form a new sub-communicator, ordered by (key, parent rank).
// A negative color (MPI_UNDEFINED) opts out and returns nil. Split is
// collective over c — every rank must call it, and in the same order
// relative to other context-allocating operations (Split/Dup), which is
// what keeps the derived context ids agreeing across ranks without
// negotiation.
//
// Isolation: each Split call advances the shared context counter, so the
// sub-communicators' point-to-point and collective contexts never match
// the parent's or those of communicators from other Split/Dup calls. Sub-communicators from the
// same call share context ids but have disjoint members, so their traffic
// cannot cross either.
func (c *Comm) Split(color, key int) *Comm {
	// Exchange (color, key) pairs over the parent's collective machinery.
	mine := make([]byte, 16)
	binary.LittleEndian.PutUint64(mine, uint64(int64(color)))
	binary.LittleEndian.PutUint64(mine[8:], uint64(int64(key)))
	out := make([][]byte, c.Size())
	for r := range out {
		out[r] = make([]byte, 16)
	}
	c.Allgather(mine, out)

	base := *c.nextCtx
	*c.nextCtx += ctxStride
	if color < 0 {
		return nil
	}

	type member struct {
		key int64
		r   int // parent-local rank
	}
	var members []member
	for r := range out {
		col := int64(binary.LittleEndian.Uint64(out[r]))
		k := int64(binary.LittleEndian.Uint64(out[r][8:]))
		if col == int64(color) {
			members = append(members, member{key: k, r: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].r < members[j].r
	})

	group := make([]int, len(members))
	inv := make([]int, len(c.inv))
	for i := range inv {
		inv[i] = -1
	}
	var nodes []int
	if c.nodes != nil {
		nodes = make([]int, len(members))
	}
	rank := -1
	for i, m := range members {
		group[i] = c.group[m.r]
		inv[group[i]] = i
		if nodes != nil {
			nodes[i] = c.nodes[m.r]
		}
		if m.r == c.rank {
			rank = i
		}
	}

	return &Comm{cfg: c.cfg, proc: c.proc, p: c.p, node: c.node, mgr: c.mgr,
		group: group, inv: inv, rank: rank, nodes: nodes,
		twoLvl: twoLevelApplies(&c.cfg, nodes),
		ctx:    base, nbcCtx: base + 2, nextCtx: c.nextCtx,
		rec: c.rec, met: c.met}
}

// SplitNode returns the sub-communicator of the ranks sharing this rank's
// node, ordered by parent rank — the intra-node communicator of the
// two-level collective decomposition. Falls back to a full Dup-equivalent
// group when no placement is known.
func (c *Comm) SplitNode() *Comm {
	color := 0
	if c.nodes != nil {
		color = c.nodes[c.rank]
	}
	return c.Split(color, c.rank)
}

// SplitLeaders returns the sub-communicator of one leader rank per node
// (the lowest parent rank on each node) — the inter-node rail communicator
// of the two-level decomposition — and nil on every other rank. Every rank
// must call it (it is collective over c).
func (c *Comm) SplitLeaders() *Comm {
	color := -1
	if c.nodes == nil {
		if c.rank == 0 {
			color = 0
		}
		return c.Split(color, c.rank)
	}
	lowest := make(map[int]int)
	for r, n := range c.nodes {
		if lr, ok := lowest[n]; !ok || r < lr {
			lowest[n] = r
		}
	}
	if lowest[c.nodes[c.rank]] == c.rank {
		color = 0
	}
	return c.Split(color, c.rank)
}
