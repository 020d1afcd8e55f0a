package coll

import (
	"fmt"
	"sort"
)

// This file expresses the collective algorithm set as *schedules*: per-rank
// programs of rounds, each round holding point-to-point transfers (send/recv
// prims) followed by local data movement (copy/reduce/decode prims). One
// executor runs them: the engine in internal/nbc posts all of a round's
// transfers as nonblocking requests and, once they complete, runs the local
// prims and issues the next round. Who issues it is the only difference
// between the two collective flavours — the calling thread for a blocking
// collective, the progress engine (PIOMan) for a nonblocking one, which is
// what lets it overlap with computation (libNBC-style, progressed per §3.3).
// Since every transfer of a round is in flight at once, a round may mix any
// number of sends and receives.
//
// Rounds sequence only the *local* rank: matching between ranks is by
// (source, tag) as usual, so peers may run ahead by a round; their traffic
// waits in the unexpected queues until the local schedule catches up.
//
// A compiled schedule is a *plan*: immutable once built, and bound to no
// memory. Its prims name regions (Ref) of an execution's Binding — the
// caller's argument buffers in Args' canonical order plus a scratch arena
// laid out at build time — so one plan serves any number of executions of
// its shape at once, each through its own binding.

// slot names one region of a binding, in Args' canonical order: the
// argument buffers, then the plan's scratch arena.
type slot uint8

const (
	slotData slot = iota
	slotMine
	slotOut
	slotSend
	slotRecv
	slotX
	slotRecvF64
	slotScratch
)

// Ref names a region of a binding: n elements at off in slot's buffer (its
// block'th block for the Out/Send/Recv lists). Elements are bytes, except
// in the X and RecvF64 slots, which hold float64s. The zero Ref is empty.
type Ref struct {
	slot   slot
	block  int32
	off, n int32
}

// Len is the region's length in elements.
func (r Ref) Len() int { return int(r.n) }

// Sub returns the sub-region [lo, hi) of r, like slicing.
func (r Ref) Sub(lo, hi int) Ref {
	if lo < 0 || hi < lo || hi > int(r.n) {
		panic(fmt.Sprintf("coll: region [%d:%d) out of range [0:%d)", lo, hi, r.n))
	}
	r.off += int32(lo)
	r.n = int32(hi - lo)
	return r
}

// f64 reports whether r names float64 elements.
func (r Ref) f64() bool { return r.slot == slotX || r.slot == slotRecvF64 }

// whole names all of an n-element argument buffer.
func whole(s slot, n int) Ref { return Ref{slot: s, n: int32(n)} }

// blockRefs names every block of an argument block list.
func blockRefs(s slot, bs [][]byte) []Ref {
	refs := make([]Ref, len(bs))
	for i, b := range bs {
		refs[i] = Ref{slot: s, block: int32(i), n: int32(len(b))}
	}
	return refs
}

// PrimKind discriminates schedule primitives.
type PrimKind uint8

const (
	// PrimSend transfers Data (or the lazily encoded AccF64) to Peer.
	PrimSend PrimKind = iota
	// PrimRecv receives from Peer into Buf.
	PrimRecv
	// PrimCopy copies Src into Dst locally.
	PrimCopy
	// PrimReduce folds the float64 vector encoded in In into AccF64 with
	// the binding's operator.
	PrimReduce
	// PrimDecode overwrites AccF64 with the float64 vector encoded in In.
	PrimDecode
	// PrimCopyF64 copies SrcF64 into AccF64 locally (float64 elements, no
	// wire encoding) — the reduce-scatter builders land result segments with
	// it.
	PrimCopyF64
)

// Prim is one schedule primitive. Only the fields of its kind are set.
type Prim struct {
	Kind PrimKind
	// Peer is the destination (send) or source (recv) rank.
	Peer int
	// Data is a send payload.
	Data Ref
	// AccF64 is a float64 vector: for sends it is encoded at round start
	// (payloads that earlier rounds mutate must be lazy); for
	// reduce/decode/copyF64 it is the accumulator written in place.
	AccF64 Ref
	// SrcF64 is the copyF64 source vector.
	SrcF64 Ref
	// Buf is the receive buffer.
	Buf Ref
	// Src/Dst are the copy operands.
	Src, Dst Ref
	// In is the reduce/decode input (bytes holding a float64 vector).
	In Ref
	// Rail is the multirail placement hint of a send prim: 0 lets the
	// transport's strategy place the transfer (the default), k > 0 pins it
	// to rail k-1, and -w < 0 asks the transport to stripe the payload
	// across the first w rails (nmad forces the rendezvous path and
	// water-fills the bytes over those rails). The striped builders stamp
	// the negative form on large sends (see stripe.go); the engine forwards
	// the hint to the transport, whose shared-memory and single-rail paths
	// ignore it, so the hint never changes what data moves — only which
	// wires it moves on.
	Rail int
}

// Round is one schedule step: the transfers of Comm all complete before the
// Local prims run, and the next round starts only after both.
type Round struct {
	Comm  []Prim
	Local []Prim
}

// Schedule is one rank's compiled collective: the plan every execution of
// its shape shares.
type Schedule struct {
	Rounds []Round
	// Key records what the schedule was compiled as (operation, algorithm,
	// segment size …). Build stamps it; observability layers read it to name
	// round and operation events.
	Key Key

	// scratch is the arena size the builders reserved (see reserve); arenas
	// is the free list of arenas that finished executions returned. Bind
	// and Release update it unsynchronized: a plan belongs to one rank,
	// whose procs run one at a time.
	scratch int
	arenas  [][]byte
}

// round appends and returns a fresh round.
func (s *Schedule) round() *Round {
	s.Rounds = append(s.Rounds, Round{})
	return &s.Rounds[len(s.Rounds)-1]
}

// reserve lays out n bytes of scratch in the plan's arena: builders stage
// wire aggregates and incoming vectors there, always writing a region
// before reading it, so a reused arena needs no zeroing.
func (s *Schedule) reserve(n int) Ref {
	r := Ref{slot: slotScratch, off: int32(s.scratch), n: int32(n)}
	s.scratch += n
	return r
}

// Binding is one execution's memory: the caller's argument buffers the
// plan's refs resolve against, the reduction operator, and a scratch arena
// from the plan's free list.
type Binding struct {
	data, mine      []byte
	out, send, recv [][]byte
	x, recvF64      []float64
	op              Op
	scratch         []byte
}

// Bind points b at a's buffers (a must have the shape s was built for) and
// takes a scratch arena from s's free list, allocating one only when the
// list is empty.
func (b *Binding) Bind(s *Schedule, a Args) {
	*b = Binding{data: a.Data, mine: a.Mine, out: a.Out, send: a.Send, recv: a.Recv,
		x: a.X, recvF64: a.RecvF64, op: a.Op}
	if n := len(s.arenas); n > 0 {
		b.scratch = s.arenas[n-1]
		s.arenas[n-1] = nil
		s.arenas = s.arenas[:n-1]
	} else if s.scratch > 0 {
		b.scratch = make([]byte, s.scratch)
	}
}

// Release returns b's arena to s's free list and drops b's references to
// caller memory. Call it once the execution is over.
func (b *Binding) Release(s *Schedule) {
	if b.scratch != nil {
		s.arenas = append(s.arenas, b.scratch)
	}
	*b = Binding{}
}

// bytes resolves a byte region.
func (b *Binding) bytes(r Ref) []byte {
	var buf []byte
	switch r.slot {
	case slotData:
		buf = b.data
	case slotMine:
		buf = b.mine
	case slotOut:
		buf = b.out[r.block]
	case slotSend:
		buf = b.send[r.block]
	case slotRecv:
		buf = b.recv[r.block]
	case slotScratch:
		buf = b.scratch
	default:
		panic(fmt.Sprintf("coll: slot %d holds no bytes", r.slot))
	}
	return buf[r.off : r.off+r.n]
}

// f64s resolves a float64 region.
func (b *Binding) f64s(r Ref) []float64 {
	var v []float64
	switch r.slot {
	case slotX:
		v = b.x
	case slotRecvF64:
		v = b.recvF64
	default:
		panic(fmt.Sprintf("coll: slot %d holds no float64s", r.slot))
	}
	return v[r.off : r.off+r.n]
}

// SendPayload materializes a send prim's wire bytes.
func (b *Binding) SendPayload(pr *Prim) []byte {
	if pr.AccF64.f64() {
		return F64Bytes(b.f64s(pr.AccF64))
	}
	return b.bytes(pr.Data)
}

// RecvBuf resolves a receive prim's buffer.
func (b *Binding) RecvBuf(pr *Prim) []byte { return b.bytes(pr.Buf) }

// RunLocal executes a local prim.
func (b *Binding) RunLocal(pr *Prim) {
	switch pr.Kind {
	case PrimCopy:
		copy(b.bytes(pr.Dst), b.bytes(pr.Src))
	case PrimReduce:
		acc, in := b.f64s(pr.AccF64), b.bytes(pr.In)
		for i := range acc {
			acc[i] = b.op(acc[i], f64At(in, i))
		}
	case PrimDecode:
		BytesF64(b.f64s(pr.AccF64), b.bytes(pr.In))
	case PrimCopyF64:
		copy(b.f64s(pr.AccF64), b.f64s(pr.SrcF64))
	}
}

// ---- prim constructors -----------------------------------------------------

func sendP(peer int, data Ref) Prim { return Prim{Kind: PrimSend, Peer: peer, Data: data} }
func sendF64(peer int, x Ref) Prim  { return Prim{Kind: PrimSend, Peer: peer, AccF64: x} }
func recvP(peer int, buf Ref) Prim  { return Prim{Kind: PrimRecv, Peer: peer, Buf: buf} }
func copyP(dst, src Ref) Prim       { return Prim{Kind: PrimCopy, Dst: dst, Src: src} }
func decodeP(x, in Ref) Prim        { return Prim{Kind: PrimDecode, AccF64: x, In: in} }
func copyF64P(dst, src Ref) Prim    { return Prim{Kind: PrimCopyF64, AccF64: dst, SrcF64: src} }
func reduceP(x, in Ref) Prim        { return Prim{Kind: PrimReduce, AccF64: x, In: in} }

// ---- flat builders (the classic MPICH2 algorithm set) ----------------------

// buildBarrier compiles a dissemination barrier: ceil(log2(n)) rounds of
// zero-byte exchanges.
func buildBarrier(rank, size int) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	for k := 1; k < size; k <<= 1 {
		rd := s.round()
		rd.Comm = append(rd.Comm,
			sendP((rank+k)%size, Ref{}),
			recvP((rank-k+size)%size, Ref{}))
	}
	return s
}

// buildBcast compiles a binomial-tree broadcast of data (in place) from root.
func buildBcast(rank, size, root int, data Ref) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	binomialBcastBytes(s, identGroup(size), root, rank, data)
	return s
}

// buildReduce compiles a binomial-tree reduction of x into root's x over
// relative ranks. The operator must be commutative.
func buildReduce(rank, size, root int, x Ref) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	binomialReduce(s, identGroup(size), root, rank, x)
	return s
}

// buildAllreduce compiles recursive doubling with the standard pre/post
// phases for non-power-of-two sizes. The operator must be commutative.
func buildAllreduce(rank, size int, x Ref) *Schedule {
	s := &Schedule{}
	if size == 1 {
		return s
	}
	rdAllreduce(s, identGroup(size), rank, x)
	return s
}

// buildAllgather compiles the ring allgather: out[r] receives rank r's block.
func buildAllgather(rank, size int, mine Ref, out []Ref) *Schedule {
	s := &Schedule{}
	rd := s.round()
	rd.Local = append(rd.Local, copyP(out[rank], mine))
	if size == 1 {
		return s
	}
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	for step := 0; step < size-1; step++ {
		sendIdx := (rank - step + size) % size
		recvIdx := (rank - step - 1 + size) % size
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(right, out[sendIdx]), recvP(left, out[recvIdx]))
	}
	return s
}

// buildAlltoall compiles the pairwise-exchange alltoall (XOR pattern for
// power-of-two sizes, rotated shifts otherwise).
func buildAlltoall(rank, size int, send, recv []Ref) *Schedule {
	s := &Schedule{}
	rd := s.round()
	rd.Local = append(rd.Local, copyP(recv[rank], send[rank]))
	if size == 1 {
		return s
	}
	if size&(size-1) == 0 {
		for i := 1; i < size; i++ {
			partner := rank ^ i
			rd := s.round()
			rd.Comm = append(rd.Comm, sendP(partner, send[partner]), recvP(partner, recv[partner]))
		}
		return s
	}
	for i := 1; i < size; i++ {
		dst := (rank + i) % size
		src := (rank - i + size) % size
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(dst, send[dst]), recvP(src, recv[src]))
	}
	return s
}

// buildGather compiles the linear gather at root (out[r] filled on root only).
func buildGather(rank, size, root int, mine Ref, out []Ref) *Schedule {
	s := &Schedule{}
	if rank == root {
		rd := s.round()
		rd.Local = append(rd.Local, copyP(out[rank], mine))
		if size == 1 {
			return s
		}
		crd := s.round()
		for r := 0; r < size; r++ {
			if r != root {
				crd.Comm = append(crd.Comm, recvP(r, out[r]))
			}
		}
		return s
	}
	rd := s.round()
	rd.Comm = append(rd.Comm, sendP(root, mine))
	return s
}

// ---- group-relative building blocks ----------------------------------------

// Group is an ordered set of ranks a schedule fragment runs over. The
// log-depth builders only ever look up their own position plus O(log n)
// peers, so a group must not force an O(n) materialization: the whole
// communicator is the O(1) identGroup, and only genuinely irregular groups
// (per-node locals, leader sets) pay for a backing slice.
type Group interface {
	// Len is the number of member ranks.
	Len() int
	// At returns the member rank at position i.
	At(i int) int
	// Index returns the position of rank, or -1 when rank is not a member.
	Index(rank int) int
}

// identGroup is the group [0, 1, ..., n-1] with O(1) storage and lookups —
// what every flat (whole-communicator) builder runs over.
type identGroup int

func (g identGroup) Len() int     { return int(g) }
func (g identGroup) At(i int) int { return i }
func (g identGroup) Index(rank int) int {
	if rank < 0 || rank >= int(g) {
		return -1
	}
	return rank
}

// sliceGroup adapts an explicit rank list (leaders, one node's locals).
type sliceGroup []int

func (g sliceGroup) Len() int           { return len(g) }
func (g sliceGroup) At(i int) int       { return g[i] }
func (g sliceGroup) Index(rank int) int { return indexIn(g, rank) }

// indexIn returns the position of rank in group, or -1.
func indexIn(group []int, rank int) int {
	for i, r := range group {
		if r == rank {
			return i
		}
	}
	return -1
}

// binomialBcast appends rank me's rounds of a binomial broadcast over the
// ranks of group, rooted at group member root. mkSend builds the forwarding
// prim toward a peer; mkRecv builds the receive prim (plus optional local
// prims to run after it). Ranks outside group get no rounds. Work and
// schedule size are O(log |group|) plus the cost of two Index lookups.
func binomialBcast(s *Schedule, group Group, root, me int,
	mkSend func(peer int) Prim, mkRecv func(peer int) (Prim, []Prim)) {

	m := group.Len()
	idx := group.Index(me)
	rootIdx := group.Index(root)
	if idx < 0 || m <= 1 {
		return
	}
	vr := (idx - rootIdx + m) % m
	mask := 1
	for mask < m {
		if vr&mask != 0 {
			src := group.At((vr - mask + rootIdx + m) % m)
			rd := s.round()
			pr, locals := mkRecv(src)
			rd.Comm = append(rd.Comm, pr)
			rd.Local = append(rd.Local, locals...)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < m {
			dst := group.At((vr + mask + rootIdx) % m)
			rd := s.round()
			rd.Comm = append(rd.Comm, mkSend(dst))
		}
		mask >>= 1
	}
}

// binomialBcastBytes broadcasts a byte buffer (in place) over group from
// root: receivers land directly in data and forward the same buffer.
func binomialBcastBytes(s *Schedule, group Group, root, me int, data Ref) {
	binomialBcast(s, group, root, me, func(peer int) Prim {
		return sendP(peer, data)
	}, func(peer int) (Prim, []Prim) {
		return recvP(peer, data), nil
	})
}

// binomialBcastF64 broadcasts the float64 vector x over group from root:
// receivers land bytes in a scratch buffer, decode into x, and forward x
// lazily so intermediate tree nodes relay what they received.
func binomialBcastF64(s *Schedule, group Group, root, me int, x Ref) {
	m := group.Len()
	if m <= 1 || group.Index(me) < 0 {
		return
	}
	scratch := s.reserve(8 * x.Len())
	binomialBcast(s, group, root, me, func(peer int) Prim {
		return sendF64(peer, x)
	}, func(peer int) (Prim, []Prim) {
		return recvP(peer, scratch), []Prim{decodeP(x, scratch)}
	})
}

// binomialReduce appends rank me's rounds of a binomial-tree reduction of x
// into group-member root's x (clobbered elsewhere). Commutative op only.
func binomialReduce(s *Schedule, group Group, root, me int, x Ref) {
	m := group.Len()
	idx := group.Index(me)
	rootIdx := group.Index(root)
	if idx < 0 || m <= 1 {
		return
	}
	vr := (idx - rootIdx + m) % m
	rbuf := s.reserve(8 * x.Len())
	mask := 1
	for mask < m {
		if vr&mask == 0 {
			src := vr | mask
			if src < m {
				rd := s.round()
				rd.Comm = append(rd.Comm, recvP(group.At((src+rootIdx)%m), rbuf))
				rd.Local = append(rd.Local, reduceP(x, rbuf))
			}
		} else {
			dst := group.At(((vr &^ mask) + rootIdx) % m)
			rd := s.round()
			rd.Comm = append(rd.Comm, sendF64(dst, x))
			return
		}
		mask <<= 1
	}
}

// rdAllreduce appends rank me's rounds of a recursive-doubling allreduce of x
// over group, with the standard pre/post phases when the group size is not a
// power of two. Commutative op only.
func rdAllreduce(s *Schedule, group Group, me int, x Ref) {
	m := group.Len()
	idx := group.Index(me)
	if idx < 0 || m <= 1 {
		return
	}
	pof2 := 1
	for pof2*2 <= m {
		pof2 *= 2
	}
	rem := m - pof2
	rbuf := s.reserve(8 * x.Len())

	newrank := -1
	switch {
	case idx < 2*rem && idx%2 == 0:
		rd := s.round()
		rd.Comm = append(rd.Comm, sendF64(group.At(idx+1), x))
	case idx < 2*rem:
		rd := s.round()
		rd.Comm = append(rd.Comm, recvP(group.At(idx-1), rbuf))
		rd.Local = append(rd.Local, reduceP(x, rbuf))
		newrank = idx / 2
	default:
		newrank = idx - rem
	}

	if newrank != -1 {
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := newrank ^ mask
			var real int
			if partner < rem {
				real = partner*2 + 1
			} else {
				real = partner + rem
			}
			rd := s.round()
			rd.Comm = append(rd.Comm, sendF64(group.At(real), x), recvP(group.At(real), rbuf))
			rd.Local = append(rd.Local, reduceP(x, rbuf))
		}
	}

	if idx < 2*rem {
		rd := s.round()
		if idx%2 == 0 {
			rd.Comm = append(rd.Comm, recvP(group.At(idx+1), rbuf))
			rd.Local = append(rd.Local, decodeP(x, rbuf))
		} else {
			rd.Comm = append(rd.Comm, sendF64(group.At(idx-1), x))
		}
	}
}

// ---- topology-aware two-level builders --------------------------------------
//
// The two-level variants split a collective into an intra-node phase over the
// shared-memory channel and an inter-node phase among per-node leaders over
// the network rails, following the placement of ranks onto nodes. They shine
// when several ranks share a node: only one rank per node touches the NIC.

// leadersOf returns one leader rank per populated node (ascending node id)
// and the local rank group of rank's own node. When root >= 0 and shares a
// node with rank's view of the placement, root is promoted to leader of its
// node so rooted operations need no extra hop. Node ids only need to be
// comparable, not dense: a placement may encode machine position in the id,
// leaving large gaps, and a scan over the id range would turn a
// 4-node map into millions of iterations. Only populated ids are visited.
func leadersOf(nodes []int, root int) (leaders []int, byNode map[int][]int) {
	byNode = make(map[int][]int)
	ids := make([]int, 0, 16)
	for r, n := range nodes {
		if _, ok := byNode[n]; !ok {
			ids = append(ids, n)
		}
		byNode[n] = append(byNode[n], r)
	}
	sort.Ints(ids)
	leaders = make([]int, 0, len(ids))
	for _, n := range ids {
		leaders = append(leaders, leaderFor(nodes, byNode, root, byNode[n][0]))
	}
	return leaders, byNode
}

// leaderFor returns the leader of rank's node under the same promotion rule
// leadersOf applies — the single site defining leader election.
func leaderFor(nodes []int, byNode map[int][]int, root, rank int) int {
	if root >= 0 && nodes[root] == nodes[rank] {
		return root
	}
	return byNode[nodes[rank]][0]
}

// buildBarrierTwoLevel compiles a hierarchical barrier: locals check in with
// their node leader over shared memory, leaders run a dissemination barrier
// over the network, then leaders release their locals.
func buildBarrierTwoLevel(rank int, nodes []int) *Schedule {
	s := &Schedule{}
	size := len(nodes)
	if size == 1 {
		return s
	}
	leaders, byNode := leadersOf(nodes, -1)
	local := byNode[nodes[rank]]
	lead := leaderFor(nodes, byNode, -1, rank)

	if rank != lead {
		rd := s.round()
		rd.Comm = append(rd.Comm, sendP(lead, Ref{}))
	} else if len(local) > 1 {
		rd := s.round()
		for _, r := range local {
			if r != lead {
				rd.Comm = append(rd.Comm, recvP(r, Ref{}))
			}
		}
	}

	if rank == lead && len(leaders) > 1 {
		li := indexIn(leaders, lead)
		m := len(leaders)
		for k := 1; k < m; k <<= 1 {
			rd := s.round()
			rd.Comm = append(rd.Comm,
				sendP(leaders[(li+k)%m], Ref{}),
				recvP(leaders[(li-k+m)%m], Ref{}))
		}
	}

	if rank != lead {
		rd := s.round()
		rd.Comm = append(rd.Comm, recvP(lead, Ref{}))
	} else if len(local) > 1 {
		rd := s.round()
		for _, r := range local {
			if r != lead {
				rd.Comm = append(rd.Comm, sendP(r, Ref{}))
			}
		}
	}
	return s
}

// buildBcastTwoLevel compiles a hierarchical broadcast: root feeds the
// per-node leaders with a binomial tree over the network, each leader then
// broadcasts over shared memory inside its node. The inter-node (leader
// tree) sends are dealt across rails per st — parallel tree edges out of
// one leader ride different rails; the intra-node phase runs over shared
// memory and is never striped. The zero Striping compiles the unstriped
// schedule.
func buildBcastTwoLevel(rank int, nodes []int, root int, data Ref, st Striping) *Schedule {
	s := &Schedule{}
	if len(nodes) == 1 {
		return s
	}
	leaders, byNode := leadersOf(nodes, root)
	binomialBcastBytes(s, sliceGroup(leaders), root, rank, data)
	stampRails(s, 0, st)
	local := byNode[nodes[rank]]
	binomialBcastBytes(s, sliceGroup(local), leaderFor(nodes, byNode, root, rank), rank, data)
	return s
}

// buildAllreduceTwoLevel compiles a hierarchical allreduce: binomial reduce
// to the node leader over shared memory, recursive-doubling allreduce among
// leaders over the network, binomial broadcast of the result back over
// shared memory. The inter-node (leader allreduce) sends are dealt across
// rails per st; the intra-node phases run over shared memory and are never
// striped. Commutative op only.
func buildAllreduceTwoLevel(rank int, nodes []int, x Ref, st Striping) *Schedule {
	s := &Schedule{}
	if len(nodes) == 1 {
		return s
	}
	leaders, byNode := leadersOf(nodes, -1)
	local := byNode[nodes[rank]]
	lead := leaderFor(nodes, byNode, -1, rank)
	binomialReduce(s, sliceGroup(local), lead, rank, x)
	interLo := len(s.Rounds)
	rdAllreduce(s, sliceGroup(leaders), rank, x)
	stampRails(s, interLo, st)
	binomialBcastF64(s, sliceGroup(local), lead, rank, x)
	return s
}

// f64At decodes the i-th float64 of a wire-encoded vector.
func f64At(b []byte, i int) float64 {
	var v [1]float64
	BytesF64(v[:], b[8*i:])
	return v[0]
}
