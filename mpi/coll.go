package mpi

import (
	"fmt"
	"unsafe"

	"repro/internal/coll"
	"repro/internal/nbc"
	"repro/internal/vtime"
)

// Collectives compile to per-rank plans through the internal/coll
// registry: coll.KeyFor selects the algorithm from payload size, rank count
// and topology (binomial vs scatter-allgather broadcast, recursive doubling
// vs Rabenseifner allreduce, Bruck vs ring allgather, flat vs two-level),
// and the per-communicator schedule cache reuses the compiled plan when
// the same shape repeats — persistent-collective semantics: compile once,
// then every execution binds its own buffers to the shared plan. Blocking
// and nonblocking paths share the selection, the cache and the internal/nbc
// engine that executes the plan: a blocking collective drives the rounds
// itself (run), a nonblocking one leaves all but round 0 to the progress
// engine (nbcStart).

// twoLevelApplies reports whether the topology-aware hierarchical variants
// apply to a communicator with the given node map: requested by config,
// placement known, and at least one node hosting several of the
// communicator's ranks. Computed once per communicator (group and config
// are immutable) and cached in Comm.twoLvl.
func twoLevelApplies(cfg *Config, nodes []int) bool {
	if !cfg.TwoLevelColl || nodes == nil {
		return false
	}
	counts := make(map[int]int, len(nodes))
	for _, n := range nodes {
		counts[n]++
		if counts[n] > 1 {
			return true
		}
	}
	return false
}

// plan selects the algorithm and returns the compiled plan for a's shape
// from the per-communicator cache, together with a completed by the
// communicator's fields and the key's resolved shape (segment size, stripe
// width) — the arguments the execution binds.
func (c *Comm) plan(op coll.OpKind, a coll.Args) (*coll.Schedule, coll.Args) {
	a.Rank, a.Size = c.rank, len(c.group)
	if c.twoLvl {
		a.Nodes = c.nodes
	}
	key := coll.KeyFor(&c.cfg.Coll, op, a, a.Nodes != nil)
	a.Seg = key.Seg // resolved pipeline segment size (0 for non-segmented algos)
	c.stripeArgs(&a, key)
	return c.cachedPlan(key, a), a
}

// stripeArgs copies the key's resolved rail-stripe width back into the
// builder arguments (the mirror of the a.Seg copy-back) and hands the
// builders the rail capacities the stripe assigner weighs. Unstriped keys
// leave both fields zero, so unstriped builds see pre-striping Args exactly.
func (c *Comm) stripeArgs(a *coll.Args, key coll.Key) {
	if key.Stripe > 0 {
		a.Stripe = key.Stripe
		a.Rails = c.cfg.Coll.Rails
	}
}

// ---- blocking collectives ----------------------------------------------------

// run executes op over a to completion on the calling rank: the nbc
// engine's caller-driven mode, where this thread posts each round and
// waits for it before issuing the next.
func (c *Comm) run(op coll.OpKind, a coll.Args) {
	s, a := c.plan(op, a)
	c.engine().Run(c.proc, s, a)
}

// Barrier blocks until all ranks reach it.
func (c *Comm) Barrier() {
	defer c.span("Barrier")()
	c.run(coll.OpBarrier, coll.Args{})
}

// Bcast distributes data (in place) from root.
func (c *Comm) Bcast(root int, data []byte) {
	defer c.span("Bcast")()
	c.checkRoot("Bcast", root)
	c.run(coll.OpBcast, coll.Args{Root: root, Data: data})
}

// AllreduceF64 combines x elementwise across ranks, in place.
func (c *Comm) AllreduceF64(x []float64, op coll.Op) {
	defer c.span("AllreduceF64")()
	c.checkOp("AllreduceF64", op)
	c.run(coll.OpAllreduce, coll.Args{X: x, Op: op})
}

// ReduceF64 combines x into root's x (clobbered elsewhere).
func (c *Comm) ReduceF64(root int, x []float64, op coll.Op) {
	defer c.span("ReduceF64")()
	c.checkRoot("ReduceF64", root)
	c.checkOp("ReduceF64", op)
	c.run(coll.OpReduce, coll.Args{Root: root, X: x, Op: op})
}

// Allgather collects each rank's block into out[r].
func (c *Comm) Allgather(mine []byte, out [][]byte) {
	defer c.span("Allgather")()
	c.checkAllgather("Allgather", mine, out)
	c.run(coll.OpAllgather, coll.Args{Mine: mine, Out: out})
}

// Alltoall exchanges send[r] → rank r into recv[s].
func (c *Comm) Alltoall(send, recv [][]byte) {
	defer c.span("Alltoall")()
	c.checkAlltoall("Alltoall", send, recv)
	c.run(coll.OpAlltoall, coll.Args{Send: send, Recv: recv})
}

// Gather collects blocks at root (out[r] is filled on root only).
func (c *Comm) Gather(root int, mine []byte, out [][]byte) {
	defer c.span("Gather")()
	c.checkGather("Gather", root, mine, out)
	c.run(coll.OpGather, coll.Args{Root: root, Mine: mine, Out: out})
}

// Scatter distributes blocks[r] from root to rank r's buf (MPI_Scatter;
// blocks is only read on root).
func (c *Comm) Scatter(root int, blocks [][]byte, buf []byte) {
	defer c.span("Scatter")()
	c.checkScatter("Scatter", root, blocks, buf)
	c.run(coll.OpScatter, coll.Args{Root: root, Send: blocks, Mine: buf})
}

// ---- vector (per-rank count) collectives -------------------------------------
//
// The vector operations take MPI-style (buffer, counts, displacements)
// arguments: counts[r] is the bytes exchanged with rank r and displs[r] the
// block's offset in the flat buffer (nil displs packs blocks back-to-back).
// They compile through the same registry, schedule cache and nonblocking
// engine as the uniform collectives; only the counts — not the
// displacements — enter the cache key, so re-invoking with a different
// layout binds the cached plan to the new blocks.

// Alltoallv exchanges variable-size blocks: sbuf's block d goes to rank d
// and rbuf's block s receives from rank s.
func (c *Comm) Alltoallv(sbuf []byte, scounts, sdispls []int, rbuf []byte, rcounts, rdispls []int) {
	defer c.span("Alltoallv")()
	a := c.alltoallvArgs("Alltoallv", sbuf, scounts, sdispls, rbuf, rcounts, rdispls)
	c.run(coll.OpAlltoallv, a)
}

// Ialltoallv starts a nonblocking variable-size alltoall exchange.
func (c *Comm) Ialltoallv(sbuf []byte, scounts, sdispls []int, rbuf []byte, rcounts, rdispls []int) *Request {
	defer c.span("Ialltoallv")()
	a := c.alltoallvArgs("Ialltoallv", sbuf, scounts, sdispls, rbuf, rcounts, rdispls)
	return c.nbcStart(coll.OpAlltoallv, a)
}

// Allgatherv collects each rank's variable-size block: rank r's mine (of
// rcounts[r] bytes) lands in rbuf's block r on every rank. rcounts must be
// identical on all ranks, as in MPI.
func (c *Comm) Allgatherv(mine []byte, rbuf []byte, rcounts, rdispls []int) {
	defer c.span("Allgatherv")()
	a := c.allgathervArgs("Allgatherv", mine, rbuf, rcounts, rdispls)
	c.run(coll.OpAllgatherv, a)
}

// Iallgatherv starts a nonblocking variable-size allgather.
func (c *Comm) Iallgatherv(mine []byte, rbuf []byte, rcounts, rdispls []int) *Request {
	defer c.span("Iallgatherv")()
	a := c.allgathervArgs("Iallgatherv", mine, rbuf, rcounts, rdispls)
	return c.nbcStart(coll.OpAllgatherv, a)
}

// Gatherv collects variable-size blocks at root: rank r's mine (of
// rcounts[r] bytes) lands in rbuf's block r on root. rbuf, rcounts and
// rdispls are only read on root.
func (c *Comm) Gatherv(root int, mine []byte, rbuf []byte, rcounts, rdispls []int) {
	defer c.span("Gatherv")()
	a := c.gathervArgs("Gatherv", root, mine, rbuf, rcounts, rdispls)
	c.run(coll.OpGatherv, a)
}

// Igatherv starts a nonblocking variable-size gather at root.
func (c *Comm) Igatherv(root int, mine []byte, rbuf []byte, rcounts, rdispls []int) *Request {
	defer c.span("Igatherv")()
	a := c.gathervArgs("Igatherv", root, mine, rbuf, rcounts, rdispls)
	return c.nbcStart(coll.OpGatherv, a)
}

// Scatterv distributes variable-size blocks from root: sbuf's block r (of
// scounts[r] bytes) lands in rank r's buf. sbuf, scounts and sdispls are
// only read on root.
func (c *Comm) Scatterv(root int, sbuf []byte, scounts, sdispls []int, buf []byte) {
	defer c.span("Scatterv")()
	a := c.scattervArgs("Scatterv", root, sbuf, scounts, sdispls, buf)
	c.run(coll.OpScatterv, a)
}

// Iscatterv starts a nonblocking variable-size scatter from root.
func (c *Comm) Iscatterv(root int, sbuf []byte, scounts, sdispls []int, buf []byte) *Request {
	defer c.span("Iscatterv")()
	a := c.scattervArgs("Iscatterv", root, sbuf, scounts, sdispls, buf)
	return c.nbcStart(coll.OpScatterv, a)
}

// ReduceScatterF64 reduces x (length sum(counts)) elementwise across ranks
// and scatters the result: rank r receives segment r (counts[r] elements)
// in recv. counts must be identical on all ranks, as in MPI. x may be
// clobbered as scratch.
func (c *Comm) ReduceScatterF64(x, recv []float64, counts []int, op coll.Op) {
	defer c.span("ReduceScatterF64")()
	a := c.reduceScatterArgs("ReduceScatterF64", x, recv, counts, op)
	c.run(coll.OpReduceScatter, a)
}

// IreduceScatterF64 starts a nonblocking reduce-scatter of x.
func (c *Comm) IreduceScatterF64(x, recv []float64, counts []int, op coll.Op) *Request {
	defer c.span("IreduceScatterF64")()
	a := c.reduceScatterArgs("IreduceScatterF64", x, recv, counts, op)
	return c.nbcStart(coll.OpReduceScatter, a)
}

// ---- nonblocking collectives -------------------------------------------------
//
// The I* operations compile the same schedules as their blocking
// counterparts and run them on the same internal/nbc engine, but the
// calling thread only issues round 0 and returns immediately; subsequent
// rounds are driven by the progress engine, so with PIOMan enabled the
// collective advances on an idle core while the caller computes. The
// returned *Request composes with Wait, WaitAll, WaitAny and Test. Each
// operation binds the cached plan to its own buffers, so same-shape
// operations in flight together share one plan.

// nbcTransport adapts the CH3 layer to the nbc engine on the collective
// context.
// The engine registers exactly one completion callback per transfer and
// never touches the request afterwards, so the pooled (transient-request)
// entry points apply.
type nbcTransport struct{ c *Comm }

func (t nbcTransport) Isend(proc *vtime.Proc, dst int, tag int32, data []byte, rail int) nbc.Req {
	if rail != 0 {
		return t.c.p.IsendRailPooled(proc, t.c.world(dst), tag, t.c.nbcCtx, data, rail)
	}
	return t.c.p.IsendPooled(proc, t.c.world(dst), tag, t.c.nbcCtx, data)
}

func (t nbcTransport) Irecv(proc *vtime.Proc, src int, tag int32, buf []byte) nbc.Req {
	return t.c.p.IrecvPooled(proc, t.c.world(src), tag, t.c.nbcCtx, buf)
}

// nbcStart hands op's plan, bound to a, to the nonblocking engine.
func (c *Comm) nbcStart(op coll.OpKind, a coll.Args) *Request {
	s, a := c.plan(op, a)
	o := c.engine().Start(c.proc, s, a)
	// No yield separates Start returning and the Gen read, so the
	// generation observed is the started op's even if it already completed
	// (and was recycled) synchronously.
	return &Request{c: c, op: o, opGen: o.Gen()}
}

// engine returns the communicator's schedule engine, created lazily.
func (c *Comm) engine() *nbc.Engine {
	if c.nbcEng == nil {
		c.nbcEng = nbc.NewEngine(c.mgr, nbcTransport{c})
		c.nbcEng.Instrument(c.rec, c.met)
		// Shard deferred rounds by the communicator's collective context —
		// the stable key multi-worker progression distributes queues by
		// (sibling communicators land on different workers; a storm on one
		// communicator spreads via stealing).
		c.nbcEng.SetShard(int(c.nbcCtx))
		if c.cfg.NoPooling {
			c.nbcEng.DisablePooling()
		}
	}
	return c.nbcEng
}

// Ibarrier starts a nonblocking barrier.
func (c *Comm) Ibarrier() *Request {
	defer c.span("Ibarrier")()
	return c.nbcStart(coll.OpBarrier, coll.Args{})
}

// Ibcast starts a nonblocking broadcast of data (in place) from root. The
// buffer must not be touched until the request completes.
func (c *Comm) Ibcast(root int, data []byte) *Request {
	defer c.span("Ibcast")()
	c.checkRoot("Ibcast", root)
	return c.nbcStart(coll.OpBcast, coll.Args{Root: root, Data: data})
}

// IallreduceF64 starts a nonblocking elementwise allreduce of x in place.
func (c *Comm) IallreduceF64(x []float64, op coll.Op) *Request {
	defer c.span("IallreduceF64")()
	c.checkOp("IallreduceF64", op)
	return c.nbcStart(coll.OpAllreduce, coll.Args{X: x, Op: op})
}

// IreduceF64 starts a nonblocking reduction of x into root's x (clobbered
// elsewhere).
func (c *Comm) IreduceF64(root int, x []float64, op coll.Op) *Request {
	defer c.span("IreduceF64")()
	c.checkRoot("IreduceF64", root)
	c.checkOp("IreduceF64", op)
	return c.nbcStart(coll.OpReduce, coll.Args{Root: root, X: x, Op: op})
}

// Iallgather starts a nonblocking allgather of each rank's block into out[r].
func (c *Comm) Iallgather(mine []byte, out [][]byte) *Request {
	defer c.span("Iallgather")()
	c.checkAllgather("Iallgather", mine, out)
	return c.nbcStart(coll.OpAllgather, coll.Args{Mine: mine, Out: out})
}

// Ialltoall starts a nonblocking alltoall exchange send[r] → rank r.
func (c *Comm) Ialltoall(send, recv [][]byte) *Request {
	defer c.span("Ialltoall")()
	c.checkAlltoall("Ialltoall", send, recv)
	return c.nbcStart(coll.OpAlltoall, coll.Args{Send: send, Recv: recv})
}

// Igather starts a nonblocking gather of blocks at root.
func (c *Comm) Igather(root int, mine []byte, out [][]byte) *Request {
	defer c.span("Igather")()
	c.checkGather("Igather", root, mine, out)
	return c.nbcStart(coll.OpGather, coll.Args{Root: root, Mine: mine, Out: out})
}

// Iscatter starts a nonblocking scatter of blocks[r] from root to rank r's
// buf (blocks is only read on root).
func (c *Comm) Iscatter(root int, blocks [][]byte, buf []byte) *Request {
	defer c.span("Iscatter")()
	c.checkScatter("Iscatter", root, blocks, buf)
	return c.nbcStart(coll.OpScatter, coll.Args{Root: root, Send: blocks, Mine: buf})
}

// ---- argument validation -----------------------------------------------------
//
// Every collective validates its arguments at the entry point so mismatched
// counts fail with a per-operation error instead of a deep panic in a
// schedule builder or a silently truncated transfer. Cross-rank agreement
// (all ranks passing matching counts) remains the caller's contract, as in
// MPI.

func (c *Comm) checkRoot(op string, root int) {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("mpi: %s: root %d out of range [0,%d)", op, root, c.Size()))
	}
}

func (c *Comm) checkOp(op string, f coll.Op) {
	if f == nil {
		panic(fmt.Sprintf("mpi: %s: nil reduction operator", op))
	}
}

func (c *Comm) checkAllgather(op string, mine []byte, out [][]byte) {
	if len(out) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: out has %d blocks for communicator size %d",
			op, len(out), c.Size()))
	}
	if len(out[c.rank]) != len(mine) {
		panic(fmt.Sprintf("mpi: %s: out[%d] is %d bytes but this rank contributes %d",
			op, c.rank, len(out[c.rank]), len(mine)))
	}
}

func (c *Comm) checkAlltoall(op string, send, recv [][]byte) {
	if len(send) != c.Size() || len(recv) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: send has %d blocks, recv %d, communicator size %d",
			op, len(send), len(recv), c.Size()))
	}
	if len(recv[c.rank]) != len(send[c.rank]) {
		panic(fmt.Sprintf("mpi: %s: self block mismatch: send[%d]=%d bytes, recv[%d]=%d",
			op, c.rank, len(send[c.rank]), c.rank, len(recv[c.rank])))
	}
}

func (c *Comm) checkGather(op string, root int, mine []byte, out [][]byte) {
	c.checkRoot(op, root)
	if c.rank != root {
		return
	}
	if len(out) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: out has %d blocks for communicator size %d",
			op, len(out), c.Size()))
	}
	if len(out[root]) != len(mine) {
		panic(fmt.Sprintf("mpi: %s: out[%d] is %d bytes but the root contributes %d",
			op, root, len(out[root]), len(mine)))
	}
}

// checkVec validates one side's count/displacement vectors against the flat
// buffer they index: one count per rank, no negative counts, and every block
// inside the buffer. It reports whether any two nonzero blocks overlap —
// legal for sends (which only read); receive-side callers panic on overlap,
// since aliased receive blocks silently corrupt each other.
func (c *Comm) checkVec(op, side string, buf []byte, counts, displs []int) (overlap bool) {
	if len(counts) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: %d %s counts for communicator size %d",
			op, len(counts), side, c.Size()))
	}
	if displs != nil && len(displs) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: %d %s displacements for communicator size %d",
			op, len(displs), side, c.Size()))
	}
	off := 0
	for r, n := range counts {
		if n < 0 {
			panic(fmt.Sprintf("mpi: %s: negative %s count %d for rank %d", op, side, n, r))
		}
		if displs != nil {
			off = displs[r]
		}
		if off < 0 || off+n > len(buf) {
			panic(fmt.Sprintf("mpi: %s: %s block %d [%d:%d) exceeds buffer length %d",
				op, side, r, off, off+n, len(buf)))
		}
		off += n
	}
	if displs == nil {
		return false // packed layouts cannot overlap
	}
	return blocksAlias(coll.Blocks(buf, counts, displs))
}

// checkDisjoint panics when two caller buffers overlap in memory: the
// vector collectives require disjoint send/receive regions, as MPI does —
// a receive landing in memory a send still reads corrupts the exchange.
func checkDisjoint(op, aName, bName string, a, b []byte) {
	if len(a) == 0 || len(b) == 0 {
		return
	}
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	if pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a)) {
		panic(fmt.Sprintf("mpi: %s: %s overlaps %s", op, aName, bName))
	}
}

// checkDisjointF64 is checkDisjoint for float64 buffers.
func checkDisjointF64(op, aName, bName string, a, b []float64) {
	if len(a) == 0 || len(b) == 0 {
		return
	}
	const esz = unsafe.Sizeof(float64(0))
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	if pa < pb+uintptr(len(b))*esz && pb < pa+uintptr(len(a))*esz {
		panic(fmt.Sprintf("mpi: %s: %s overlaps %s", op, aName, bName))
	}
}

func (c *Comm) alltoallvArgs(op string, sbuf []byte, scounts, sdispls []int, rbuf []byte, rcounts, rdispls []int) coll.Args {
	c.checkVec(op, "send", sbuf, scounts, sdispls)
	if c.checkVec(op, "recv", rbuf, rcounts, rdispls) {
		panic(fmt.Sprintf("mpi: %s: overlapping recv blocks", op))
	}
	checkDisjoint(op, "recv buffer", "send buffer", rbuf, sbuf)
	if scounts[c.rank] != rcounts[c.rank] {
		panic(fmt.Sprintf("mpi: %s: self block mismatch: scounts[%d]=%d, rcounts[%d]=%d",
			op, c.rank, scounts[c.rank], c.rank, rcounts[c.rank]))
	}
	return coll.Args{
		Send: coll.Blocks(sbuf, scounts, sdispls),
		Recv: coll.Blocks(rbuf, rcounts, rdispls),
	}
}

func (c *Comm) allgathervArgs(op string, mine, rbuf []byte, rcounts, rdispls []int) coll.Args {
	if c.checkVec(op, "recv", rbuf, rcounts, rdispls) {
		panic(fmt.Sprintf("mpi: %s: overlapping recv blocks", op))
	}
	checkDisjoint(op, "recv buffer", "mine", rbuf, mine)
	if rcounts[c.rank] != len(mine) {
		panic(fmt.Sprintf("mpi: %s: rcounts[%d]=%d but this rank contributes %d bytes",
			op, c.rank, rcounts[c.rank], len(mine)))
	}
	return coll.Args{Mine: mine, Out: coll.Blocks(rbuf, rcounts, rdispls), RCounts: rcounts}
}

func (c *Comm) gathervArgs(op string, root int, mine, rbuf []byte, rcounts, rdispls []int) coll.Args {
	c.checkRoot(op, root)
	a := coll.Args{Root: root, Mine: mine}
	if c.rank != root {
		return a
	}
	if c.checkVec(op, "recv", rbuf, rcounts, rdispls) {
		panic(fmt.Sprintf("mpi: %s: overlapping recv blocks", op))
	}
	checkDisjoint(op, "recv buffer", "mine", rbuf, mine)
	if rcounts[root] != len(mine) {
		panic(fmt.Sprintf("mpi: %s: rcounts[%d]=%d but the root contributes %d bytes",
			op, root, rcounts[root], len(mine)))
	}
	a.Out = coll.Blocks(rbuf, rcounts, rdispls)
	return a
}

func (c *Comm) scattervArgs(op string, root int, sbuf []byte, scounts, sdispls []int, buf []byte) coll.Args {
	c.checkRoot(op, root)
	a := coll.Args{Root: root, Mine: buf}
	if c.rank != root {
		return a
	}
	c.checkVec(op, "send", sbuf, scounts, sdispls)
	checkDisjoint(op, "send buffer", "buf", sbuf, buf)
	if scounts[root] != len(buf) {
		panic(fmt.Sprintf("mpi: %s: scounts[%d]=%d but buf is %d bytes",
			op, root, scounts[root], len(buf)))
	}
	a.Send = coll.Blocks(sbuf, scounts, sdispls)
	return a
}

func (c *Comm) reduceScatterArgs(op string, x, recv []float64, counts []int, f coll.Op) coll.Args {
	c.checkOp(op, f)
	checkDisjointF64(op, "recv", "x", recv, x)
	if len(counts) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: %d counts for communicator size %d",
			op, len(counts), c.Size()))
	}
	total := 0
	for r, n := range counts {
		if n < 0 {
			panic(fmt.Sprintf("mpi: %s: negative count %d for rank %d", op, n, r))
		}
		total += n
	}
	if total != len(x) {
		panic(fmt.Sprintf("mpi: %s: counts sum to %d elements but x has %d",
			op, total, len(x)))
	}
	if len(recv) != counts[c.rank] {
		panic(fmt.Sprintf("mpi: %s: recv has %d elements but counts[%d]=%d",
			op, len(recv), c.rank, counts[c.rank]))
	}
	return coll.Args{X: x, RecvF64: recv, RCounts: counts, Op: f}
}

func (c *Comm) checkScatter(op string, root int, blocks [][]byte, buf []byte) {
	c.checkRoot(op, root)
	if c.rank != root {
		return
	}
	if len(blocks) != c.Size() {
		panic(fmt.Sprintf("mpi: %s: blocks has %d entries for communicator size %d",
			op, len(blocks), c.Size()))
	}
	if len(blocks[root]) != len(buf) {
		panic(fmt.Sprintf("mpi: %s: blocks[%d] is %d bytes but buf is %d",
			op, root, len(blocks[root]), len(buf)))
	}
}

// Reduction operators, re-exported.
var (
	OpSum = coll.OpSum
	OpMax = coll.OpMax
	OpMin = coll.OpMin
)

// F64Bytes / BytesF64 re-export the wire codec for float64 vectors.
func F64Bytes(xs []float64) []byte     { return coll.F64Bytes(xs) }
func BytesF64(dst []float64, b []byte) { coll.BytesF64(dst, b) }
