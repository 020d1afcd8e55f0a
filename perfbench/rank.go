package main

import (
	"bytes"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/mpi"
)

// patSpan is the offset range of the seeded payload pattern: op i of rank r
// carries pat[off(i, r) : off(i, r)+n], so every payload differs from its
// neighbours and a misrouted or stale buffer fails the byte comparison.
const patSpan = 4096

// phase names where an operation ran.
type phase uint8

const (
	phWarmup phase = iota
	phTimed
	phProbe
)

// callKind indexes the host-side accounting of the benchmark's calls into
// mpi (traced runs only).
type callKind uint8

const (
	callStart    callKind = iota // nonblocking start: I* collective, Isend/Irecv
	callWait                     // Wait on a started op
	callBlocking                 // blocking collective
	callSplit                    // Comm.Split
	nCalls
)

var callNames = [nCalls]string{"start", "wait", "blocking", "split"}

// callStat accumulates one call kind: count, host ns and virtual ns inside.
type callStat struct {
	n            int64
	hostNs, virt float64
}

// rep is one repetition: a whole mpi.Run over the seeded op list. The
// engine runs exactly one simulated proc at a time, so the rank bodies share
// this state without locks.
type rep struct {
	sp      *spec
	ops     []op
	warm    []op // untimed warm-up pass
	probe   []op // two-pass overlap probe (window and blocking loops)
	pat     []byte
	bufs    [][]opBuf // [world rank][op index mod buffer sets]
	spans   *spanLog  // nil when untraced
	onStart func()    // traced-run hooks around the timed phase
	onEnd   func()

	t0, tBody, tWarm, tTimed0, tTimed1 mark
	gcCPU                              float64 // CPU seconds of the GC forced before the timed phase
	ms0, ms1                           runtime.MemStats
	liveBytes                          uint64 // heap objects + stacks after the timed phase
	started, ended                     int

	lat               []float64 // virtual latency of every timed (pass-1) op, µs
	payload           int64     // bytes of timed (pass-1) ops, summed over ranks
	vStart, vEnd      float64   // virtual window of the timed (pass-1) phase
	ovComm, ovPass2   float64   // two-pass sums: pass-1 and pass-2 virtual s
	timedOps          int64
	attempted, failed int64
	errs              []string
	calls             [nCalls]callStat
	runSpan           int64
}

// fail records a wrong result (the first few are kept for the report).
func (r *rep) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// opBuf holds one op's buffers on one rank. A buffer is written again only
// after a Barrier or the end of mpi.Run — by then every rank has completed
// every earlier op — so the window loop gives every op of the list its own
// buffers and the one-op-at-a-time loops reuse a single set. That
// discipline is legal MPI, and it keeps clear of a program defect: eager
// payloads are delivered by reference, so a send buffer written again right
// after its op completed can still change what peers receive (README.md,
// "Known defect").
type opBuf struct {
	f []float64
	b []byte
}

// slot is one in-flight operation and views of its buffers.
type slot struct {
	q, q2  *mpi.Request
	i      int
	o      op
	v0     float64
	opSpan int64
	h0     time.Time
	f      []float64
	b, s   []byte
	out    [][]byte
}

// rank is one simulated process's benchmark state.
type rank struct {
	r     *rep
	c     *mpi.Comm
	comms []*mpi.Comm // op.sub → communicator
	bufs  []opBuf     // by op index mod len, kept across repetitions
	slots []slot
	d1    []float64 // two-pass: pass-1 virtual duration per op
}

func (r *rep) patAt(i, rk, n int) []byte {
	off := (i*977 + rk*131) % patSpan
	return r.pat[off : off+n]
}

// main is every rank's body.
func (r *rep) main(c *mpi.Comm) {
	if r.tBody.zero() {
		r.tBody = now()
	}
	sp := r.sp
	k := &rank{r: r, c: c, comms: []*mpi.Comm{c}, bufs: r.bufs[c.Rank()]}
	if sp.splits > 0 {
		k.comms = k.comms[:0]
		for i := 0; i < sp.splits; i++ {
			color := (c.Rank() >> i) & 1
			h0, end := k.call(callSplit, -1)
			k.comms = append(k.comms, c.Split(color, c.Rank()))
			end(h0)
		}
	}
	k.alloc()
	if r.tWarm.zero() {
		r.tWarm = now()
	}
	warm := r.warm
	switch sp.loop {
	case loopWindow:
		k.window(warm, phWarmup)
	default:
		k.sequence(warm, phWarmup, sp.loop == loopBlocking)
	}

	c.Barrier()
	if r.started++; r.started == 1 {
		// Start every repetition's timed phase from a collected heap, so the
		// number of GC cycles inside it does not depend on where set-up
		// left the pacer. The forced cycle is excluded from setup_s.
		g0 := now()
		runtime.GC()
		r.gcCPU = now().sub(g0)
		if r.onStart != nil {
			r.onStart()
		}
		runtime.ReadMemStats(&r.ms0)
		r.tTimed0 = now()
		r.vStart = c.Wtime()
	}
	switch sp.loop {
	case loopWindow:
		k.window(r.ops, phTimed)
	case loopTwoPass:
		k.twoPass(r.ops, phTimed)
	case loopBlocking:
		k.sequence(r.ops, phTimed, true)
	}
	if sp.loop != loopTwoPass {
		r.vEnd = max(r.vEnd, c.Wtime())
	}
	if r.ended++; r.ended == sp.np {
		r.tTimed1 = now()
		runtime.ReadMemStats(&r.ms1)
		if r.onEnd != nil {
			r.onEnd()
		}
		// Live memory: what the simulation and its buffers retain, after a
		// collection. (Memory obtained from the OS would also count
		// uncollected garbage, which depends on GC timing.)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.liveBytes = ms.HeapAlloc + ms.StackInuse
	}
	if len(r.probe) > 0 {
		k.twoPass(r.probe, phProbe)
	}
}

// alloc makes the rank's in-flight slots.
func (k *rank) alloc() {
	n := 1
	if k.r.sp.loop == loopWindow {
		n = k.r.sp.window
	}
	k.slots = make([]slot, n)
	for i := range k.slots {
		k.slots[i].out = make([][]byte, k.r.sp.commSize())
	}
	k.d1 = make([]float64, len(k.r.ops))
}

// bytesFor returns op i's byte buffer of n bytes, zeroed.
func (k *rank) bytesFor(i, n int) []byte {
	ob := &k.bufs[i%len(k.bufs)]
	if len(ob.b) < n {
		ob.b = make([]byte, n)
	}
	clear(ob.b[:n])
	return ob.b[:n:n]
}

// call opens host accounting for one call into mpi and returns the closer.
func (k *rank) call(ck callKind, parent int64) (time.Time, func(time.Time)) {
	if k.r.spans == nil {
		return time.Time{}, func(time.Time) {}
	}
	v0 := k.c.Wtime()
	return time.Now(), func(h0 time.Time) {
		h1 := time.Now()
		st := &k.r.calls[ck]
		st.n++
		st.hostNs += float64(h1.Sub(h0))
		st.virt += (k.c.Wtime() - v0) * 1e9
		if parent < 0 {
			parent = k.r.runSpan
		}
		k.r.spans.add(k.r.spans.reserve(), parent, k.c.Rank(), callNames[ck], h0, h1)
	}
}

// begin starts op i (nonblocking unless blocking is set, in which case it
// also completes).
func (k *rank) begin(s *slot, i int, o op, blocking bool) {
	r := k.r
	c := k.comms[o.sub]
	me := c.Rank()
	s.i, s.o, s.v0, s.q, s.q2 = i, o, c.Wtime(), nil, nil
	if r.spans != nil {
		s.opSpan, s.h0 = r.spans.reserve(), time.Now()
	}
	ck := callStart
	if blocking {
		ck = callBlocking
	}
	h0, end := k.call(ck, s.opSpan)
	switch o.kind {
	case kAllreduce:
		ob := &k.bufs[i%len(k.bufs)]
		if len(ob.f) < o.n/8 {
			ob.f = make([]float64, o.n/8)
		}
		s.f = ob.f[:o.n/8]
		x := s.f
		base := float64(i % 5)
		for j := range x {
			x[j] = float64((me+1)*(j%7+1)) + base
		}
		if blocking {
			c.AllreduceF64(x, mpi.OpSum)
		} else {
			s.q = c.IallreduceF64(x, mpi.OpSum)
		}
	case kBcast:
		s.b = k.bytesFor(i, o.n)
		b := s.b
		if me == o.root {
			copy(b, r.patAt(i, o.root, o.n))
		}
		if blocking {
			c.Bcast(o.root, b)
		} else {
			s.q = c.Ibcast(o.root, b)
		}
	case kAllgather:
		back := k.bytesFor(i, (len(s.out)+1)*o.n)
		s.b = back[:o.n:o.n]
		copy(s.b, r.patAt(i, me, o.n))
		for p := range s.out {
			s.out[p] = back[(p+1)*o.n : (p+2)*o.n : (p+2)*o.n]
		}
		s.q = c.Iallgather(s.b, s.out)
	case kBarrier:
		if blocking {
			c.Barrier()
		} else {
			s.q = c.Ibarrier()
		}
	case kExchange:
		back := k.bytesFor(i, 2*o.n)
		s.s, s.b = back[:o.n:o.n], back[o.n:]
		copy(s.s, r.patAt(i, me, o.n))
		s.q2 = c.Irecv(me^1, 7, s.b)
		s.q = c.Isend(me^1, 7, s.s)
	}
	end(h0)
}

// complete waits for s's op (if still in flight), verifies its output and
// returns its virtual latency in seconds.
func (k *rank) complete(s *slot) float64 {
	r := k.r
	c := k.comms[s.o.sub]
	if s.q != nil {
		h0, end := k.call(callWait, s.opSpan)
		c.Wait(s.q)
		if s.q2 != nil {
			c.Wait(s.q2)
		}
		end(h0)
	}
	lat := c.Wtime() - s.v0
	r.attempted++
	k.check(s, c)
	return lat
}

// check verifies one completed op against its closed form or seeded pattern.
func (k *rank) check(s *slot, c *mpi.Comm) {
	r, o, i := k.r, s.o, s.i
	me, m := c.Rank(), c.Size()
	switch o.kind {
	case kAllreduce:
		tri := float64(m * (m + 1) / 2)
		base := float64(m * (i % 5))
		for j, v := range s.f {
			if want := float64(j%7+1)*tri + base; v != want {
				r.fail("op %d rank %d allreduce[%d] = %v, want %v", i, me, j, v, want)
				return
			}
		}
	case kBcast:
		if !bytes.Equal(s.b, r.patAt(i, o.root, o.n)) {
			r.fail("op %d rank %d bcast payload from root %d differs", i, me, o.root)
		}
	case kAllgather:
		for p := range s.out {
			if !bytes.Equal(s.out[p], r.patAt(i, p, o.n)) {
				r.fail("op %d rank %d allgather block %d differs", i, me, p)
				return
			}
		}
	case kExchange:
		if !bytes.Equal(s.b, r.patAt(i, me^1, o.n)) {
			r.fail("op %d rank %d exchange payload from %d differs", i, me, me^1)
		}
	}
}

// record books one completed op of a latency-bearing phase.
func (k *rank) record(s *slot, lat float64, ph phase) {
	r := k.r
	if r.spans != nil {
		r.spans.add(s.opSpan, r.runSpan, k.c.Rank(), s.o.kind.String(), s.h0, time.Now())
	}
	if ph != phTimed {
		return
	}
	r.timedOps++
	r.lat = append(r.lat, lat*1e6)
	r.payload += int64(payloadBytes(s.o, k.comms[s.o.sub].Size()))
}

// payloadBytes is the application payload one rank contributes or receives.
func payloadBytes(o op, size int) int {
	if o.kind == kAllgather {
		return o.n * size
	}
	return o.n
}

// window keeps the spec's window of nonblocking ops in flight, completing
// them oldest-first (FIFO) and refilling.
func (k *rank) window(ops []op, ph phase) {
	w := len(k.slots)
	head, n := 0, 0
	for i, o := range ops {
		if n == w {
			s := &k.slots[head]
			k.record(s, k.complete(s), ph)
			head, n = (head+1)%w, n-1
		}
		k.begin(&k.slots[(head+n)%w], i, o, false)
		n++
	}
	for ; n > 0; n-- {
		s := &k.slots[head]
		k.record(s, k.complete(s), ph)
		head = (head + 1) % w
	}
}

// sequence runs ops one at a time (blocking calls, or start then Wait),
// each after a Barrier: an op's latency is its own, not the skew the
// previous op left, and the op's single buffer set is free to rewrite.
func (k *rank) sequence(ops []op, ph phase, blocking bool) {
	s := &k.slots[0]
	for i, o := range ops {
		k.c.Barrier()
		k.begin(s, i, o, blocking && o.kind != kAllgather && o.kind != kExchange)
		k.record(s, k.complete(s), ph)
	}
}

// twoPass runs ops comm-only (pass 1), then again with Compute equal to each
// op's pass-1 virtual time between start and Wait (pass 2), each op after a
// Barrier, and sums both passes' virtual times for the overlap figures.
func (k *rank) twoPass(ops []op, ph phase) {
	r, c, s := k.r, k.c, &k.slots[0]
	for i, o := range ops {
		c.Barrier()
		k.begin(s, i, o, false)
		k.d1[i] = k.complete(s)
		k.record(s, k.d1[i], ph)
	}
	if ph == phTimed {
		r.vEnd = max(r.vEnd, c.Wtime())
	}
	for i, o := range ops {
		c.Barrier()
		k.begin(s, i, o, false)
		c.Compute(k.d1[i])
		d2 := k.complete(s)
		k.record(s, d2, phProbe) // pass 2 carries compute: not a latency sample
		if ph == phTimed {
			r.timedOps++
		}
		r.ovComm += k.d1[i]
		r.ovPass2 += d2
	}
}

// mark is one host instant on both host clocks. Host metrics use the CPU
// clock (user+system time of the process, every thread): on a shared
// machine the wall clock also counts time the process sat descheduled or
// its virtual CPU was stolen, which is noise, not simulation cost.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

func now() mark {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return mark{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func (m mark) zero() bool { return m.wall.IsZero() }

// sub is the CPU seconds from o to m.
func (m mark) sub(o mark) float64 { return (m.cpu - o.cpu).Seconds() }
