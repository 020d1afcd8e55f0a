package coll

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// fabric is a trivial in-memory point-to-point layer: one buffered FIFO per
// (src, dst, tag) triple, honouring MPI's per-pair ordering. It lets the
// collective algorithms be verified in isolation from the simulator.
type fabric struct {
	n  int
	mu sync.Mutex
	q  map[string]chan []byte
}

func newFabric(n int) *fabric {
	return &fabric{n: n, q: make(map[string]chan []byte)}
}

func (f *fabric) chanFor(src, dst int, tag int32) chan []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := fmt.Sprintf("%d/%d/%d", src, dst, tag)
	c, ok := f.q[k]
	if !ok {
		c = make(chan []byte, 1024)
		f.q[k] = c
	}
	return c
}

type peer struct {
	f    *fabric
	rank int
}

func (p *peer) Rank() int { return p.rank }
func (p *peer) Size() int { return p.f.n }

func (p *peer) SendT(dst int, tag int32, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	p.f.chanFor(p.rank, dst, tag) <- cp
}

func (p *peer) RecvT(src int, tag int32, buf []byte) int {
	m := <-p.f.chanFor(src, p.rank, tag)
	return copy(buf, m)
}

// bound is a plan with the arguments one execution binds to it.
type bound struct {
	s *Schedule
	a Args
}

// plan compiles a's plan for (op, algo).
func plan(op OpKind, algo Algo, a Args) bound {
	return bound{Build(Key{Op: op, Algo: algo}, a), a}
}

// runSched executes one rank's plan over the fabric the way the nbc engine
// does: every transfer of a round is in flight before the round completes,
// then its local prims run. The fabric's queues are buffered, so posting
// every send before every receive never blocks a send and is the engine's
// whole-round behaviour.
func runSched(p *peer, b bound, tag int32) {
	var bd Binding
	bd.Bind(b.s, b.a)
	for ri := range b.s.Rounds {
		rd := &b.s.Rounds[ri]
		for i := range rd.Comm {
			if pr := &rd.Comm[i]; pr.Kind == PrimSend {
				p.SendT(pr.Peer, tag, bd.SendPayload(pr))
			}
		}
		for i := range rd.Comm {
			if pr := &rd.Comm[i]; pr.Kind == PrimRecv {
				p.RecvT(pr.Peer, tag, bd.RecvBuf(pr))
			}
		}
		for i := range rd.Local {
			bd.RunLocal(&rd.Local[i])
		}
	}
	bd.Release(b.s)
}

// runAll executes fn on n concurrent peers and waits for all.
func runAll(t *testing.T, n int, fn func(p *peer)) {
	t.Helper()
	f := newFabric(n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					errs <- fmt.Errorf("rank %d panicked: %v", r, e)
				}
			}()
			fn(&peer{f: f, rank: r})
		}(r)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

var testNPs = []int{1, 2, 3, 4, 5, 7, 8, 12, 16}

func TestBarrierCompletes(t *testing.T) {
	for _, n := range testNPs {
		runAll(t, n, func(p *peer) {
			runSched(p, plan(OpBarrier, AlgoDissemination, Args{Rank: p.Rank(), Size: p.Size()}), 0)
		})
	}
}

func TestBcastAllNP(t *testing.T) {
	for _, n := range testNPs {
		for root := 0; root < n; root += 2 {
			n, root := n, root
			runAll(t, n, func(p *peer) {
				data := make([]byte, 16)
				if p.Rank() == root {
					for i := range data {
						data[i] = byte(i + root)
					}
				}
				runSched(p, plan(OpBcast, AlgoBinomial, Args{Rank: p.Rank(), Size: p.Size(), Root: root, Data: data}), 1)
				for i := range data {
					if data[i] != byte(i+root) {
						panic(fmt.Sprintf("np=%d root=%d rank=%d: bad byte %d", n, root, p.Rank(), i))
					}
				}
			})
		}
	}
}

func TestAllreduceSumAllNP(t *testing.T) {
	for _, n := range testNPs {
		n := n
		runAll(t, n, func(p *peer) {
			x := []float64{float64(p.Rank()), 1, float64(p.Rank() * p.Rank())}
			runSched(p, plan(OpAllreduce, AlgoRecDoubling, Args{Rank: p.Rank(), Size: p.Size(), X: x, Op: OpSum}), 2)
			wantSq := 0.0
			for r := 0; r < n; r++ {
				wantSq += float64(r * r)
			}
			if x[0] != float64(n*(n-1))/2 || x[1] != float64(n) || x[2] != wantSq {
				panic(fmt.Sprintf("np=%d rank=%d: %v", n, p.Rank(), x))
			}
		})
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	runAll(t, 7, func(p *peer) {
		x := []float64{float64(p.Rank())}
		runSched(p, plan(OpAllreduce, AlgoRecDoubling, Args{Rank: p.Rank(), Size: p.Size(), X: x, Op: OpMax}), 2)
		if x[0] != 6 {
			panic(fmt.Sprintf("max = %v", x))
		}
		y := []float64{float64(p.Rank() + 3)}
		runSched(p, plan(OpAllreduce, AlgoRecDoubling, Args{Rank: p.Rank(), Size: p.Size(), X: y, Op: OpMin}), 3)
		if y[0] != 3 {
			panic(fmt.Sprintf("min = %v", y))
		}
	})
}

func TestReduceAllRootsAllNP(t *testing.T) {
	for _, n := range testNPs {
		for root := 0; root < n; root = root*2 + 1 {
			n, root := n, root
			runAll(t, n, func(p *peer) {
				x := []float64{float64(p.Rank() + 1)}
				runSched(p, plan(OpReduce, AlgoBinomial, Args{Rank: p.Rank(), Size: p.Size(), Root: root, X: x, Op: OpSum}), 4)
				if p.Rank() == root && x[0] != float64(n*(n+1))/2 {
					panic(fmt.Sprintf("np=%d root=%d: %v", n, root, x))
				}
			})
		}
	}
}

func TestAllgatherAllNP(t *testing.T) {
	for _, n := range testNPs {
		n := n
		runAll(t, n, func(p *peer) {
			out := make([][]byte, n)
			for i := range out {
				out[i] = make([]byte, 3)
			}
			mine := []byte{byte(p.Rank()), 0xBE, 0xEF}
			runSched(p, plan(OpAllgather, AlgoRing, Args{Rank: p.Rank(), Size: p.Size(), Mine: mine, Out: out}), 5)
			for r := 0; r < n; r++ {
				if out[r][0] != byte(r) || out[r][1] != 0xBE {
					panic(fmt.Sprintf("np=%d rank=%d out[%d]=%v", n, p.Rank(), r, out[r]))
				}
			}
		})
	}
}

func TestAlltoallAllNP(t *testing.T) {
	for _, n := range testNPs {
		n := n
		runAll(t, n, func(p *peer) {
			send := make([][]byte, n)
			recv := make([][]byte, n)
			for i := range send {
				send[i] = []byte{byte(p.Rank()), byte(i)}
				recv[i] = make([]byte, 2)
			}
			runSched(p, plan(OpAlltoall, AlgoPairwise, Args{Rank: p.Rank(), Size: p.Size(), Send: send, Recv: recv}), 6)
			for r := 0; r < n; r++ {
				if recv[r][0] != byte(r) || recv[r][1] != byte(p.Rank()) {
					panic(fmt.Sprintf("np=%d rank=%d recv[%d]=%v", n, p.Rank(), r, recv[r]))
				}
			}
		})
	}
}

func TestGatherAllNP(t *testing.T) {
	for _, n := range testNPs {
		n := n
		runAll(t, n, func(p *peer) {
			out := make([][]byte, n)
			for i := range out {
				out[i] = make([]byte, 1)
			}
			runSched(p, plan(OpGather, AlgoLinear, Args{Rank: p.Rank(), Size: p.Size(), Root: 0, Mine: []byte{byte(p.Rank() * 2)}, Out: out}), 7)
			if p.Rank() == 0 {
				for r := 0; r < n; r++ {
					if out[r][0] != byte(r*2) {
						panic(fmt.Sprintf("np=%d out[%d]=%v", n, r, out[r]))
					}
				}
			}
		})
	}
}

func TestF64Codec(t *testing.T) {
	xs := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	b := F64Bytes(xs)
	if len(b) != 8*len(xs) {
		t.Fatalf("encoded %d bytes", len(b))
	}
	out := make([]float64, len(xs))
	BytesF64(out, b)
	for i := range xs {
		if out[i] != xs[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, out[i], xs[i])
		}
	}
}

func TestPropertyF64CodecRoundTrip(t *testing.T) {
	f := func(xs []float64) bool {
		out := make([]float64, len(xs))
		BytesF64(out, F64Bytes(xs))
		for i := range xs {
			if out[i] != xs[i] && !(math.IsNaN(out[i]) && math.IsNaN(xs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: allreduce(sum) over random vectors equals the serial sum for
// every participating rank.
func TestPropertyAllreduceEqualsSerialSum(t *testing.T) {
	f := func(npRaw uint8, seed int64) bool {
		n := int(npRaw%12) + 1
		vals := make([]float64, n)
		want := 0.0
		for r := range vals {
			vals[r] = float64((seed>>uint(r%32))&0xFF) / 7.0
			want += vals[r]
		}
		ok := true
		var mu sync.Mutex
		f2 := newFabric(n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				p := &peer{f: f2, rank: r}
				x := []float64{vals[r]}
				runSched(p, plan(OpAllreduce, AlgoRecDoubling, Args{Rank: p.Rank(), Size: p.Size(), X: x, Op: OpSum}), 2)
				if math.Abs(x[0]-want) > 1e-9 {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}(r)
		}
		wg.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
