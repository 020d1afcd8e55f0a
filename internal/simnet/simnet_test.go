package simnet

import (
	"testing"
	"testing/quick"

	"repro/internal/vtime"
)

func testRail() RailParams {
	return RailParams{
		Name:         "test",
		Latency:      1000, // 1 us
		BytesPerSec:  1e9,  // 1 GB/s => 1 ns/byte
		PerMsgHost:   100,
		ChunkBytes:   4096,
		PerChunkHost: 50,
	}
}

func newNet(t *testing.T, nodes int, params ...RailParams) (*vtime.Engine, *Network) {
	t.Helper()
	e := vtime.NewEngine()
	if len(params) == 0 {
		params = []RailParams{testRail()}
	}
	n, err := New(e, nodes, params...)
	if err != nil {
		t.Fatal(err)
	}
	return e, n
}

func TestSingleTransferTiming(t *testing.T) {
	e, n := newNet(t, 2)
	var at vtime.Time
	e.At(0, func() {
		n.Rail(0).Transfer(0, 1, 1000, "hi", func(d Delivery) {
			at = e.Now()
			if d.Payload.(string) != "hi" {
				t.Error("payload lost")
			}
			if d.From != 0 || d.To != 1 || d.Size != 1000 {
				t.Errorf("delivery meta = %+v", d)
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// latency 1000ns + 1000 bytes at 1ns/byte = 2000ns total.
	if at != 2000 {
		t.Fatalf("delivered at %d, want 2000", at)
	}
}

func TestZeroByteTransfer(t *testing.T) {
	e, n := newNet(t, 2)
	var at vtime.Time
	e.At(0, func() {
		n.Rail(0).Transfer(0, 1, 0, nil, func(d Delivery) { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 1000 {
		t.Fatalf("0-byte delivered at %d, want latency 1000", at)
	}
}

func TestSenderSerialization(t *testing.T) {
	e, n := newNet(t, 2)
	var first, second vtime.Time
	e.At(0, func() {
		n.Rail(0).Transfer(0, 1, 1000, nil, func(Delivery) { first = e.Now() })
		n.Rail(0).Transfer(0, 1, 1000, nil, func(Delivery) { second = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 2000 {
		t.Fatalf("first at %d, want 2000", first)
	}
	// Second transfer's wire start is delayed by the first's occupancy.
	if second != 3000 {
		t.Fatalf("second at %d, want 3000 (pipelined)", second)
	}
}

func TestReceiverContention(t *testing.T) {
	// Two senders to one receiver: deliveries serialize at the receiving NIC.
	e, n := newNet(t, 3)
	var a, b vtime.Time
	e.At(0, func() {
		n.Rail(0).Transfer(0, 2, 1000, nil, func(Delivery) { a = e.Now() })
		n.Rail(0).Transfer(1, 2, 1000, nil, func(Delivery) { b = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a != 2000 {
		t.Fatalf("a at %d, want 2000", a)
	}
	if b != 3000 {
		t.Fatalf("b at %d, want 3000 (receiver serialized)", b)
	}
}

func TestIndependentFlowsDoNotInterfere(t *testing.T) {
	e, n := newNet(t, 4)
	var a, b vtime.Time
	e.At(0, func() {
		n.Rail(0).Transfer(0, 1, 1000, nil, func(Delivery) { a = e.Now() })
		n.Rail(0).Transfer(2, 3, 1000, nil, func(Delivery) { b = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a != 2000 || b != 2000 {
		t.Fatalf("a=%d b=%d, want both 2000", a, b)
	}
}

func TestTwoRailsAreIndependent(t *testing.T) {
	fast := testRail()
	slow := testRail()
	slow.Name = "slow"
	slow.BytesPerSec = 0.5e9
	e, n := newNet(t, 2, fast, slow)
	var a, b vtime.Time
	e.At(0, func() {
		n.Rail(0).Transfer(0, 1, 1000, nil, func(Delivery) { a = e.Now() })
		n.Rail(1).Transfer(0, 1, 1000, nil, func(Delivery) { b = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a != 2000 {
		t.Fatalf("fast rail at %d, want 2000", a)
	}
	if b != 3000 {
		t.Fatalf("slow rail at %d, want 3000", b)
	}
}

func TestBusyReporting(t *testing.T) {
	e, n := newNet(t, 2)
	r := n.Rail(0)
	e.At(0, func() {
		if r.Busy(0) {
			t.Error("idle NIC reported busy")
		}
		r.Transfer(0, 1, 10000, nil, func(Delivery) {})
		if !r.Busy(0) {
			t.Error("transmitting NIC reported idle")
		}
	})
	e.At(20001, func() {
		if r.Busy(0) {
			t.Error("NIC still busy after wire drained")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitEagerCost(t *testing.T) {
	rp := testRail()
	rp.HostCopyBW = 1e9 // 1 ns/byte
	if got := rp.SubmitEager(0); got != 100 {
		t.Fatalf("SubmitEager(0) = %d, want PerMsgHost 100", got)
	}
	if got := rp.SubmitEager(1000); got != 1100 {
		t.Fatalf("SubmitEager(1000) = %d, want 1100 (copy charged)", got)
	}
	rp.HostCopyBW = 0 // unset: no copy modeled
	if got := rp.SubmitEager(1000); got != 100 {
		t.Fatalf("SubmitEager with no copy BW = %d, want 100", got)
	}
}

func TestSubmitRdvCost(t *testing.T) {
	rp := testRail() // ChunkBytes 4096, PerChunkHost 50
	if got := rp.SubmitRdv(0, false); got != 100 {
		t.Fatalf("SubmitRdv(0) = %d, want 100", got)
	}
	if got := rp.SubmitRdv(4096, false); got != 150 {
		t.Fatalf("SubmitRdv(4096) = %d, want 150 (one chunk)", got)
	}
	if got := rp.SubmitRdv(4097, false); got != 200 {
		t.Fatalf("SubmitRdv(4097) = %d, want 200 (two chunks)", got)
	}
	// Cached only helps when the rail has a registration cache.
	if got := rp.SubmitRdv(1<<20, true); got != rp.SubmitRdv(1<<20, false) {
		t.Fatal("cache hit on cacheless rail must not help")
	}
	rp.RegCache = true
	if got := rp.SubmitRdv(1<<20, true); got != rp.PerMsgHost {
		t.Fatalf("cached cost = %d, want %d", got, rp.PerMsgHost)
	}
	if got := rp.SubmitRdv(1<<20, false); got == rp.PerMsgHost {
		t.Fatal("cold registration must pay per-chunk cost even with a cache")
	}
}

func TestEstimateAndSampleTable(t *testing.T) {
	rp := testRail()
	if got := rp.EstimateXfer(1000); got != 2000 {
		t.Fatalf("EstimateXfer(1000) = %d, want 2000", got)
	}
	e, n := newNet(t, 2)
	_ = e
	tbl := n.Rail(0).SampleTable()
	if len(tbl) == 0 {
		t.Fatal("empty sample table")
	}
	for i := 1; i < len(tbl); i++ {
		if tbl[i].Xfer <= tbl[i-1].Xfer {
			t.Fatal("sample table not monotonic")
		}
		if tbl[i].Size != tbl[i-1].Size*2 {
			t.Fatal("sample ladder must double")
		}
	}
	if tbl[len(tbl)-1].Size != 64<<20 {
		t.Fatalf("ladder top = %d, want 64MB", tbl[len(tbl)-1].Size)
	}
}

func TestValidation(t *testing.T) {
	e := vtime.NewEngine()
	if _, err := New(e, 0, testRail()); err == nil {
		t.Error("expected error for 0 nodes")
	}
	bad := testRail()
	bad.Latency = 0
	if _, err := New(e, 2, bad); err == nil {
		t.Error("expected error for zero latency")
	}
	bad = testRail()
	bad.Name = ""
	if _, err := New(e, 2, bad); err == nil {
		t.Error("expected error for empty name")
	}
	bad = testRail()
	bad.BytesPerSec = 0
	if _, err := New(e, 2, bad); err == nil {
		t.Error("expected error for zero bandwidth")
	}
	bad = testRail()
	bad.ChunkBytes = 0
	if _, err := New(e, 2, bad); err == nil {
		t.Error("expected error for zero chunk size")
	}
}

func TestSelfTransferPanics(t *testing.T) {
	e, n := newNet(t, 2)
	e.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on self transfer")
			}
		}()
		n.Rail(0).Transfer(1, 1, 10, nil, func(Delivery) {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	e, n := newNet(t, 2)
	e.At(0, func() {
		n.Rail(0).Transfer(0, 1, 100, nil, func(Delivery) {})
		n.Rail(0).Transfer(1, 0, 200, nil, func(Delivery) {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	r := n.Rail(0)
	if r.Packets != 2 || r.BytesSent != 300 {
		t.Fatalf("stats = %d pkts %d bytes, want 2/300", r.Packets, r.BytesSent)
	}
}

// Property: bandwidth is conserved — k back-to-back messages of size s from
// one sender deliver the last one no earlier than latency + k*wire(s).
func TestPropertyBandwidthConservation(t *testing.T) {
	f := func(kRaw, sRaw uint8) bool {
		k := int(kRaw%8) + 1
		s := (int(sRaw) + 1) * 100
		e := vtime.NewEngine()
		n, err := New(e, 2, testRail())
		if err != nil {
			return false
		}
		var last vtime.Time
		e.At(0, func() {
			for i := 0; i < k; i++ {
				n.Rail(0).Transfer(0, 1, s, nil, func(Delivery) { last = e.Now() })
			}
		})
		if e.Run() != nil {
			return false
		}
		wire := testRail().WireTime(s)
		want := vtime.Time(0).Add(testRail().Latency + vtime.Duration(k)*wire)
		return last == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: deliveries on one rail to one node never go backwards in time
// and arrive in FIFO order per sender.
func TestPropertyFIFOPerFlow(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 50 {
			return true
		}
		e := vtime.NewEngine()
		n, err := New(e, 2, testRail())
		if err != nil {
			return false
		}
		var got []int
		e.At(0, func() {
			for i, s := range sizes {
				i := i
				n.Rail(0).Transfer(0, 1, int(s)+1, nil, func(Delivery) {
					got = append(got, i)
				})
			}
		})
		if e.Run() != nil {
			return false
		}
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return len(got) == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
