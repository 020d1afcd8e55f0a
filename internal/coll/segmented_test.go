package coll

import (
	"fmt"
	"math"
	"testing"
)

// segTestSegs exercises the interesting segment regimes: smaller than one
// block, mid-payload, and larger than the whole payload (degenerating to
// the monolithic schedule).
var segTestSegs = []int{1, 7, 64, 1 << 20}

func TestSegBounds(t *testing.T) {
	cases := []struct {
		n, seg int
		want   []int
	}{
		{0, 8, []int{0, 0}},
		{5, 8, []int{0, 5}},
		{8, 8, []int{0, 8}},
		{9, 8, []int{0, 8, 9}},
		{24, 8, []int{0, 8, 16, 24}},
		{24, 0, []int{0, 24}}, // seg 0 → DefSegBytes
	}
	for _, tc := range cases {
		got := segBounds(tc.n, tc.seg)
		if len(got) != len(tc.want) {
			t.Fatalf("segBounds(%d, %d) = %v, want %v", tc.n, tc.seg, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("segBounds(%d, %d) = %v, want %v", tc.n, tc.seg, got, tc.want)
			}
		}
	}
}

// TestSegmentedRoundShapes: every segmented builder keeps only transfers in
// its rounds' Comm lists at every rank count, root and segment size.
func TestSegmentedRoundShapes(t *testing.T) {
	data := make([]byte, 200)
	x := make([]float64, 37)
	for _, n := range testNPs {
		for _, seg := range segTestSegs {
			for root := 0; root < n; root += 3 {
				for rank := 0; rank < n; rank++ {
					checkRoundShape(t, plan(OpBcast, AlgoChain, Args{Rank: rank, Size: n, Root: root, Data: data, Seg: seg}).s,
						fmt.Sprintf("chain/np%d/root%d/seg%d/r%d", n, root, seg, rank))
					checkRoundShape(t, plan(OpBcast, AlgoSegBinomial, Args{Rank: rank, Size: n, Root: root, Data: data, Seg: seg}).s,
						fmt.Sprintf("segbinomial/np%d/root%d/seg%d/r%d", n, root, seg, rank))
				}
			}
			for rank := 0; rank < n; rank++ {
				checkRoundShape(t, plan(OpAllreduce, AlgoSegRing, Args{Rank: rank, Size: n, X: x, Op: OpSum, Seg: seg}).s,
					fmt.Sprintf("segring/np%d/seg%d/r%d", n, seg, rank))
			}
		}
	}
}

// TestBcastChainFabric / TestBcastSegBinomialFabric: payload correctness
// over the in-memory fabric at explicit (non-default) segment sizes — the
// conformance harness only exercises the default segment size.
func testSegBcastFabric(t *testing.T, algo Algo) {
	name := algo.String()
	for _, n := range testNPs {
		for _, seg := range segTestSegs {
			for root := 0; root < n; root += 5 {
				n, seg, root := n, seg, root
				t.Run(fmt.Sprintf("np%d/seg%d/root%d", n, seg, root), func(t *testing.T) {
					const sz = 150
					bufs := make([][]byte, n)
					for r := range bufs {
						bufs[r] = make([]byte, sz)
						if r == root {
							for i := range bufs[r] {
								bufs[r][i] = byte(i*7 + root)
							}
						}
					}
					execSched(t, n, func(rank int) bound {
						return plan(OpBcast, algo, Args{Rank: rank, Size: n, Root: root, Data: bufs[rank], Seg: seg})
					}, 42)
					for r := range bufs {
						for i := range bufs[r] {
							if bufs[r][i] != byte(i*7+root) {
								t.Fatalf("%s rank %d byte %d = %d, want %d",
									name, r, i, bufs[r][i], byte(i*7+root))
							}
						}
					}
				})
			}
		}
	}
}

func TestBcastChainFabric(t *testing.T) {
	testSegBcastFabric(t, AlgoChain)
}

func TestBcastSegBinomialFabric(t *testing.T) {
	testSegBcastFabric(t, AlgoSegBinomial)
}

// TestAllreduceSegRingFabric: the segmented ring allreduce produces the
// exact elementwise sum at every rank count (power of two or not), segment
// size, and vector length — including vectors shorter than the rank count,
// where whole ring windows are empty and their rounds elide.
func TestAllreduceSegRingFabric(t *testing.T) {
	for _, n := range testNPs {
		for _, seg := range segTestSegs {
			for _, m := range []int{0, 1, 3, 37, 100} {
				n, seg, m := n, seg, m
				t.Run(fmt.Sprintf("np%d/seg%d/m%d", n, seg, m), func(t *testing.T) {
					vecs := make([][]float64, n)
					for r := range vecs {
						vecs[r] = make([]float64, m)
						for i := range vecs[r] {
							vecs[r][i] = float64(r*100 + i)
						}
					}
					execSched(t, n, func(rank int) bound {
						return plan(OpAllreduce, AlgoSegRing, Args{Rank: rank, Size: n, X: vecs[rank], Op: OpSum, Seg: seg})
					}, 43)
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
}

// TestKeyForSegmented: segment size is shape — it lands in Key.Seg, so two
// invocations pipelined at different granularities can never share a
// cached schedule, while non-segmented selections keep Seg 0 and never
// fragment.
func TestKeyForSegmented(t *testing.T) {
	data := make([]byte, 64<<10)
	a := Args{Size: 8, Data: data}

	force := func(segBytes int) *Tuning {
		return &Tuning{
			Force:    map[OpKind]Algo{OpBcast: AlgoChain},
			SegBytes: segBytes,
		}
	}
	kDef := KeyFor(force(0), OpBcast, a, false)
	if kDef.Algo != AlgoChain || kDef.Seg != DefSegBytes {
		t.Fatalf("forced chain key = %+v, want chain with DefSegBytes", kDef)
	}
	k4 := KeyFor(force(4096), OpBcast, a, false)
	if k4.Seg != 4096 {
		t.Fatalf("SegBytes 4096 key seg = %d", k4.Seg)
	}
	if kDef == k4 {
		t.Fatal("different segment sizes produced equal cache keys")
	}

	// A calibrated table entry supplies the segment size when SegBytes does
	// not force one...
	tab := &Table{Stack: "s", Ops: map[string][]TableEntry{
		"bcast": {{MaxBytes: -1, Algo: AlgoChain, Seg: 2048}},
	}}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	kTab := KeyFor(&Tuning{Table: tab, Stack: "s"}, OpBcast, a, false)
	if kTab.Algo != AlgoChain || kTab.Seg != 2048 {
		t.Fatalf("table key = %+v, want chain/seg2048", kTab)
	}
	// ...and SegBytes outranks the table entry.
	kBoth := KeyFor(&Tuning{Table: tab, Stack: "s", SegBytes: 512}, OpBcast, a, false)
	if kBoth.Seg != 512 {
		t.Fatalf("SegBytes should outrank the table entry, got seg %d", kBoth.Seg)
	}

	// Non-segmented selections never carry a segment size, even under a
	// forced SegBytes: their keys must not fragment on an irrelevant knob.
	kMono := KeyFor(&Tuning{SegBytes: 4096}, OpBcast, Args{Size: 8, Data: make([]byte, 64)}, false)
	if Segmented(kMono.Algo) || kMono.Seg != 0 {
		t.Fatalf("monolithic key = %+v, want seg 0", kMono)
	}
}

// TestSegTableValidation: the seg schema field is validated loudly — a
// segment size on a non-segmented algorithm is dead config, a negative one
// is malformed.
func TestSegTableValidation(t *testing.T) {
	bad := &Table{Stack: "s", Ops: map[string][]TableEntry{
		"bcast": {{MaxBytes: -1, Algo: AlgoBinomial, Seg: 4096}},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("seg on binomial accepted")
	}
	neg := &Table{Stack: "s", Ops: map[string][]TableEntry{
		"bcast": {{MaxBytes: -1, Algo: AlgoChain, Seg: -1}},
	}}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative seg accepted")
	}
	tn := Tuning{SegBytes: -5}
	if err := tn.Validate(); err == nil {
		t.Fatal("negative SegBytes accepted")
	}
}
