package coll

import (
	"bytes"
	"strings"
	"testing"
)

// TestZeroValueTuningMatchesDefaults: the zero Tuning and the nil Tuning
// select identically over the whole (op, size, bytes, twoLevel) grid — the
// guarantee that adding tables changed nothing for untouched configs.
// (TestSelectTable pins the nil selection to the documented defaults, so
// equality here pins the zero value to them too.)
func TestZeroValueTuningMatchesDefaults(t *testing.T) {
	var nilTn *Tuning
	zero := &Tuning{}
	sizes := []int{1, 2, 3, 4, 6, 8, 13, 16, 64}
	bytess := []int{0, 1, 256, 4 << 10, 12 << 10, 12<<10 + 1, 32 << 10, 32<<10 + 1, 1 << 20}
	for op := OpKind(0); op < numOps; op++ {
		for _, size := range sizes {
			for _, b := range bytess {
				for _, twoLevel := range []bool{false, true} {
					got := zero.Select(op, size, b, twoLevel)
					want := nilTn.Select(op, size, b, twoLevel)
					if got != want {
						t.Fatalf("Select(%s, np%d, %dB, 2lvl=%v): zero Tuning = %s, nil = %s",
							op, size, b, twoLevel, got, want)
					}
				}
			}
		}
	}
	// Spot-pin two documented defaults so this test fails on its own if the
	// default table itself moves.
	if got := zero.Select(OpBcast, 16, DefBcastLong+1, false); got != AlgoScatterAllgather {
		t.Errorf("zero-value bcast above threshold = %s, want scatter-allgather", got)
	}
	if got := zero.Select(OpAllgather, 8, DefAllgatherLong, false); got != AlgoBruck {
		t.Errorf("zero-value allgather at threshold = %s, want bruck", got)
	}
}

func tableFlippingAllgather() *Table {
	// Calibrated-style table: ring already wins from 8 KB up (the default
	// switches at 32 KB) and bcast switches later than the default.
	return &Table{
		Stack: "test-stack",
		Ops: map[string][]TableEntry{
			"allgather": {
				{MaxBytes: 8 << 10, Algo: AlgoBruck},
				{MaxBytes: -1, Algo: AlgoRing},
			},
			"bcast": {
				{MaxBytes: 48 << 10, Algo: AlgoBinomial},
				{MaxBytes: -1, Algo: AlgoScatterAllgather},
			},
		},
	}
}

func TestTableDrivenSelection(t *testing.T) {
	tab := tableFlippingAllgather()
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	tn := &Tuning{Table: tab, Stack: "test-stack"}

	// The table flips selections inside the window where it disagrees with
	// the defaults.
	if got := tn.Select(OpAllgather, 8, 16<<10, false); got != AlgoRing {
		t.Errorf("tabled allgather at 16KB = %s, want ring", got)
	}
	if got := (*Tuning)(nil).Select(OpAllgather, 8, 16<<10, false); got != AlgoBruck {
		t.Errorf("default allgather at 16KB = %s, want bruck", got)
	}
	if got := tn.Select(OpBcast, 16, 24<<10, false); got != AlgoBinomial {
		t.Errorf("tabled bcast at 24KB = %s, want binomial", got)
	}

	// Operations the table does not cover keep the default selection.
	if got := tn.Select(OpAllreduce, 8, 64<<10, false); got != AlgoRabenseifner {
		t.Errorf("uncovered allreduce = %s, want rabenseifner", got)
	}

	// Topology outranks the table; Force outranks both.
	if got := tn.Select(OpAllgather, 8, 16<<10, true); got != AlgoTwoLevel {
		t.Errorf("two-level with table = %s, want two-level", got)
	}
	forced := &Tuning{Table: tab, Force: map[OpKind]Algo{OpAllgather: AlgoBruck}}
	if got := forced.Select(OpAllgather, 8, 1<<20, false); got != AlgoBruck {
		t.Errorf("forced with table = %s, want bruck", got)
	}
}

// TestTableFallbackNormalization: a table naming a power-of-two-only
// algorithm at a non-power-of-two rank count selects the algorithm the
// builder would actually construct, keeping Key.Algo honest.
func TestTableFallbackNormalization(t *testing.T) {
	tab := &Table{
		Stack: "t",
		Ops: map[string][]TableEntry{
			"allreduce":      {{MaxBytes: -1, Algo: AlgoRabenseifner}},
			"reduce-scatter": {{MaxBytes: -1, Algo: AlgoRecHalving}},
		},
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	tn := &Tuning{Table: tab}
	cases := []struct {
		op         OpKind
		pow2, rest Algo
	}{
		{OpAllreduce, AlgoRabenseifner, AlgoRecDoubling},
		{OpReduceScatter, AlgoRecHalving, AlgoPairwise},
	}
	for _, c := range cases {
		if got := tn.Select(c.op, 8, 1<<20, false); got != c.pow2 {
			t.Errorf("%s np8 = %s, want %s", c.op, got, c.pow2)
		}
		if got := tn.Select(c.op, 6, 1<<20, false); got != c.rest {
			t.Errorf("%s np6 = %s, want %s (builder fallback)", c.op, got, c.rest)
		}
	}
}

func TestParseTableErrors(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"garbage", `{]`, "parsing tuning table"},
		{"unknown field", `{"stack":"s","ops":{},"extra":1}`, "parsing tuning table"},
		{"unknown op", `{"stack":"s","ops":{"allgathr":[{"max_bytes":-1,"algo":"ring"}]}}`, `unknown operation "allgathr"`},
		{"unknown algo", `{"stack":"s","ops":{"allgather":[{"max_bytes":-1,"algo":"rings"}]}}`, `unknown algorithm "rings"`},
		{"unregistered pair", `{"stack":"s","ops":{"allgather":[{"max_bytes":-1,"algo":"binomial"}]}}`, "no binomial builder registered"},
		{"not byte-tunable", `{"stack":"s","ops":{"alltoallv":[{"max_bytes":4096,"algo":"pairwise"},{"max_bytes":-1,"algo":"ring"}]}}`, "does not key on payload size"},
		{"two-level entry", `{"stack":"s","ops":{"bcast":[{"max_bytes":-1,"algo":"two-level"}]}}`, "not a flat algorithm"},
		{"empty op", `{"stack":"s","ops":{"bcast":[]}}`, "no entries"},
		{"not ascending", `{"stack":"s","ops":{"bcast":[{"max_bytes":4096,"algo":"binomial"},{"max_bytes":1024,"algo":"binomial"},{"max_bytes":-1,"algo":"scatter-allgather"}]}}`, "not ascending"},
		{"bounded last", `{"stack":"s","ops":{"bcast":[{"max_bytes":4096,"algo":"binomial"}]}}`, "must be unbounded"},
		{"unbounded not last", `{"stack":"s","ops":{"bcast":[{"max_bytes":-1,"algo":"binomial"},{"max_bytes":4096,"algo":"binomial"}]}}`, "must be last"},
	}
	for _, c := range cases {
		_, err := ParseTable([]byte(c.json))
		if err == nil {
			t.Errorf("%s: ParseTable accepted malformed table", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tab := tableFlippingAllgather()
	b1, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := tab.JSON()
	if !bytes.Equal(b1, b2) {
		t.Fatal("Table.JSON is not deterministic")
	}
	var tn Tuning
	if err := tn.LoadTable(b1); err != nil {
		t.Fatalf("LoadTable round trip: %v", err)
	}
	if got := tn.Select(OpAllgather, 8, 16<<10, false); got != AlgoRing {
		t.Errorf("round-tripped table selects %s at 16KB, want ring", got)
	}
	b3, _ := tn.Table.JSON()
	if !bytes.Equal(b1, b3) {
		t.Fatalf("JSON → ParseTable → JSON changed bytes:\n%s\nvs\n%s", b1, b3)
	}
}

func TestTuningValidate(t *testing.T) {
	if err := (&Tuning{}).Validate(); err != nil {
		t.Fatalf("zero tuning invalid: %v", err)
	}
	if err := (*Tuning)(nil).Validate(); err != nil {
		t.Fatalf("nil tuning invalid: %v", err)
	}
	bad := &Tuning{Force: map[OpKind]Algo{OpBarrier: AlgoRing}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "no such builder") {
		t.Errorf("forcing ring barrier: err = %v, want builder complaint", err)
	}
	bad2 := &Tuning{Force: map[OpKind]Algo{OpAlltoallv: AlgoTwoLevel}}
	if err := bad2.Validate(); err == nil || !strings.Contains(err.Error(), "two-level") {
		t.Errorf("forcing two-level alltoallv: err = %v, want two-level complaint", err)
	}
	ok := &Tuning{Force: map[OpKind]Algo{OpBcast: AlgoScatterAllgather, OpBarrier: AlgoAuto}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid force rejected: %v", err)
	}

	// A table calibrated for another stack is rejected when the run's
	// stack identity is known; claiming the table's stack explicitly (the
	// deliberate cross-application escape hatch) passes.
	tab := tableFlippingAllgather() // calibrated for "test-stack"
	mismatch := &Tuning{Table: tab, Stack: "mvapich2"}
	if err := mismatch.Validate(); err == nil || !strings.Contains(err.Error(), "calibrated for stack") {
		t.Errorf("cross-stack table: err = %v, want mismatch complaint", err)
	}
	deliberate := &Tuning{Table: tab, Stack: "test-stack"}
	if err := deliberate.Validate(); err != nil {
		t.Errorf("matching stacks rejected: %v", err)
	}
	anonymous := &Tuning{Table: tab}
	if err := anonymous.Validate(); err != nil {
		t.Errorf("tuning without stack identity rejected: %v", err)
	}
}

// TestKeyCarriesStack: stack identity flows from the tuning into the cache
// key, so keys minted under different stacks never conflate.
func TestKeyCarriesStack(t *testing.T) {
	a := Args{Rank: 0, Size: 8, Data: make([]byte, 64)}
	k1 := KeyFor(&Tuning{Stack: "mpich2-nmad-ib"}, OpBcast, a, false)
	k2 := KeyFor(&Tuning{Stack: "mvapich2"}, OpBcast, a, false)
	if k1.Stack != "mpich2-nmad-ib" || k2.Stack != "mvapich2" {
		t.Fatalf("keys carry stacks %q / %q", k1.Stack, k2.Stack)
	}
	if k1 == k2 {
		t.Fatal("keys under different stacks compare equal")
	}
	if k := KeyFor(nil, OpBcast, a, false); k.Stack != "" {
		t.Fatalf("nil tuning key carries stack %q", k.Stack)
	}
}

// TestTableBeatsDefaults pins the documented precedence order
// (Force > two-level > Table > defaults): when a table covers an operation,
// selection follows the table even where the built-in size switch would
// pick otherwise, and the switch only resurfaces for operations the table
// does not cover.
func TestTableBeatsDefaults(t *testing.T) {
	tab := &Table{Stack: "s", Ops: map[string][]TableEntry{
		"bcast":     {{MaxBytes: -1, Algo: AlgoBinomial}},    // default switch says scatter-allgather at 64KB
		"allreduce": {{MaxBytes: -1, Algo: AlgoRecDoubling}}, // default switch says rabenseifner at 64KB
	}}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	tn := &Tuning{Table: tab, Stack: "s"}
	if got := tn.Select(OpBcast, 8, 64<<10, false); got != AlgoBinomial {
		t.Errorf("bcast under table = %s, want binomial (table must beat the default switch)", got)
	}
	if got := tn.Select(OpAllreduce, 8, 64<<10, false); got != AlgoRecDoubling {
		t.Errorf("allreduce under table = %s, want recursive-doubling (table must beat the default switch)", got)
	}
	// Allgather is NOT covered by this table, so the default switch applies.
	if got := tn.Select(OpAllgather, 8, 64<<10, false); got != AlgoRing {
		t.Errorf("allgather (uncovered) = %s, want ring (the default switch applies)", got)
	}
}
