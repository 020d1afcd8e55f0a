package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/cluster"
	"repro/internal/topo"
	"repro/mpi"
)

// TestDeterminism runs every workload twice at a tiny size with one seed:
// the virtual results and the deterministic counts (events, schedule
// compiles and hits, per-rail packets and bytes, pool traffic) must be
// bit-identical, and every op must pass its output check.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"storm", "bulk", "scale"} {
		t.Run(name, func(t *testing.T) {
			sp, err := specFor(name, true)
			if err != nil {
				t.Fatal(err)
			}
			b := newBench(&sp, 7)
			a, c := b.once(nil), b.once(nil)
			for _, r := range []repResult{a, c} {
				if r.failed != 0 || r.counters == nil {
					t.Fatalf("%d of %d ops failed: %v", r.failed, r.attempted, r.errs)
				}
			}
			if a.virt != c.virt {
				t.Errorf("virtual results differ:\n%+v\n%+v", a.virt, c.virt)
			}
			if !reflect.DeepEqual(a.counters, c.counters) {
				t.Errorf("counters differ:\n%+v\n%+v", a.counters, c.counters)
			}
			if a.virt.Events == 0 || a.counters.SchedCompiles == 0 || len(a.counters.Rails) == 0 {
				t.Errorf("counts missing: %+v %+v", a.virt, a.counters)
			}
		})
	}
}

// TestSeedsPermuteEqualQuotas checks that two seeds draw different op lists
// with the same per-class quota.
func TestSeedsPermuteEqualQuotas(t *testing.T) {
	for _, name := range []string{"storm", "bulk", "scale"} {
		sp, err := specFor(name, false)
		if err != nil {
			t.Fatal(err)
		}
		a, b := genOps(&sp, 1), genOps(&sp, 2)
		if slices.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 drew the same op list", name)
		}
		if !slices.Equal(a, genOps(&sp, 1)) {
			t.Errorf("%s: seed 1 drew two different op lists", name)
		}
		count := func(ops []op) []int {
			n := make([]int, len(sp.classes))
			for _, o := range ops {
				n[o.class]++
			}
			return n
		}
		for ci, c := range sp.classes {
			if ca, cb := count(a)[ci], count(b)[ci]; ca != c.count || cb != c.count {
				t.Errorf("%s class %s: %d and %d ops, quota %d", name, c.name, ca, cb, c.count)
			}
		}
		for _, o := range a {
			c := sp.classes[o.class]
			if c.hi > 0 && (o.n < c.lo&^7 || o.n > c.hi) {
				t.Errorf("%s class %s: size %d outside [%d, %d]", name, c.name, o.n, c.lo, c.hi)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/vtime.(*Engine).Run":         "vtime",
		"repro/internal/coll/tune.TableFor":          "coll",
		"repro/mpi.(*Comm).Wait":                     "mpi",
		"repro/cluster.Xeon2":                        "other",
		"repro/internal/nbc.(*Engine).start.func1":   "nbc",
		"repro/internal/trace.(*Counter).Add":        "trace",
		"repro/internal/pioman.(*Manager).WaitUntil": "pioman",
	} {
		if got, ok := layerOf(fn); !ok || got != want {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "main.(*rank).begin", "bytes.Equal"} {
		if _, ok := layerOf(fn); ok {
			t.Errorf("layerOf(%q) claims a program layer", fn)
		}
	}
}

// TestSendBufferReusableAfterWait pins the program defect the workloads'
// buffer discipline keeps clear of (README.md, "Known defect"): MPI lets a
// sender write its buffer again once the send completed, but the program
// delivers eager payloads by reference, so the write changes what the peer
// receives. This test fails until the program copies eager payloads (or
// delays send completion until delivery).
func TestSendBufferReusableAfterWait(t *testing.T) {
	cfg := mpi.Config{Cluster: cluster.Xeon2(), Stack: cluster.MPICH2NmadIB(), NP: 2,
		Placement: topo.RoundRobin(2, 2)}
	want := bytes.Repeat([]byte{0xab}, 1024)
	var got []byte
	_, err := mpi.Run(cfg, func(c *mpi.Comm) {
		buf := make([]byte, len(want))
		if c.Rank() == 0 {
			copy(buf, want)
			c.Send(1, 0, buf)
			clear(buf) // legal: the send completed
			c.Barrier()
			return
		}
		c.Barrier()
		c.Recv(0, 0, buf)
		got = buf
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("receiver got %x..., want %x...: the sender's write after Send returned reached the receiver", got[:4], want[:4])
	}
}

// TestInFlightSameShapeAllgather is the second face of the same defect:
// storm with every Iallgather of one shape. Same-shape ops rebind one cached
// Bruck schedule, whose send scratch the next start rewrites while the
// previous op's eager message is still in flight, so peers receive a later
// op's blocks. Fails until the program copies eager payloads.
func TestInFlightSameShapeAllgather(t *testing.T) {
	sp, err := specFor("storm", false)
	if err != nil {
		t.Fatal(err)
	}
	sp.classes[2].pool = []int{9}
	r := newBench(&sp, 1).once(nil)
	if r.failed != 0 {
		t.Errorf("%d of %d ops failed, e.g. %v", r.failed, r.attempted, r.errs[0])
	}
}

// TestMetricsMatchBenchmarkJSON checks that an untraced run prints exactly
// the end-to-end metrics and a traced run exactly the per-layer metrics that
// BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	sp, err := specFor("storm", true)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(&sp, 1)
	e2e := b.endToEnd(b.repeat(0, nil))
	traced, err := b.traced(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		res  result
		decl []struct{ Name, Unit string }
	}{{e2e, decl.EndToEnd}, {traced, decl.PerLayer}} {
		if !c.res.Correct || len(c.res.Metrics) != len(c.decl) {
			t.Errorf("correct %v, %d metrics, %d declared", c.res.Correct, len(c.res.Metrics), len(c.decl))
		}
		for _, d := range c.decl {
			if m, ok := c.res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("metric %s: got %+v (present %v), declared unit %q", d.Name, m, ok, d.Unit)
			}
		}
	}
}
