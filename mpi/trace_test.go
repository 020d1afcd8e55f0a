package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/cluster"
	"repro/internal/topo"
	"repro/internal/trace"
)

// tracedWorkload exercises most instrumented paths: blocking and
// nonblocking collectives (cache hits included), point-to-point, compute
// and a user mark.
func tracedWorkload(c *Comm) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(c.Rank() + i)
	}
	c.Barrier()
	c.Mark("iter:start")
	c.AllreduceF64(x, OpSum)
	q := c.IallreduceF64(x, OpSum)
	c.Compute(100e-6)
	c.Wait(q)
	c.AllreduceF64(x, OpSum) // cache hit
	if c.Rank() == 0 {
		c.Send(1, 5, make([]byte, 4096))
	} else if c.Rank() == 1 {
		c.Recv(0, 5, make([]byte, 4096))
	}
	c.Mark("iter:end")
	c.Barrier()
}

// runTraced runs the workload on np ranks of the PIOMan stack with a fresh
// trace and returns the trace and report.
func runTraced(t *testing.T, np int) (*trace.Trace, *Report) {
	t.Helper()
	tr := trace.New()
	cfg := xeonCfg(np, cluster.MPICH2NmadIB().WithPIOMan(true))
	cfg.Placement = topo.RoundRobin(np, cluster.Xeon2().NumNodes)
	cfg.Trace = tr
	rep, err := Run(cfg, tracedWorkload)
	if err != nil {
		t.Fatal(err)
	}
	return tr, rep
}

// TestTraceDeterminism: two identical traced runs export byte-identical
// Chrome traces — the end-to-end determinism guarantee of the tracing layer.
func TestTraceDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	ta, _ := runTraced(t, 4)
	if err := trace.WriteChrome(&a, ta); err != nil {
		t.Fatal(err)
	}
	tb, _ := runTraced(t, 4)
	if err := trace.WriteChrome(&b, tb); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical runs exported different trace bytes")
	}
}

// TestTraceNeutrality: recording a trace never charges virtual time, so a
// traced and an untraced run finish at the bit-identical virtual instant,
// across progress regimes.
func TestTraceNeutrality(t *testing.T) {
	for _, stack := range []cluster.Stack{
		cluster.MPICH2NmadIB(),
		cluster.MPICH2NmadIB().WithPIOMan(true),
		cluster.MVAPICH2(),
	} {
		stack := stack
		t.Run(stack.Name, func(t *testing.T) {
			run := func(tr *trace.Trace) float64 {
				cfg := xeonCfg(4, stack)
				cfg.Placement = topo.RoundRobin(4, cluster.Xeon2().NumNodes)
				cfg.Trace = tr
				rep, err := Run(cfg, tracedWorkload)
				if err != nil {
					t.Fatal(err)
				}
				return rep.Seconds
			}
			plain := run(nil)
			traced := run(trace.New())
			if plain != traced {
				t.Fatalf("tracing perturbed the run: %v (off) != %v (on)", plain, traced)
			}
		})
	}
}

// TestTraceReuseRejected: binding one Trace to a second run fails instead
// of interleaving two engines' timestamps.
func TestTraceReuseRejected(t *testing.T) {
	tr := trace.New()
	cfg := xeonCfg(2, cluster.MPICH2NmadIB())
	cfg.Trace = tr
	if _, err := Run(cfg, func(c *Comm) { c.Barrier() }); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, func(c *Comm) { c.Barrier() }); err == nil {
		t.Fatal("reusing a bound trace did not error")
	}
}

// TestTraceThreadAttribution: under PIOMan the trace distinguishes the
// application thread from the background progress thread, and the
// background track actually carries progress work.
func TestTraceThreadAttribution(t *testing.T) {
	tr, _ := runTraced(t, 2)
	byTid := map[int]int{}
	sweeps := 0
	for _, ev := range tr.Events() {
		byTid[ev.Tid]++
		if ev.Cat == "pioman" && ev.Name == "sweep" && ev.Ph == 'B' {
			if ev.Tid != trace.TidPioman {
				t.Fatalf("sweep span on tid %d, want %d", ev.Tid, trace.TidPioman)
			}
			sweeps++
		}
	}
	if byTid[trace.TidApp] == 0 || byTid[trace.TidPioman] == 0 {
		t.Fatalf("missing thread tracks: app=%d pioman=%d", byTid[trace.TidApp], byTid[trace.TidPioman])
	}
	if sweeps == 0 {
		t.Fatal("no background sweep spans recorded under PIOMan")
	}
}

// TestTraceSpansBalanced: every rank/tid's B/E spans nest and close — the
// invariant viewers rely on to build flame graphs.
func TestTraceSpansBalanced(t *testing.T) {
	tr, _ := runTraced(t, 4)
	depth := map[[2]int]int{}
	for _, ev := range tr.Events() {
		key := [2]int{ev.Rank, ev.Tid}
		switch ev.Ph {
		case 'B':
			depth[key]++
		case 'E':
			depth[key]--
			if depth[key] < 0 {
				t.Fatalf("unbalanced E on rank %d tid %d", ev.Rank, ev.Tid)
			}
		}
	}
	for key, d := range depth {
		if d != 0 {
			t.Fatalf("rank %d tid %d left %d spans open", key[0], key[1], d)
		}
	}
}

// TestReportCounters: the registry-backed snapshot agrees with the
// per-communicator compat views and carries the rail traffic.
func TestReportCounters(t *testing.T) {
	var compiles, hits int64
	tr := trace.New()
	cfg := xeonCfg(2, cluster.MPICH2NmadIB().WithPIOMan(true))
	cfg.Placement = topo.RoundRobin(2, cluster.Xeon2().NumNodes)
	cfg.Trace = tr
	rep, err := Run(cfg, func(c *Comm) {
		tracedWorkload(c)
		if c.Rank() == 0 {
			compiles, hits = c.SchedCacheStats()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := rep.Counters()
	if cs.SchedCompiles == 0 || cs.SchedHits == 0 {
		t.Fatalf("cache counters empty: %+v", cs)
	}
	// The registry sums all ranks; the compat view is rank 0 only, read
	// before Run's implicit final Barrier (one more cache hit per rank).
	// Ranks run the same collective sequence, so totals are np × rank 0's.
	if cs.SchedCompiles != 2*compiles || cs.SchedHits != 2*(hits+1) {
		t.Fatalf("registry (%d/%d) disagrees with 2× per-comm stats (%d/%d+1)",
			cs.SchedCompiles, cs.SchedHits, compiles, hits)
	}
	if cs.CacheHitRate <= 0 || cs.CacheHitRate >= 1 {
		t.Fatalf("cache hit rate %v out of (0,1)", cs.CacheHitRate)
	}
	if cs.BgPolls == 0 {
		t.Fatal("no background polls under PIOMan")
	}
	// Blocking collectives run on the nbc engine too: per rank three
	// Barriers (Run's implicit final one included), two AllreduceF64 and
	// one IallreduceF64.
	if cs.NbcStarted != 12 || cs.NbcCompleted != 12 {
		t.Fatalf("nbc counters %d/%d, want 12/12", cs.NbcStarted, cs.NbcCompleted)
	}
	if len(cs.Rails) == 0 {
		t.Fatal("no rail counters")
	}
	var bytes int64
	for _, r := range cs.Rails {
		bytes += r.Bytes
	}
	if bytes == 0 {
		t.Fatal("rail counters carry no traffic")
	}
	// Rail counters are mirrored into the run-level registry for Summarize.
	if got := rep.Metrics.Total(trace.RailBytesCtr(cs.Rails[0].Name)); got != cs.Rails[0].Bytes {
		t.Fatalf("run registry rail bytes %d != report %d", got, cs.Rails[0].Bytes)
	}
}

// TestTraceSummary: Summarize folds the traced run into consistent
// aggregates — round timings for executed algorithms and a nonzero overlap
// attribution for the compute-while-nbc window.
func TestTraceSummary(t *testing.T) {
	tr, _ := runTraced(t, 2)
	s := trace.Summarize(tr)
	if s.Events == 0 || s.Ranks != 2 {
		t.Fatalf("summary shape wrong: %d events, %d ranks", s.Events, s.Ranks)
	}
	if len(s.RoundTimings) == 0 {
		t.Fatal("no round timings aggregated")
	}
	for _, rt := range s.RoundTimings {
		if rt.Rounds <= 0 || rt.TotalUS < 0 {
			t.Fatalf("bad round timing %+v", rt)
		}
	}
	if len(s.Overlap) != 2 {
		t.Fatalf("overlap attribution for %d ranks, want 2", len(s.Overlap))
	}
	for _, o := range s.Overlap {
		if o.ComputeUS <= 0 {
			t.Fatalf("rank %d has no compute time", o.Rank)
		}
		if o.OverlapUS > o.ComputeUS || o.OverlapUS > o.NbcUS {
			t.Fatalf("overlap exceeds its parts: %+v", o)
		}
		if o.OverlapUS <= 0 {
			t.Fatalf("rank %d: compute ran alongside an in-flight collective but overlap is 0", o.Rank)
		}
	}
	if summaryCounter(s, trace.CtrSchedHits) == 0 || summaryCounter(s, trace.CtrBgPolls) == 0 {
		t.Fatalf("summary counters empty: %v", s.Counters)
	}
}

// summaryCounter looks one name up in the summary's counter list.
func summaryCounter(s *trace.Summary, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return -1
}

// TestTraceSummaryText: the summary's text rendering lists the round
// timings, the per-rank overlap rows and every counter, and its counter
// list agrees with the report's typed snapshot — both views read the one
// run registry.
func TestTraceSummaryText(t *testing.T) {
	tr, rep := runTraced(t, 2)
	s := trace.Summarize(tr)
	var buf bytes.Buffer
	s.WriteText(&buf)
	text := buf.String()
	if len(s.RoundTimings) == 0 || len(s.Overlap) == 0 || len(s.Counters) == 0 {
		t.Fatalf("summary sections empty: %d rounds, %d overlap, %d counters",
			len(s.RoundTimings), len(s.Overlap), len(s.Counters))
	}
	for _, rt := range s.RoundTimings {
		if !strings.Contains(text, rt.Name) {
			t.Errorf("text lacks round timing %q", rt.Name)
		}
	}
	for _, o := range s.Overlap {
		if !strings.Contains(text, fmt.Sprintf("rank %-3d compute", o.Rank)) {
			t.Errorf("text lacks the overlap row of rank %d", o.Rank)
		}
	}
	for _, c := range s.Counters {
		if !strings.Contains(text, fmt.Sprintf("%-32s %d\n", c.Name, c.Value)) {
			t.Errorf("text lacks counter %s = %d", c.Name, c.Value)
		}
	}
	cs := rep.Counters()
	for _, want := range []struct {
		name string
		v    int64
	}{
		{trace.CtrSchedCompiles, cs.SchedCompiles},
		{trace.CtrSchedHits, cs.SchedHits},
		{trace.CtrBgPolls, cs.BgPolls},
		{trace.CtrNbcStarted, cs.NbcStarted},
	} {
		if want.v == 0 {
			t.Errorf("snapshot %s is 0; the workload should exercise it", want.name)
		}
		if got := summaryCounter(s, want.name); got != want.v {
			t.Errorf("summary %s = %d, snapshot says %d", want.name, got, want.v)
		}
	}
}
