// Command perfbench is the repository benchmark: it runs one seeded
// workload (storm, bulk or scale) on the public mpi API for a fixed host
// time and prints end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1), ending with one JSON line. See README.md for the workloads,
// the metrics and which layer metric should move which end-to-end metric.
//
//	go run . --workload storm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"slices"
	"time"

	"repro/mpi"
)

// minReps is the fewest repetitions a run makes whatever --seconds says:
// host metrics are medians over repetitions, and every repetition after the
// first is checked against the first for bit-identical virtual results.
const minReps = 3

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: storm, bulk or scale")
	seed := flag.Uint64("seed", 1, "seed of the op order, sizes and roots")
	seconds := flag.Float64("seconds", 10, "host seconds of repetitions to measure")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-trace", "directory for the traced run's spans and profiles")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	sp, err := specFor(*workload, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// The simulator runs one simulated proc at a time; a second P serves the
	// garbage collector. Pinning to two keeps hosts with more cores
	// comparable with the two-core machines the bounds were set on.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b := newBench(&sp, *seed)
	var res result
	if *traced == 0 {
		reps := b.repeat(*seconds, nil)
		res = b.endToEnd(reps)
	} else {
		res, err = b.traced(*seconds, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one workload instantiated for one seed.
type bench struct {
	sp    *spec
	seed  uint64
	ops   []op
	warm  []op
	probe []op
	pat   []byte
	bufs  [][]opBuf // per-rank op buffers, reused across repetitions
}

func newBench(sp *spec, seed uint64) *bench {
	ops := genOps(sp, seed)
	maxN := 0
	for _, o := range ops {
		maxN = max(maxN, o.n)
	}
	pat := make([]byte, maxN+patSpan)
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := range pat {
		pat[i] = byte(rng.Uint32())
	}
	sets := 1
	if sp.loop == loopWindow {
		sets = len(ops)
	}
	bufs := make([][]opBuf, sp.np)
	for i := range bufs {
		bufs[i] = make([]opBuf, sets)
	}
	warm := pick(sp, ops, func(c class) int { return c.warm })
	probe := pick(sp, ops, func(c class) int { return c.probe })
	return &bench{sp: sp, seed: seed, ops: ops, warm: warm, probe: probe, pat: pat, bufs: bufs}
}

// repResult is one repetition's measurements.
type repResult struct {
	// Host CPU seconds: Run entry → timed start; timed phase; whole Run;
	// Run entry → first rank body (stack build); warm-up pass. timedWall
	// is the timed phase on the wall clock, for the notes.
	setupS, timedS, runS float64
	bodyS, warmS         float64
	timedWall            float64
	timedOps             int64
	mallocs, liveBytes   uint64
	virt                 virtResult
	counters             *mpi.CounterSnapshot
	attempted, failed    int64
	errs                 []string
	calls                [nCalls]callStat
}

// virtResult is everything a repetition computes in virtual time; it must
// be bit-identical across repetitions of one seed.
type virtResult struct {
	P50, P99, Pct float64
	Samples       int
	Makespan, BW  float64
	// Overlap is the overlap ratio (comm + compute - pass 2) / min(comm,
	// compute) summed over two-pass ops; Exposed is pass 2 over comm +
	// compute (0.5 is full overlap, 1 none). With compute equal to comm,
	// Overlap = 2 - 2*Exposed.
	Overlap, Exposed float64
	Events           int64
}

// repeat runs repetitions until seconds of host time have passed (at least
// minReps). tr, when set, traces the repetitions.
func (b *bench) repeat(seconds float64, tr *tracer) []repResult {
	var reps []repResult
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		reps = append(reps, b.once(tr))
	}
	return reps
}

// once runs one repetition.
func (b *bench) once(tr *tracer) repResult {
	runtime.GC() // hand no garbage from the previous repetition to this one
	r := &rep{sp: b.sp, ops: b.ops, warm: b.warm, probe: b.probe, pat: b.pat, bufs: b.bufs}
	if tr != nil {
		tr.attach(r)
	}
	r.t0 = now()
	report, err := mpi.Run(b.sp.config(), r.main)
	t1 := now()
	if tr != nil {
		tr.detach(r, t1)
	}
	res := repResult{attempted: r.attempted, failed: r.failed, errs: r.errs, calls: r.calls}
	if err != nil {
		// A run error (deadlock, invalid configuration) fails every op of
		// the repetition.
		res.attempted = max(res.attempted, int64(b.sp.np*len(b.ops)))
		res.failed = res.attempted
		res.errs = append(res.errs, "run: "+err.Error())
		return res
	}
	res.setupS = r.tTimed0.sub(r.t0) - r.gcCPU
	res.bodyS = r.tBody.sub(r.t0)
	res.warmS = r.tTimed0.sub(r.tWarm) - r.gcCPU
	res.timedS = r.tTimed1.sub(r.tTimed0)
	res.timedWall = r.tTimed1.wall.Sub(r.tTimed0.wall).Seconds()
	res.runS = t1.sub(r.t0)
	res.timedOps = r.timedOps
	res.mallocs = r.ms1.Mallocs - r.ms0.Mallocs
	res.liveBytes = r.liveBytes
	res.counters = report.Counters()
	if cs := res.counters; cs.NbcStarted != cs.NbcCompleted {
		leaked := cs.NbcStarted - cs.NbcCompleted
		res.failed += max(leaked, -leaked)
		res.errs = append(res.errs, fmt.Sprintf("nbc ops started %d != completed %d", cs.NbcStarted, cs.NbcCompleted))
	}
	lat := slices.Clone(r.lat)
	slices.Sort(lat)
	v := &res.virt
	v.Samples = len(lat)
	v.P50 = quantile(lat, 0.5)
	// The highest percentile with at least ten samples beyond it, capped
	// at 99.
	q := min(0.99, 1-10/float64(max(len(lat), 1)))
	v.Pct = 100 * max(q, 0.5)
	v.P99 = quantile(lat, max(q, 0.5))
	v.Makespan = report.Seconds
	if d := r.vEnd - r.vStart; d > 0 {
		v.BW = float64(r.payload) / d / 1e6
	}
	if r.ovComm > 0 {
		v.Overlap = 2 - r.ovPass2/r.ovComm
		v.Exposed = r.ovPass2 / (2 * r.ovComm)
	}
	v.Events = report.Events
	return res
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianOf is the median of f over reps.
func medianOf(reps []repResult, f func(*repResult) float64) float64 {
	xs := make([]float64, len(reps))
	for i := range reps {
		xs[i] = f(&reps[i])
	}
	return median(xs)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: the contract's JSON fields plus notes
// printed above it for a human reader.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
	notes     []string
}

func (res *result) set(name string, v float64, unit string) {
	if res.Metrics == nil {
		res.Metrics = make(map[string]metric)
	}
	if _, ok := res.Metrics[name]; !ok {
		res.order = append(res.order, name)
	}
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

// check folds the repetitions' op outcomes and determinism into res: every
// repetition must reproduce the first one's virtual results and counters.
func (res *result) check(reps []repResult) {
	res.Correct = true
	for i := range reps {
		r := &reps[i]
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, e := range r.errs {
			res.notes = append(res.notes, fmt.Sprintf("rep %d: %s", i, e))
		}
		if i > 0 && r.counters != nil && reps[0].counters != nil &&
			(r.virt != reps[0].virt || !reflect.DeepEqual(r.counters, reps[0].counters)) {
			res.Failed++
			res.notes = append(res.notes, fmt.Sprintf("rep %d: virtual results differ from rep 0: %+v vs %+v", i, r.virt, reps[0].virt))
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.Attempted = max(res.Attempted, 1)
}

// endToEnd computes the end-to-end metrics of untraced repetitions.
func (b *bench) endToEnd(reps []repResult) result {
	var res result
	res.check(reps)
	v := reps[0].virt
	res.set("host_ops_per_s", medianOf(reps, func(r *repResult) float64 { return float64(r.timedOps) / r.timedS }), "ops/s")
	res.set("setup_s", medianOf(reps, func(r *repResult) float64 { return r.setupS }), "s")
	res.set("host_allocs_per_op", medianOf(reps, func(r *repResult) float64 { return float64(r.mallocs) / float64(r.timedOps) }), "allocs/op")
	res.set("host_mem_mb", minMax(reps, func(r *repResult) float64 { return float64(r.liveBytes) / 1e6 }, true), "MB")
	res.set("virt_op_us_p50", v.P50, "us")
	res.set("virt_op_us_p99", v.P99, "us")
	res.set("virt_makespan_s", v.Makespan, "s")
	res.set("virt_bw_mbps", v.BW, "MB/s")
	res.set("virt_exposed_ratio", v.Exposed, "1")
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s: %d reps, %d timed ops per rep, host_ops_per_s over reps min %.1f max %.1f",
			b.sp.name, len(reps), reps[0].timedOps,
			minMax(reps, func(r *repResult) float64 { return float64(r.timedOps) / r.timedS }, false),
			minMax(reps, func(r *repResult) float64 { return float64(r.timedOps) / r.timedS }, true)),
		fmt.Sprintf("virt_op_us_p99 is the p%.2f of %d virtual latency samples (at least 10 beyond it)", v.Pct, v.Samples),
		fmt.Sprintf("wall-clock ops/s median %.1f (host_ops_per_s counts CPU seconds)",
			medianOf(reps, func(r *repResult) float64 { return float64(r.timedOps) / r.timedWall })),
		fmt.Sprintf("overlap_ratio %.6g (= 2 - 2*virt_exposed_ratio)", v.Overlap),
		fmt.Sprintf("fail_ratio %g (%d failed of %d attempted)", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted),
		"virtual metrics are unvalidated model outputs: the repository holds no hardware reference measurements",
		"known program defect kept clear of: eager payloads are delivered by reference, so buffers are rewritten only after a Barrier and storm's allgathers never share a shape (perfbench/README.md)")
	return res
}

func minMax(reps []repResult, f func(*repResult) float64, takeMax bool) float64 {
	m := f(&reps[0])
	for i := range reps {
		if x := f(&reps[i]); (takeMax && x > m) || (!takeMax && x < m) {
			m = x
		}
	}
	return m
}

// print writes the notes and metric table, then the JSON line last. A
// metric that is not a finite number (a degenerate measurement) fails the
// run without a result line.
func (res *result) print(f *os.File) error {
	for _, n := range res.notes {
		fmt.Fprintln(f, "#", n)
	}
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Fprintf(f, "%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}
