// Command collbench sweeps the collective engine across operation × payload
// × algorithm × cache on/off and reports per-operation virtual time, host
// wall time and schedule-cache counters. It demonstrates the two wins of
// the per-communicator engine: tuned algorithm selection (the "auto" row
// tracks the best forced algorithm at every size) and schedule caching
// (compiles stay flat while iterations grow). The vector collectives
// (alltoallv, allgatherv, reducescatter) additionally sweep count skews —
// uniform, linear (zero blocks included) and sparse — so selection
// regressions on irregular layouts surface. -ops and -sizes restrict the
// grid (the CI smoke step runs only the vector ops at one size); -json
// emits machine-readable rows for the perf trajectory (BENCH_*.json).
// -stack picks the stack preset; on a multirail stack, -stripe sweeps the
// rail-stripe widths of the striped algorithms and the rows carry per-rail
// packet/byte counters, making bandwidth additivity across rails visible.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"strings"

	"repro/bench"
	"repro/cmd/internal/cli"
	"repro/internal/coll"
	"repro/internal/coll/tune"
	"repro/internal/trace"
	"repro/mpi"
)

// row is one measurement in the sweep, JSON-shaped for BENCH_*.json.
type row struct {
	Op       string  `json:"op"`
	Algo     string  `json:"algo"`
	Skew     string  `json:"skew,omitempty"`
	Seg      int     `json:"seg,omitempty"`
	Stripe   int     `json:"stripe,omitempty"`
	Bytes    int     `json:"bytes"`
	TwoLevel bool    `json:"two_level"`
	Cache    bool    `json:"cache"`
	PerOpUS  float64 `json:"per_op_us"`
	HostMS   float64 `json:"host_ms"`
	Compiles int64   `json:"compiles"`
	Hits     int64   `json:"hits"`
	// Rails is the run's per-rail traffic (one entry per rail of the
	// stack), so multirail rows show how the payload split across wires.
	Rails []mpi.RailCounter `json:"rails,omitempty"`
	// Counters is the run-wide registry snapshot (cache effectiveness
	// across all ranks, poll split, rail traffic).
	Counters *mpi.CounterSnapshot `json:"counters,omitempty"`
}

// candidates derives the forced algorithms worth sweeping for one
// operation from the tuner's flat candidate pools (the single source both
// harnesses share), plus the two-level variant where one is registered;
// AlgoAuto is always measured first as the selector's pick.
func candidates(op string) []coll.Algo {
	kind, err := bench.OpKindOf(op)
	if err != nil {
		return nil
	}
	algos := append([]coll.Algo(nil), tune.Candidates[kind]...)
	for _, r := range coll.Registrations() {
		if r.Op == kind && r.Algo == coll.AlgoTwoLevel {
			algos = append(algos, coll.AlgoTwoLevel)
		}
	}
	return algos
}

// vecSkews is the irregular-counts dimension swept for the vector ops.
var vecSkews = []string{"uniform", "linear", "sparse"}

// isVector reports whether op takes per-rank counts (and so sweeps the
// skew dimension). Resolved through OpKindOf so both the harness and the
// registry spellings get the full grid.
func isVector(op string) bool {
	kind, err := bench.OpKindOf(op)
	if err != nil {
		return false
	}
	switch kind {
	case coll.OpAlltoallv, coll.OpAllgatherv, coll.OpReduceScatter:
		return true
	}
	return false
}

func main() {
	np := flag.Int("np", 8, "number of ranks (block-placed over two nodes)")
	iters := flag.Int("iters", 10, "iterations per measurement")
	opsFlag := flag.String("ops",
		"bcast,allreduce,allgather,alltoall,alltoallv,allgatherv,reducescatter",
		"comma-separated operations to sweep")
	sizesFlag := flag.String("sizes", "256,4096,65536,524288",
		"comma-separated payload sizes in bytes")
	segFlag := flag.String("seg", "",
		"comma-separated pipeline segment sizes in bytes, swept for the segmented algorithms (empty = the calibrated/default segment size)")
	stripeFlag := flag.String("stripe", "",
		"comma-separated rail-stripe widths, swept for the rail-striped algorithms (0 = unstriped; empty = the calibrated/default width; needs a multirail -stack)")
	stackFlag := flag.String("stack", "mpich2-nmad-ib",
		"stack preset to bench (the colltune presets; mpich2-nmad-multi-mx-ib is the two-rail stack)")
	jsonOut := flag.Bool("json", false, "emit JSON rows instead of the table")
	traceOut := flag.String("trace", "",
		"write a Chrome trace of the first swept configuration (auto algorithm, cache on) to this file, plus a summary on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	sizes := cli.Ints(*sizesFlag, "size", 1)
	// The segmented algorithms sweep the -seg dimension; 0 means "whatever
	// the tuning resolves" (table seg, then the default).
	segSweep := []int{0}
	if *segFlag != "" {
		segSweep = cli.Ints(*segFlag, "segment size", 1)
	}
	// The rail-striped algorithms sweep the -stripe dimension; 0 means
	// "whatever the tuning resolves" (table stripe, then unstriped).
	stripeSweep := []int{0}
	if *stripeFlag != "" {
		stripeSweep = cli.Ints(*stripeFlag, "stripe width", 0)
	}
	ops := strings.Split(*opsFlag, ",")
	for i := range ops {
		ops[i] = strings.TrimSpace(ops[i])
	}
	stack := cli.Stack(*stackFlag)

	// Forced linear-depth rows are dropped beyond this rank count (see the
	// sweep loop); the bound keeps the default grids intact while letting
	// -np 4096 finish.
	const maxLinearNP = 512
	var skippedLinear []string

	var rows []row
	measure := func(op string, algo coll.Algo, skew string, seg, stripe, bytes int, cache bool) row {
		o := bench.CollBenchOptions{
			Op: op, Bytes: bytes, Iters: *iters, NP: *np, Skew: skew, Seg: seg, Stripe: stripe,
			TwoLevel: algo == coll.AlgoTwoLevel,
			NoCache:  !cache,
		}
		if algo != coll.AlgoAuto && algo != coll.AlgoTwoLevel {
			o.Algo = algo
		}
		r, err := bench.CollBenchOnce(stack, o)
		if err != nil {
			log.Fatalf("%s/%s/%s/seg%d/stripe%d/%dB: %v", op, algo, skew, seg, stripe, bytes, err)
		}
		return row{Op: op, Algo: algo.String(), Skew: skew, Seg: seg, Stripe: stripe, Bytes: bytes,
			TwoLevel: algo == coll.AlgoTwoLevel, Cache: cache,
			PerOpUS: r.PerOp * 1e6, HostMS: r.HostMS,
			Compiles: r.Compiles, Hits: r.Hits, Rails: r.Counters.Rails, Counters: r.Counters}
	}

	if *traceOut != "" {
		op := ops[0]
		skew := ""
		if isVector(op) {
			skew = vecSkews[0]
		}
		tr := trace.New()
		o := bench.CollBenchOptions{
			Op: op, Bytes: sizes[0], Iters: *iters, NP: *np, Skew: skew, Trace: tr,
		}
		if _, err := bench.CollBenchOnce(stack, o); err != nil {
			log.Fatalf("traced %s/%dB: %v", op, sizes[0], err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s, %dB, auto, cache on\n", op, sizes[0])
		cli.WriteTrace(*traceOut, tr)
	}

	for _, op := range ops {
		skews := []string{""}
		if isVector(op) {
			skews = vecSkews
		}
		for _, bytes := range sizes {
			for _, skew := range skews {
				rows = append(rows, measure(op, coll.AlgoAuto, skew, 0, 0, bytes, true))
				rows = append(rows, measure(op, coll.AlgoAuto, skew, 0, 0, bytes, false))
				for _, algo := range candidates(op) {
					// Skip forced picks the builder would silently replace
					// at this rank count — they duplicate another row under
					// a misleading label.
					if kind, err := bench.OpKindOf(op); err == nil && coll.FallsBack(kind, algo, *np) {
						continue
					}
					// Linear-depth algorithms (rings, chains, pairwise) run
					// O(NP) rounds per rank — forcing one at NP in the
					// thousands is O(NP²) simulation work for a row nobody
					// would select there. The auto rows still cover them
					// wherever the selector genuinely picks one.
					if *np > maxLinearNP && coll.LinearDepth(algo) {
						skippedLinear = append(skippedLinear, op+"/"+algo.String())
						continue
					}
					segs := []int{0}
					if coll.Segmented(algo) {
						segs = segSweep
					}
					strs := []int{0}
					if kind, err := bench.OpKindOf(op); err == nil && coll.Striped(kind, algo) {
						strs = stripeSweep
					}
					for _, seg := range segs {
						for _, stripe := range strs {
							rows = append(rows, measure(op, algo, skew, seg, stripe, bytes, true))
						}
					}
				}
			}
		}
	}

	if len(skippedLinear) > 0 {
		fmt.Fprintf(os.Stderr, "collbench: np=%d > %d: skipped forcing linear-depth algorithms: %s\n",
			*np, maxLinearNP, strings.Join(skippedLinear, ", "))
	}

	if *jsonOut {
		cli.JSON(rows)
		return
	}

	fmt.Printf("collective engine sweep (np=%d, %s, block placement, %d iters)\n\n",
		*np, stack.Name, *iters)
	fmt.Printf("%-14s %-18s %-8s %-10s %-6s %12s %10s %9s/%-5s\n",
		"op", "algo", "skew", "size", "cache", "per-op", "host", "compiles", "hits")
	autoBest := 0.0
	for _, r := range rows {
		cacheLbl := "on"
		if !r.Cache {
			cacheLbl = "off"
		}
		marker := ""
		if r.Algo == "auto" && r.Cache {
			autoBest = r.PerOpUS
		} else if r.Cache && r.PerOpUS < autoBest {
			marker = "  << beats auto"
		}
		skew := r.Skew
		if skew == "" {
			skew = "-"
		}
		algoLbl := r.Algo
		if r.Seg > 0 {
			algoLbl += "/" + bench.SizeLabel(float64(r.Seg))
		}
		if r.Stripe > 0 {
			algoLbl += fmt.Sprintf("/x%d", r.Stripe)
		}
		fmt.Printf("%-14s %-18s %-8s %-10s %-6s %10.1fµs %8.0fms %9d/%-5d%s\n",
			r.Op, algoLbl, skew, bench.SizeLabel(float64(r.Bytes)), cacheLbl,
			r.PerOpUS, r.HostMS, r.Compiles, r.Hits, marker)
	}
	fmt.Println("\ncache=on rows compile a plan once and bind it per call; cache=off rows recompile;")
	fmt.Println("virtual per-op time is identical either way (determinism guarantee) — the")
	fmt.Println("cache buys host time and allocation churn, the selector buys virtual time.")
}
