// Command nbcoverlap measures how much of a nonblocking collective a stack
// hides behind computation: every rank starts the collective (-op selects
// IallreduceF64, or the vector ops Ialltoallv / Iallgatherv /
// IreduceScatterF64 on a linear-skew irregular layout), computes, then
// waits, and the total is compared with the blocking sequence. The overlap ratio is
// the fraction of the hideable time (min of collective, compute) actually
// hidden. With PIOMan the schedule engine advances collective rounds on the
// background progress thread, so the ratio climbs; without it the rounds
// only move inside MPI calls and the ratio stays near zero. -json emits
// machine-readable rows for the perf trajectory (BENCH_*.json).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/bench"
	"repro/cluster"
	"repro/cmd/internal/cli"
	"repro/internal/trace"
)

// row is one measurement, JSON-shaped for BENCH_*.json.
type row struct {
	Op            string  `json:"op"`
	Bytes         int     `json:"bytes"`
	PIOMan        bool    `json:"pioman"`
	CommUS        float64 `json:"comm_us"`
	BlockingUS    float64 `json:"blocking_us"`
	NonblockingUS float64 `json:"nonblocking_us"`
	OverlapRatio  float64 `json:"overlap_ratio"`
}

func main() {
	opFlag := flag.String("op", "allreduce",
		"collective to overlap: allreduce, alltoallv, allgatherv, reducescatter")
	computeUS := flag.Float64("compute", 300, "injected computation in µs")
	iters := flag.Int("iters", 5, "iterations per measurement")
	np := flag.Int("np", 2, "number of ranks")
	jsonOut := flag.Bool("json", false, "emit JSON rows instead of the table")
	traceOut := flag.String("trace", "",
		"write a Chrome trace (chrome://tracing / Perfetto) of one traced run (PIOMan on, 32KB) to this file, plus a summary and measured-vs-trace-derived cross-check on stderr")
	flag.Parse()

	elemSizes := []int{512, 4 << 10, 32 << 10, 128 << 10} // 4K .. 1MB payloads
	base := cluster.MPICH2NmadIB()
	o := bench.NbcOverlapOptions{Op: *opFlag, ComputeUS: *computeUS, Iters: *iters, NP: *np}

	if !*jsonOut {
		fmt.Printf("nonblocking %s + %gµs compute + Wait vs blocking sequence (np=%d, %s)\n\n",
			*opFlag, *computeUS, *np, base.Name)
		fmt.Printf("%-10s %14s %14s %14s %10s %10s\n",
			"size", "comm alone", "blocking seq", "nonblocking", "overlap", "pioman")
	}

	var rows []row
	wins := 0
	for _, elems := range elemSizes {
		oo := o
		oo.Elems = elems
		var ratios [2]float64
		for i, stack := range []cluster.Stack{base, base.WithPIOMan(true)} {
			r, err := bench.NbcOverlapOnce(stack, oo)
			if err != nil {
				log.Fatal(err)
			}
			ratios[i] = r.OverlapRatio()
			rows = append(rows, row{
				Op: *opFlag, Bytes: 8 * elems, PIOMan: i == 1,
				CommUS: r.CommOnly * 1e6, BlockingUS: r.Blocking * 1e6,
				NonblockingUS: r.Nonblocking * 1e6, OverlapRatio: r.OverlapRatio(),
			})
			if !*jsonOut {
				pio := "off"
				if i == 1 {
					pio = "on"
				}
				fmt.Printf("%-10s %12.1fµs %12.1fµs %12.1fµs %9.0f%% %10s\n",
					bench.SizeLabel(float64(8*elems)), r.CommOnly*1e6, r.Blocking*1e6,
					r.Nonblocking*1e6, 100*r.OverlapRatio(), pio)
			}
		}
		if ratios[1] > ratios[0] {
			wins++
		}
		if !*jsonOut {
			fmt.Println()
		}
	}

	if *jsonOut {
		cli.JSON(rows)
	}
	if wins == 0 {
		fmt.Fprintln(os.Stderr, "RESULT: PIOMan never improved the overlap ratio — progression is broken")
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Printf("RESULT: PIOMan strictly improves the overlap ratio on %d of %d size regimes\n",
			wins, len(elemSizes))
	}

	if *traceOut != "" {
		writeTrace(*traceOut, base, o)
	}
}

// writeTrace re-runs the PIOMan-on 32KB configuration with event tracing
// attached, writes the Chrome trace, prints the summary, and cross-checks
// the trace-derived overlap ratio against the benchmark's own measurement
// (the two bracket the same virtual-time windows, so they must agree).
func writeTrace(path string, base cluster.Stack, o bench.NbcOverlapOptions) {
	tr := trace.New()
	oo := o
	oo.Elems = 4096 // 32 KB payload
	oo.Trace = tr
	r, err := bench.NbcOverlapOnce(base.WithPIOMan(true), oo)
	if err != nil {
		log.Fatal(err)
	}
	tres, err := bench.OverlapFromTrace(tr, oo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr)
	cli.WriteTrace(path, tr)
	fmt.Fprintf(os.Stderr, "overlap cross-check: measured %.2f%%, trace-derived %.2f%%\n",
		100*r.OverlapRatio(), 100*tres.OverlapRatio())
	if d := r.OverlapRatio() - tres.OverlapRatio(); d > 0.01 || d < -0.01 {
		fmt.Fprintln(os.Stderr, "RESULT: trace-derived overlap diverges from the measured ratio")
		os.Exit(1)
	}
}
