// Command nasbench regenerates the NAS panels of Fig. 8: per process count
// (8/9, 16, 32/36, 64), execution times of the BT, CG, EP, FT, SP, MG and LU
// class C kernels under MVAPICH2, Open MPI, MPICH2-NMad and MPICH2-NMad with
// PIOMan — plus IS, the kernel the paper could not run, now that its
// alltoallv compiles through the schedule engine (drop it from -kernels for
// the strict Fig. 8 set). Smaller classes (-class A/B/S) run much faster
// and keep the same relative shapes.
//
// -tuned runs every kernel twice — default selection vs the embedded
// per-stack calibration (tune.TableFor) — and reports the end-to-end delta,
// quantifying what the calibrated tables buy whole kernels rather than
// microbenchmarks.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/bench"
	"repro/cmd/internal/cli"
	"repro/internal/coll/tune"
	"repro/internal/nas"
	"repro/internal/trace"
)

func main() {
	classFlag := flag.String("class", "C", "problem class: S, A, B or C")
	npFlag := flag.String("np", "8,16,32,64", "comma-separated process counts")
	kernFlag := flag.String("kernels", "BT,CG,EP,FT,SP,MG,LU,IS", "kernels to run")
	tuned := flag.Bool("tuned", false,
		"also run with the embedded calibrated tuning tables installed and report the delta")
	jsonOut := flag.Bool("json", false,
		"emit JSON rows (one per kernel × stack × np, counter snapshot included) instead of the tables")
	traceOut := flag.String("trace", "",
		"write a Chrome trace of one run (first kernel, PIOMan stack, first np) to this file, plus a summary on stderr")
	flag.Parse()

	class := nas.Class((*classFlag)[0])
	var kernels []nas.Kernel
	for _, name := range strings.Split(*kernFlag, ",") {
		k, err := nas.KernelByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		kernels = append(kernels, k)
	}
	var jsonRows []bench.NASResult
	nps := cli.Ints(*npFlag, "np", 1)
	for _, np := range nps {
		res, err := bench.RunNAS(class, np, kernels, bench.NASStacks(), nil)
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut {
			jsonRows = append(jsonRows, res...)
		} else {
			bench.WriteNASTable(os.Stdout,
				fmt.Sprintf("fig8 — NAS class %c, %d processes", class, np), res)
			fmt.Println()
		}
		if *tuned {
			tres, err := bench.RunNAS(class, np, kernels, bench.NASStacks(), tune.TableFor)
			if err != nil {
				log.Fatal(err)
			}
			if *jsonOut {
				jsonRows = append(jsonRows, tres...)
			} else {
				bench.WriteNASDeltaTable(os.Stdout,
					fmt.Sprintf("calibrated tables — NAS class %c, %d processes", class, np), res, tres)
				fmt.Println()
			}
		}
	}

	if *jsonOut {
		cli.JSON(jsonRows)
	}

	if *traceOut != "" {
		tr := trace.New()
		pioStack := bench.NASStacks()[3] // MPICH2-NMad with PIOMan
		r, err := bench.RunNASKernelTraced(kernels[0], pioStack, nps[0], class, nil, tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s class %c np=%d, %s\n", r.Kernel, class, r.NP, r.Stack)
		cli.WriteTrace(*traceOut, tr)
	}
}
