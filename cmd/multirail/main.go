// Command multirail regenerates Fig. 5 (heterogeneous multirail latency and
// bandwidth) and prints the sampling tables and split ratios NewMadeleine
// derives for the configured rails (§2.2, [4]). -json instead emits the
// sampling tables and split ratios machine-readably (the CI artifact
// BENCH_multirail.json), so the striping benchmarks' rail split can be
// checked against the strategy's intended shares.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/bench"
	"repro/cluster"
	"repro/cmd/internal/cli"
	"repro/internal/nmad"
	"repro/internal/simnet"
)

// samplePoint is one entry of a rail's sampling table, JSON-shaped.
type samplePoint struct {
	Size   int     `json:"size"`
	XferUS float64 `json:"xfer_us"`
}

// railJSON is one rail's model parameters plus its sampling estimates.
type railJSON struct {
	Name        string        `json:"name"`
	LatencyNS   int64         `json:"latency_ns"`
	BytesPerSec float64       `json:"bytes_per_sec"`
	Sampling    []samplePoint `json:"sampling"`
}

// shareJSON is one rail's share of a split rendezvous payload.
type shareJSON struct {
	Rail  string  `json:"rail"`
	Bytes int     `json:"bytes"`
	Frac  float64 `json:"frac"`
}

// splitJSON is the strategy's split of one payload size across the rails.
type splitJSON struct {
	Size   int         `json:"size"`
	Shares []shareJSON `json:"shares"`
}

// doc is the BENCH_multirail.json schema.
type doc struct {
	Stack        string      `json:"stack"`
	Strategy     string      `json:"strategy"`
	RdvThreshold int         `json:"rdv_threshold"`
	Rails        []railJSON  `json:"rails"`
	Splits       []splitJSON `json:"splits"`
}

// buildDoc derives the machine-readable sampling + split report for the
// heterogeneous multirail stack. Pure parameter computation — no simulated
// traffic — so the output is trivially byte-reproducible.
func buildDoc() doc {
	stack := cluster.MPICH2NmadMulti()
	d := doc{Stack: stack.Name, Strategy: stack.Strategy.String(), RdvThreshold: stack.RdvThreshold}
	var rails []*simnet.Rail
	for i, rp := range stack.Rails {
		r := &simnet.Rail{Params: rp, ID: i}
		rails = append(rails, r)
		rj := railJSON{Name: rp.Name, LatencyNS: int64(rp.Latency), BytesPerSec: rp.BytesPerSec}
		for _, pt := range r.SampleTable() {
			rj.Sampling = append(rj.Sampling, samplePoint{Size: pt.Size, XferUS: pt.Xfer.Micros()})
		}
		d.Rails = append(d.Rails, rj)
	}
	for size := stack.RdvThreshold; size <= 64<<20; size *= 2 {
		sp := splitJSON{Size: size}
		for _, sh := range nmad.SplitPreview(stack.Strategy, rails, 0, size) {
			sp.Shares = append(sp.Shares, shareJSON{
				Rail:  stack.Rails[sh.Rail].Name,
				Bytes: sh.Len,
				Frac:  float64(sh.Len) / float64(size),
			})
		}
		d.Splits = append(d.Splits, sp)
	}
	return d
}

func main() {
	showSampling := flag.Bool("sampling", true, "print the rails' sampling estimates")
	jsonOut := flag.Bool("json", false,
		"emit the sampling tables and split ratios as JSON on stdout (BENCH_multirail.json) instead of the figures")
	flag.Parse()

	if *jsonOut {
		cli.JSON(buildDoc())
		return
	}

	if *showSampling {
		fmt.Println("# network sampling estimates (one-way transfer time)")
		fmt.Printf("%-10s %14s %14s\n", "size", "ib (us)", "mx (us)")
		ib := cluster.RailIB()
		mx := cluster.RailMX()
		for size := 1; size <= 64<<20; size *= 16 {
			fmt.Printf("%-10s %14.2f %14.2f\n", bench.SizeLabel(float64(size)),
				ib.EstimateXfer(size).Micros(), mx.EstimateXfer(size).Micros())
		}
		fmt.Println()
	}

	for _, gen := range []func() (*bench.Figure, error){bench.Fig5a, bench.Fig5b} {
		f, err := gen()
		if err != nil {
			log.Fatal(err)
		}
		f.WriteTable(os.Stdout)
		fmt.Println()
	}
}
