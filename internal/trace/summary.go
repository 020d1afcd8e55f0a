package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/vtime"
)

// Summary condenses one traced run into what only the event stream can
// tell: how long each collective algorithm's rounds ran and how much
// computation actually overlapped in-flight nonblocking collectives. The
// run's counters (poll split, schedule cache, pools, rail traffic) ride
// along as the registry's own sorted list; mpi.CounterSnapshot is their
// typed view. JSON-marshalling the struct is deterministic (fixed fields
// and sorted slices only).
type Summary struct {
	Events int `json:"events"`
	Ranks  int `json:"ranks"`

	// RoundTimings aggregates the per-round slices (ph X, cat "round") by
	// op/algorithm name, sorted by name.
	RoundTimings []RoundTiming `json:"round_timings,omitempty"`

	// Overlap attributes, per rank, how much Compute time ran while a
	// nonblocking collective was in flight — the trace-derived counterpart
	// of bench.NbcOverlapOnce's end-to-end ratio.
	Overlap []RankOverlap `json:"overlap,omitempty"`

	// Counters is the full sorted counter snapshot (rank totals plus the
	// run-level registry: rail traffic lives here).
	Counters []NamedValue `json:"counters,omitempty"`
}

// RoundTiming aggregates one op/algorithm's executed rounds.
type RoundTiming struct {
	Name    string  `json:"name"`
	Rounds  int     `json:"rounds"`
	TotalUS float64 `json:"total_us"`
	MeanUS  float64 `json:"mean_us"`
}

// RankOverlap is one rank's compute/collective concurrency attribution.
type RankOverlap struct {
	Rank int `json:"rank"`
	// ComputeUS is total Compute-span time; NbcUS total async-collective
	// in-flight time; OverlapUS the intersection of the two interval sets.
	ComputeUS float64 `json:"compute_us"`
	NbcUS     float64 `json:"nbc_us"`
	OverlapUS float64 `json:"overlap_us"`
}

type ival struct{ lo, hi int64 }

// Summarize folds a bound trace (and its attached metrics) into a Summary.
func Summarize(t *Trace) *Summary {
	s := &Summary{Events: len(t.events), Ranks: t.np, Counters: t.metrics.Totals()}

	// Round slices by name.
	type agg struct {
		n   int
		tot vtime.Duration
	}
	rounds := make(map[string]*agg)
	// Interval sets per rank for the overlap attribution.
	compute := make(map[int][]ival)
	nbcOpen := make(map[int64]int64) // async id -> begin ns
	nbc := make(map[int][]ival)
	computeOpen := make(map[int]int64) // rank -> Compute begin ns (depth-1: Compute never nests)
	computeDepth := make(map[int]int)  // span nesting depth inside an open Compute

	for i := range t.events {
		ev := &t.events[i]
		switch {
		case ev.Ph == 'X' && ev.Cat == "round":
			a := rounds[ev.Name]
			if a == nil {
				a = &agg{}
				rounds[ev.Name] = a
			}
			a.n++
			a.tot += ev.Dur
		case ev.Ph == 'B' && ev.Cat == "mpi" && ev.Name == "Compute":
			computeOpen[ev.Rank] = int64(ev.Ts)
			computeDepth[ev.Rank] = 1
		case ev.Ph == 'B' && ev.Tid == TidApp:
			if computeDepth[ev.Rank] > 0 {
				computeDepth[ev.Rank]++
			}
		case ev.Ph == 'E' && ev.Tid == TidApp:
			if d := computeDepth[ev.Rank]; d > 0 {
				computeDepth[ev.Rank] = d - 1
				if d == 1 {
					compute[ev.Rank] = append(compute[ev.Rank],
						ival{computeOpen[ev.Rank], int64(ev.Ts)})
				}
			}
		case ev.Ph == 'b' && ev.Cat == "nbc":
			nbcOpen[ev.ID] = int64(ev.Ts)
		case ev.Ph == 'e' && ev.Cat == "nbc":
			if lo, ok := nbcOpen[ev.ID]; ok {
				delete(nbcOpen, ev.ID)
				nbc[ev.Rank] = append(nbc[ev.Rank], ival{lo, int64(ev.Ts)})
			}
		}
	}

	for name, a := range rounds {
		rt := RoundTiming{Name: name, Rounds: a.n, TotalUS: a.tot.Micros()}
		rt.MeanUS = rt.TotalUS / float64(a.n)
		s.RoundTimings = append(s.RoundTimings, rt)
	}
	sort.Slice(s.RoundTimings, func(i, j int) bool {
		return s.RoundTimings[i].Name < s.RoundTimings[j].Name
	})

	for rank := 0; rank < t.np; rank++ {
		cs, ns := compute[rank], nbc[rank]
		if cs == nil && ns == nil {
			continue
		}
		ro := RankOverlap{Rank: rank,
			ComputeUS: sumIvals(cs), NbcUS: sumIvals(ns),
			OverlapUS: intersectIvals(cs, ns)}
		s.Overlap = append(s.Overlap, ro)
	}
	return s
}

// sumIvals totals an interval set, in microseconds.
func sumIvals(xs []ival) float64 {
	var t int64
	for _, x := range xs {
		t += x.hi - x.lo
	}
	return float64(t) / 1e3
}

// intersectIvals returns the total intersection of two interval sets in
// microseconds. Sets come out of one rank's ordered event stream, so both
// are sorted; intervals within one set may touch but not overlap.
func intersectIvals(a, b []ival) float64 {
	var t int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].lo, a[i].hi
		if b[j].lo > lo {
			lo = b[j].lo
		}
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			t += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return float64(t) / 1e3
}

// WriteText renders the summary human-readably.
func (s *Summary) WriteText(w io.Writer) {
	fmt.Fprintf(w, "trace summary: %d events over %d ranks\n", s.Events, s.Ranks)
	if len(s.RoundTimings) > 0 {
		fmt.Fprintf(w, "  round timings:\n")
		for _, rt := range s.RoundTimings {
			fmt.Fprintf(w, "    %-32s %5d rounds %10.1fµs total %8.2fµs mean\n",
				rt.Name, rt.Rounds, rt.TotalUS, rt.MeanUS)
		}
	}
	if len(s.Overlap) > 0 {
		fmt.Fprintf(w, "  overlap attribution (compute ∩ in-flight collectives):\n")
		for _, o := range s.Overlap {
			fmt.Fprintf(w, "    rank %-3d compute %9.1fµs  nbc %9.1fµs  overlapped %9.1fµs\n",
				o.Rank, o.ComputeUS, o.NbcUS, o.OverlapUS)
		}
	}
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "  counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(w, "    %-32s %d\n", c.Name, c.Value)
		}
	}
}
