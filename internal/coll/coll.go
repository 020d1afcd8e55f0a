// Package coll implements the collective algorithms the NAS kernels and the
// benchmark harnesses need, expressed as per-rank schedules of rounds that
// the internal/nbc engine executes (schedule.go).
// The algorithm set spans the classic MPICH2 latency-optimal choices
// (dissemination barrier, binomial broadcast/reduce, recursive-doubling
// allreduce, ring allgather, pairwise-exchange alltoall), their
// bandwidth-optimal large-message counterparts (van de Geijn
// scatter-allgather broadcast, Rabenseifner allreduce, Bruck allgather) and
// topology-aware two-level variants. A registry plus size/topology-based
// selector (registry.go, see README.md for the table) picks per invocation.
// A compiled schedule is an immutable plan over region references; each
// execution binds its own buffers (Binding), so the mpi layer's
// per-communicator cache shares one plan among every same-shape op.
package coll

import (
	"encoding/binary"
	"math"
)

// Op is a reduction operator over float64 values applied elementwise.
type Op func(acc, in float64) float64

// Standard operators.
var (
	OpSum Op = func(a, b float64) float64 { return a + b }
	OpMax Op = func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	}
	OpMin Op = func(a, b float64) float64 {
		if b < a {
			return b
		}
		return a
	}
)

// F64Bytes encodes a float64 vector for the wire.
func F64Bytes(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// BytesF64 decodes len(dst) float64 values from b into dst.
func BytesF64(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
