package nas

import (
	"sort"

	"repro/mpi"
)

// effOpsIS calibrates IS class C near the published ~15 s at 8 processes.
const effOpsIS = 2.3e11

// IS is the integer-sort kernel. The paper's evaluation OMITS IS because
// MPICH2-NewMadeleine lacked datatype support (§4.2); this implementation is
// an *extension* beyond the paper's Fig. 8 set: with the vector collectives
// on the schedule engine (Comm.AlltoallvBytes compiles through
// internal/coll like every other collective, with per-communicator schedule
// caching) the kernel is a first-class member of Kernels() and
// cmd/nasbench.
//
// Structure per iteration (NPB IS): local bucket counting, an allreduce of
// the bucket histogram, an alltoall of per-destination counts, an
// alltoallv redistributing the real scaled-down keys, and an engine
// alltoall carrying the class-size exchange volume. Every collective runs
// on the schedule engine — no hand-rolled point-to-point loops remain. The
// key array is checked for global sortedness at the end.
func IS() Kernel {
	return Kernel{
		Name:     "IS",
		ValidNP:  isPow2,
		AdjustNP: pow2Below,
		Run: func(c *mpi.Comm, class Class) Result {
			np := c.Size()
			rank := c.Rank()

			totalKeys := 1 << 27 // class C
			switch class {
			case ClassS:
				totalKeys = 1 << 12
			case ClassA:
				totalKeys = 1 << 23
			case ClassB:
				totalKeys = 1 << 25
			}
			keysPer := totalKeys / np
			niter := 10
			if class == ClassS {
				niter = 3
			}
			opsPerIter := effOpsCGClass(class, effOpsIS) / float64(niter)

			// Real scaled key set: deterministic per-rank keys.
			const realKeys = 1 << 10
			keys := make([]int, realKeys)
			seed := uint32(rank*2654435761 + 12345)
			for i := range keys {
				seed = seed*1664525 + 1013904223
				keys[i] = int(seed % (1 << 16))
			}

			w := newWS()
			c.Barrier()
			t0 := c.Wtime()

			var lastLocal []int
			for it := 0; it < niter; it++ {
				c.ComputeFlops(opsPerIter / float64(np))

				// Bucket histogram allreduce (1024 buckets).
				hist := make([]float64, 1024)
				for _, k := range keys {
					hist[k*1024/(1<<16)]++
				}
				c.AllreduceF64(hist, mpi.OpSum)

				// Real redistribution of the scaled keys: keys go to the
				// rank owning their range.
				per := (1 << 16) / np
				sendKeys := make([][]int, np)
				for _, k := range keys {
					d := k / per
					if d >= np {
						d = np - 1
					}
					sendKeys[d] = append(sendKeys[d], k)
				}
				send := make([][]byte, np)
				for r := 0; r < np; r++ {
					send[r] = encodeInts(sendKeys[r])
				}
				// Counts exchange: uniform 8-byte blocks, a plain engine
				// alltoall (cached after the first iteration).
				cnt := make([][]byte, np)
				cntIn := make([][]byte, np)
				for r := 0; r < np; r++ {
					cnt[r] = mpi.F64Bytes([]float64{float64(len(send[r]))})
					cntIn[r] = make([]byte, 8)
				}
				c.Alltoall(cnt, cntIn)
				recv := make([][]byte, np)
				for r := 0; r < np; r++ {
					var v [1]float64
					mpi.BytesF64(v[:], cntIn[r])
					recv[r] = make([]byte, int(v[0]))
				}
				// Key redistribution: irregular counts, compiled by the
				// engine's alltoallv builder. The counts repeat across
				// iterations, so the schedule compiles once and every call binds it.
				c.AlltoallvBytes(send, recv)
				// Class-size exchange volume rides on an engine alltoall
				// whose blocks alias the shared workspace buffers, keeping
				// host memory at one block instead of a class-C array.
				blockBytes := keysPer / np * 4
				if blockBytes > 0 && np > 1 {
					vsend := make([][]byte, np)
					vrecv := make([][]byte, np)
					for r := 0; r < np; r++ {
						vsend[r] = w.sendBuf(blockBytes)
						vrecv[r] = w.recvBuf(blockBytes)
					}
					c.Alltoall(vsend, vrecv)
				}

				var local []int
				for r := 0; r < np; r++ {
					local = append(local, decodeInts(recv[r])...)
				}
				sort.Ints(local)
				lastLocal = local
			}

			// Global sortedness: my max must not exceed my right
			// neighbour's min.
			myMax := -1
			if len(lastLocal) > 0 {
				myMax = lastLocal[len(lastLocal)-1]
			}
			if np > 1 {
				right := (rank + 1) % np
				left := (rank - 1 + np) % np
				st := c.Sendrecv(right, 61, mpi.F64Bytes([]float64{float64(myMax)}),
					left, 61, w.recvBuf(8))
				if rank > 0 && st.Len == 8 {
					var v [1]float64
					mpi.BytesF64(v[:], w.recvBuf(8))
					if len(lastLocal) > 0 && int(v[0]) > lastLocal[0] {
						w.errors++
					}
				}
			}
			// Every key must land in its owner's range.
			per := (1 << 16) / np
			for _, k := range lastLocal {
				d := k / per
				if d >= np {
					d = np - 1
				}
				if d != rank {
					w.errors++
				}
			}
			elapsed := c.Wtime() - t0
			return w.result(c, "IS", class, elapsed)
		},
	}
}

func encodeInts(xs []int) []byte {
	b := make([]byte, 4*len(xs))
	for i, x := range xs {
		b[4*i] = byte(x)
		b[4*i+1] = byte(x >> 8)
		b[4*i+2] = byte(x >> 16)
		b[4*i+3] = byte(x >> 24)
	}
	return b
}

func decodeInts(b []byte) []int {
	xs := make([]int, len(b)/4)
	for i := range xs {
		xs[i] = int(b[4*i]) | int(b[4*i+1])<<8 | int(b[4*i+2])<<16 | int(b[4*i+3])<<24
	}
	return xs
}
