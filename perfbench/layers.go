package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/coll"
	"repro/mpi"
)

// layers are the program's packages host samples are attributed to: a
// sample belongs to the package of its innermost repro/... frame, "runtime"
// when it has none, "other" for repro packages outside this list.
var layers = []string{"vtime", "simnet", "nmad", "nemesis", "shmq", "ch3", "core",
	"pioman", "marcel", "nbc", "coll", "mpi", "trace", "runtime", "other"}

// memProfileRate is the traced run's heap sampling interval in bytes;
// sampled counts are scaled back to allocations the way pprof does.
const memProfileRate = 16 << 10

// maxSpans bounds the in-memory span log; later spans are counted, not kept.
const maxSpans = 1 << 18

// span is one host-time interval around a benchmark call into the program.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Rank   int    `json:"rank"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin  time.Time
	next    int64
	spans   []span
	dropped int64
}

func (l *spanLog) reserve() int64 {
	l.next++
	return l.next
}

func (l *spanLog) add(id, parent int64, rank int, name string, h0, h1 time.Time) {
	if len(l.spans) == maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Rank: rank, Name: name,
		Start: int64(h0.Sub(l.origin)), End: int64(h1.Sub(l.origin))})
}

// tracer profiles the timed phase of traced repetitions: CPU samples and
// heap allocations attributed to layers, plus host spans.
type tracer struct {
	spans   *spanLog
	cpu     [][]byte
	cur     *bytes.Buffer
	memAt   map[[32]uintptr]memRec
	cpuBy   map[string]float64
	allocBy map[string]float64
	err     error
}

type memRec struct{ objs, bytes int64 }

func newTracer() *tracer {
	return &tracer{spans: &spanLog{origin: time.Now(), spans: make([]span, 0, 1<<12)},
		cpuBy: map[string]float64{}, allocBy: map[string]float64{}}
}

// attach wires the tracer into one repetition.
func (t *tracer) attach(r *rep) {
	r.spans = t.spans
	r.runSpan = t.spans.reserve()
	r.onStart = func() {
		t.memAt = memSnapshot()
		t.cur = new(bytes.Buffer)
		// Sample at 500 Hz rather than pprof's 100 Hz: timed phases last
		// seconds, and layer shares need thousands of samples. Setting the
		// rate first makes StartCPUProfile keep it (it reports the clash
		// on stderr).
		runtime.SetCPUProfileRate(500)
		if err := pprof.StartCPUProfile(t.cur); err != nil && t.err == nil {
			t.err = fmt.Errorf("cpu profile: %w", err)
			t.cur = nil
		}
	}
	r.onEnd = func() {
		if t.cur != nil {
			pprof.StopCPUProfile()
			t.cpu = append(t.cpu, t.cur.Bytes())
			if err := cpuLayers(t.cur.Bytes(), t.cpuBy); err != nil && t.err == nil {
				t.err = err
			}
		}
		t.allocDiff(t.memAt, memSnapshot())
	}
}

// detach closes the repetition's run span and its phase spans.
func (t *tracer) detach(r *rep, t1 mark) {
	l := t.spans
	l.add(r.runSpan, 0, -1, "run", r.t0.wall, t1.wall)
	if !r.tBody.zero() {
		l.add(l.reserve(), r.runSpan, -1, "stack-build", r.t0.wall, r.tBody.wall)
	}
	if !r.tTimed0.zero() {
		l.add(l.reserve(), r.runSpan, -1, "warmup", r.tWarm.wall, r.tTimed0.wall)
		l.add(l.reserve(), r.runSpan, -1, "timed", r.tTimed0.wall, r.tTimed1.wall)
	}
}

// memSnapshot collects the heap profile (after a GC publishes it) keyed by
// allocation stack.
func memSnapshot() map[[32]uintptr]memRec {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	m := make(map[[32]uintptr]memRec, len(recs))
	for _, r := range recs {
		m[r.Stack0] = memRec{r.AllocObjects, r.AllocBytes}
	}
	return m
}

// allocDiff attributes the allocations made between two heap snapshots.
func (t *tracer) allocDiff(before, after map[[32]uintptr]memRec) {
	for stk, a := range after {
		b := before[stk]
		objs, byts := a.objs-b.objs, a.bytes-b.bytes
		if objs <= 0 {
			continue
		}
		// Undo the sampling bias as pprof does: an allocation of size s is
		// sampled with probability 1 - exp(-s/rate).
		avg := float64(byts) / float64(objs)
		scale := 1 / (1 - math.Exp(-avg/memProfileRate))
		t.allocBy[t.layerOfStack(stk[:])] += float64(objs) * scale
	}
}

// layerOfStack walks a stack innermost-first to its first repro frame.
func (t *tracer) layerOfStack(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		if l, ok := layerOf(f.Function); ok {
			return l
		}
		if !more {
			return "runtime"
		}
	}
}

// layerOf maps a function name to its layer when it belongs to the program.
func layerOf(fn string) (string, bool) {
	p, ok := strings.CutPrefix(fn, "repro/")
	if !ok {
		return "", false
	}
	p = strings.TrimPrefix(p, "internal/")
	if i := strings.IndexAny(p, "/."); i >= 0 {
		p = p[:i]
	}
	for _, l := range layers {
		if l == p {
			return l, true
		}
	}
	return "other", true
}

// cpuLayers decodes one gzipped pprof CPU profile and adds its sample
// counts per layer into by. Only the fields attribution needs are read:
// samples (location ids, values), locations (lines → function ids),
// functions (name string index) and the string table.
func cpuLayers(gz []byte, by map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{}
		fnName  = map[uint64]int64{}
	)
	err = protoFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		l := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					if ll, ok := layerOf(strs[i]); ok {
						l = ll
						break walk
					}
				}
			}
		}
		by[l] += float64(s.count)
	}
	return nil
}

// protoFields walks the top-level fields of one protobuf message, handing
// each field number with its varint value (wire type 0) or its bytes
// (wire type 2). Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one unpacked
// value, or a packed run when the field came length-delimited.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// write stores the spans (JSON lines) and CPU profiles under dir.
func (t *tracer) write(dir, prefix string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, prefix+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for i, p := range t.cpu {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.cpu%d.pb.gz", prefix, i)), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// replay is the coll probe: every distinct collective shape of the op list,
// compiled for comm rank 0 outside mpi.Run through the public selection and
// build path (KeyFor runs Tuning.Select), each compile a span under one
// "coll-replay" span.
type replay struct {
	shapes                           int
	compileUs, prims, rounds, linear float64
}

func collReplay(sp *spec, ops []op, spans *spanLog) replay {
	cfg := sp.config()
	t := cfg.Coll
	if t.Stack == "" {
		t.Stack = sp.stack.Name
	}
	for _, rp := range sp.stack.Rails { // as mpi.Run fills Coll.Rails
		t.Rails = append(t.Rails, coll.RailInfo{Name: rp.Name, LatencyNS: int64(rp.Latency), BytesPerSec: rp.BytesPerSec})
	}
	size := sp.commSize()
	type shape struct {
		k       kind
		n, root int
	}
	seen := map[shape]bool{}
	var rp replay
	root := spans.reserve()
	r0 := time.Now()
	for _, o := range ops {
		cop, ok := o.kind.collOp()
		if !ok || seen[shape{o.kind, o.n, o.root}] {
			continue
		}
		seen[shape{o.kind, o.n, o.root}] = true
		a := coll.Args{Rank: 0, Size: size, Root: o.root}
		switch o.kind {
		case kAllreduce:
			a.X, a.Op = make([]float64, o.n/8), coll.OpSum
		case kBcast:
			a.Data = make([]byte, o.n)
		case kAllgather:
			a.Mine = make([]byte, o.n)
			a.Out = make([][]byte, size)
			for i := range a.Out {
				a.Out[i] = make([]byte, o.n)
			}
		}
		best := math.Inf(1)
		var s *coll.Schedule
		for i := 0; i < 3; i++ {
			h0 := time.Now()
			key := coll.KeyFor(&t, cop, a, false)
			b := a
			b.Seg = key.Seg
			if key.Stripe > 0 {
				b.Stripe, b.Rails = key.Stripe, t.Rails
			}
			s = coll.Build(key, b)
			h1 := time.Now()
			spans.add(spans.reserve(), root, 0, "coll:"+cop.String(), h0, h1)
			best = min(best, float64(h1.Sub(h0).Nanoseconds())/1e3)
		}
		rp.shapes++
		rp.compileUs += best
		rp.rounds += float64(len(s.Rounds))
		for _, rd := range s.Rounds {
			rp.prims += float64(len(rd.Comm) + len(rd.Local))
		}
		if coll.LinearDepth(s.Key.Algo) {
			rp.linear++
		}
	}
	spans.add(root, 0, -1, "coll-replay", r0, time.Now())
	if rp.shapes > 0 {
		n := float64(rp.shapes)
		rp.compileUs, rp.prims, rp.rounds, rp.linear = rp.compileUs/n, rp.prims/n, rp.rounds/n, rp.linear/n
	}
	return rp
}

// traced runs half the time untraced (the overhead baseline and the phase
// timings), half traced, and reports the per-layer metrics.
func (b *bench) traced(seconds float64, dir string) (result, error) {
	base := b.repeat(seconds/2, nil)
	runtime.MemProfileRate = memProfileRate
	tr := newTracer()
	treps := b.repeat(seconds/2, tr)
	runtime.MemProfileRate = 512 << 10
	if tr.err != nil {
		return result{}, tr.err
	}
	var res result
	res.check(append(append([]repResult(nil), base...), treps...))

	r0 := &base[0]
	cs := r0.counters
	if cs == nil { // the first repetition failed to run
		cs = &mpi.CounterSnapshot{}
	}
	ops := float64(r0.attempted)
	per := func(x int64) float64 { return ratio(float64(x), ops) }

	res.set("vtime.events_per_op", per(r0.virt.Events), "events/op")
	res.set("vtime.host_ns_per_event", medianOf(base, func(r *repResult) float64 { return ratio(r.runS*1e9, float64(r.virt.Events)) }), "ns/event")

	res.set("mpi.run_setup_s", medianOf(base, func(r *repResult) float64 { return r.bodyS }), "s")
	callUs := func(ck callKind, virt bool) float64 {
		return medianOf(treps, func(r *repResult) float64 {
			c := r.calls[ck]
			if virt {
				return ratio(c.virt/1e3, float64(c.n))
			}
			return ratio(c.hostNs/1e3, float64(c.n))
		})
	}
	res.set("mpi.split_host_us", callUs(callSplit, false), "us")
	res.set("mpi.warmup_s", medianOf(base, func(r *repResult) float64 { return r.warmS }), "s")
	res.set("mpi.start_host_us", callUs(callStart, false), "us")
	res.set("mpi.wait_host_us", callUs(callWait, false), "us")
	res.set("mpi.blocking_host_us", callUs(callBlocking, false), "us")
	res.set("mpi.wait_virt_us", callUs(callWait, true), "us")

	rp := collReplay(b.sp, b.ops, tr.spans)
	res.set("coll.cache_hit_rate", cs.CacheHitRate, "1")
	res.set("coll.compiles_per_op", per(cs.SchedCompiles), "compiles/op")
	res.set("coll.compile_host_us", rp.compileUs, "us")
	res.set("coll.prims_per_sched", rp.prims, "prims")
	res.set("coll.rounds_per_sched", rp.rounds, "rounds")
	res.set("coll.linear_depth_share", rp.linear, "1")

	res.set("nbc.bg_rounds_per_op", per(cs.NbcBGRounds), "rounds/op")
	res.set("nbc.op_pool_hit_rate", ratio(float64(cs.OpPoolHits), float64(cs.OpPoolHits+cs.OpPoolMisses)), "1")
	res.set("pioman.bg_polls_per_op", per(cs.BgPolls), "polls/op")
	res.set("pioman.bg_tasks_per_op", per(cs.BgTasks), "tasks/op")
	res.set("pioman.bg_useful_poll_ratio", ratio(float64(cs.BgEvents), float64(cs.BgPolls)), "1")
	res.set("pioman.app_polls_per_op", per(cs.AppPolls), "polls/op")
	res.set("pioman.app_useful_poll_ratio", ratio(float64(cs.AppEvents), float64(cs.AppPolls)), "1")
	res.set("ch3.req_pool_hit_rate", ratio(float64(cs.ReqPoolHits), float64(cs.ReqPoolHits+cs.ReqPoolMisses)), "1")
	res.set("ch3.req_in_flight_peak", float64(cs.ReqInFlight), "reqs")

	var railBytes int64
	for _, rc := range cs.Rails {
		railBytes += rc.Bytes
	}
	for _, name := range []string{"ib", "mx"} {
		var pk, by int64
		for _, rc := range cs.Rails {
			if rc.Name == name {
				pk, by = rc.Packets, rc.Bytes
			}
		}
		res.set("simnet."+name+".packets_per_op", per(pk), "packets/op")
		res.set("simnet."+name+".bytes_per_packet", ratio(float64(by), float64(pk)), "B/packet")
		res.set("nmad.rail_byte_share."+name, ratio(float64(by), float64(railBytes)), "1")
	}

	var cpuTotal, allocTotal float64
	for _, l := range layers {
		cpuTotal += tr.cpuBy[l]
		allocTotal += tr.allocBy[l]
	}
	for _, l := range layers {
		res.set("host.self_share."+l, ratio(tr.cpuBy[l], cpuTotal), "1")
	}
	for _, l := range layers {
		res.set("host.alloc_share."+l, ratio(tr.allocBy[l], allocTotal), "1")
	}
	opsPerS := func(r *repResult) float64 { return ratio(float64(r.timedOps), r.timedS) }
	untraced, tracedOps := medianOf(base, opsPerS), medianOf(treps, opsPerS)
	res.set("host.untraced_ops_per_s", untraced, "ops/s")
	res.set("host.traced_ops_per_s", tracedOps, "ops/s")
	res.set("host.trace_overhead", ratio(untraced, tracedOps)-1, "1")

	prefix := fmt.Sprintf("%s-seed%d", b.sp.name, b.seed)
	if err := tr.write(dir, prefix); err != nil {
		res.notes = append(res.notes, "writing trace artifacts: "+err.Error())
	} else {
		res.notes = append(res.notes, fmt.Sprintf("spans (%d kept, %d dropped) and %d CPU profiles in %s",
			len(tr.spans.spans), tr.spans.dropped, len(tr.cpu), filepath.Join(dir, prefix+".*")))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s: %d untraced + %d traced reps; %d CPU samples, %.0f allocations attributed; coll replay over %d shapes",
			b.sp.name, len(base), len(treps), int64(cpuTotal), allocTotal, rp.shapes))
	return res, nil
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
