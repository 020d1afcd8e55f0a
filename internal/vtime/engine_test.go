package vtime

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time %d, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(100)
			times = append(times, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{100, 200, 300}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times %v, want %v", times, want)
		}
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(10)
		trace = append(trace, "a10")
		p.Sleep(20) // t=30
		trace = append(trace, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(20)
		trace = append(trace, "b20")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a10", "b20", "a30"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestCondSignalWait(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "test cond")
	var woke Time
	e.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		woke = p.Now()
	})
	e.At(500, func() { c.Signal() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 500 {
		t.Fatalf("woke at %d, want 500", woke)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "bc")
	n := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	e.At(10, func() {
		if c.Waiters() != 5 {
			t.Errorf("waiters = %d, want 5", c.Waiters())
		}
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("woke %d, want 5", n)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "never signalled")
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck: never signalled" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestSemaphore(t *testing.T) {
	e := NewEngine()
	s := NewSema(e, "sem", 0)
	var acquired Time
	e.Spawn("acq", func(p *Proc) {
		s.Acquire(p)
		acquired = p.Now()
	})
	e.At(777, func() { s.Release() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if acquired != 777 {
		t.Fatalf("acquired at %d, want 777", acquired)
	}
	if s.Value() != 0 {
		t.Fatalf("value = %d, want 0", s.Value())
	}
}

func TestSemaTryAcquire(t *testing.T) {
	e := NewEngine()
	s := NewSema(e, "sem", 2)
	if !s.TryAcquire() || !s.TryAcquire() {
		t.Fatal("TryAcquire should succeed twice")
	}
	if s.TryAcquire() {
		t.Fatal("TryAcquire should fail at zero")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("TryAcquire should succeed after Release")
	}
}

func TestSemaMultipleWaitersFIFO(t *testing.T) {
	e := NewEngine()
	s := NewSema(e, "sem", 0)
	var order []string
	spawn := func(name string, delay Duration) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			s.Acquire(p)
			order = append(order, name)
		})
	}
	spawn("first", 1)
	spawn("second", 2)
	spawn("third", 3)
	e.At(100, func() { s.Release(); s.Release(); s.Release() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(100, func() { ran++ })
	e.At(200, func() { ran++ })
	e.At(300, func() { ran++ })
	if err := e.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran %d events, want 2 (deadline inclusive)", ran)
	}
	if e.Now() != 200 {
		t.Fatalf("now = %d, want 200", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Fatalf("ran %d events, want 3", ran)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++; e.Stop() })
	e.At(20, func() { ran++ })
	_ = e.RunUntil(100)
	if ran != 1 {
		t.Fatalf("ran %d, want 1 after Stop", ran)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childRan Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(50)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(10)
			childRan = c.Now()
		})
		p.Sleep(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childRan != 60 {
		t.Fatalf("child ran at %d, want 60", childRan)
	}
}

func TestStaleWakeupIgnored(t *testing.T) {
	// A proc woken by both a timer and a cond signal at different times must
	// not be resumed twice.
	e := NewEngine()
	c := NewCond(e, "c")
	wakes := 0
	e.Spawn("w", func(p *Proc) {
		c.Wait(p)
		wakes++
	})
	e.At(5, func() { c.Signal() })
	e.At(6, func() { c.Signal() }) // no waiter; must be a no-op
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 1 {
		t.Fatalf("wakes = %d, want 1", wakes)
	}
}

func TestDurationHelpers(t *testing.T) {
	if Microsecond != 1000 || Millisecond != 1_000_000 || Second != 1_000_000_000 {
		t.Fatal("unit constants wrong")
	}
	if d := DurationOf(1.5e-6); d != 1500 {
		t.Fatalf("DurationOf(1.5us) = %d, want 1500", d)
	}
	if DurationOf(-1) != 0 {
		t.Fatal("negative DurationOf should clamp to 0")
	}
	if got := Duration(2500).Micros(); got != 2.5 {
		t.Fatalf("Micros = %v, want 2.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := Time(1500).Micros(); got != 1.5 {
		t.Fatalf("Time.Micros = %v", got)
	}
}

// Property: for any set of (time, id) events, execution order is sorted by
// time with ties broken by insertion order.
func TestPropertyEventOrderIsStableSort(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		e := NewEngine()
		type rec struct {
			t   Time
			idx int
		}
		var got []rec
		for i, d := range delays {
			i, tt := i, Time(d%50) // force lots of ties
			e.At(tt, func() { got = append(got, rec{tt, i}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		sorted := sort.SliceIsSorted(got, func(a, b int) bool {
			if got[a].t != got[b].t {
				return got[a].t < got[b].t
			}
			return got[a].idx < got[b].idx
		})
		return sorted && len(got) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: N procs doing random sleeps always terminate with Run() == nil
// and the engine clock equals the max total sleep.
func TestPropertyProcsTerminate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := 1 + rng.Intn(8)
		maxTotal := Time(0)
		for i := 0; i < n; i++ {
			total := Time(0)
			var sleeps []Duration
			for j := 0; j < 1+rng.Intn(10); j++ {
				d := Duration(rng.Intn(1000))
				sleeps = append(sleeps, d)
				total = total.Add(d)
			}
			if total > maxTotal {
				maxTotal = total
			}
			e.Spawn("p", func(p *Proc) {
				for _, d := range sleeps {
					p.Sleep(d)
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return e.Now() == maxTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSleepYields(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Sleep(0)
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// a starts first (spawned first), yields at Sleep(0), b runs, then a2.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

// procName names p for failure messages; nil is the no-proc (callback) case.
func procName(p *Proc) string {
	if p == nil {
		return "<nil>"
	}
	return p.Name()
}

// TestCurrentAcrossHandoffs pins Current() on each kind of control
// transfer: it is nil inside callback events and the running proc inside
// proc code, whether that proc was resumed by RunUntil's caller, by another
// proc, by itself, by a callback run inline on a yielding proc's goroutine,
// or by a proc that returned.
func TestCurrentAcrossHandoffs(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "signalled by callback")
	var log []string
	at := func(where string, p *Proc) {
		if got := e.Current(); got != p {
			t.Errorf("%s: Current() = %s, want %s", where, procName(got), procName(p))
		}
		log = append(log, fmt.Sprintf("%s@%d", where, e.Now()))
	}
	e.Spawn("a", func(p *Proc) {
		at("a:run→proc", p)
		p.Sleep(10) // b's start is due first: proc→proc
		at("a:proc→proc", p)
		p.Sleep(20) // the callback at 20 runs inline, then b resumes
		at("a:finish→proc", p)
	})
	e.Spawn("b", func(p *Proc) {
		at("b:proc→proc", p)
		p.Sleep(5) // nothing else due before 5: proc→self
		at("b:proc→self", p)
		c.Wait(p)
		at("b:callback→proc", p)
		p.Sleep(5) // resumes itself at 25, returns, and hands control to a at 30
	})
	e.At(20, func() {
		at("callback", nil)
		c.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Current() != nil {
		t.Errorf("Current() after Run = %s, want <nil>", procName(e.Current()))
	}
	want := []string{"a:run→proc@0", "b:proc→proc@0", "b:proc→self@5", "a:proc→proc@10",
		"callback@20", "b:callback→proc@20", "a:finish→proc@30"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("handoff sequence %v, want %v", log, want)
	}
}

// sleepers spawns three procs that sleep in different strides and log each
// wakeup; the strides cross any deadline a test picks.
func sleepers(e *Engine, log *[]string) {
	for i, name := range []string{"a", "b", "c"} {
		d := Duration(7 * (i + 1))
		e.Spawn(name, func(p *Proc) {
			for k := 0; k < 5; k++ {
				p.Sleep(d)
				*log = append(*log, fmt.Sprintf("%s@%d", p.Name(), p.Now()))
			}
		})
	}
}

// TestRunUntilTwiceResumesSleepers: procs asleep across a RunUntil deadline
// resume on the next call, and the split run wakes every proc at the same
// times, with the same event count, as one Run.
func TestRunUntilTwiceResumesSleepers(t *testing.T) {
	var whole, split []string
	e1 := NewEngine()
	sleepers(e1, &whole)
	if err := e1.Run(); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine()
	sleepers(e2, &split)
	if err := e2.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	if e2.Now() != 30 {
		t.Fatalf("now after RunUntil(30) = %d, want 30", e2.Now())
	}
	if err := e2.RunUntil(31); err != nil { // nothing due in (30, 31]
		t.Fatal(err)
	}
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(split) != fmt.Sprint(whole) {
		t.Fatalf("split run wakeups %v, want %v", split, whole)
	}
	if e2.Now() != e1.Now() || e2.Events() != e1.Events() {
		t.Fatalf("split run ends at t=%d after %d events, want t=%d after %d",
			e2.Now(), e2.Events(), e1.Now(), e1.Events())
	}
}

// runWithin runs e on another goroutine and fails the test if Run has not
// returned control within a generous host-time bound.
func runWithin(t *testing.T, e *Engine) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return control to its caller")
		return nil
	}
}

// TestStopFromProc: a proc that calls Stop and then yields hands control
// back to Run's caller; no later event runs.
func TestStopFromProc(t *testing.T) {
	e := NewEngine()
	otherRan := false
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(10)
		e.Stop()
		p.Sleep(1) // never resumes: the run ends here
		t.Error("stopper resumed after Stop")
	})
	e.Spawn("other", func(p *Proc) {
		p.Sleep(100)
		otherRan = true
	})
	if err := runWithin(t, e); err != nil {
		t.Fatal(err)
	}
	if otherRan || e.Now() != 10 {
		t.Fatalf("after Stop: other ran = %v, now = %d; want false, 10", otherRan, e.Now())
	}
}

// TestFinishHandsToBlockedSibling: a proc that wakes a blocked sibling and
// returns hands control to it from its exiting goroutine; the deadlock
// report that follows still names every blocked proc with its reason.
func TestFinishHandsToBlockedSibling(t *testing.T) {
	e := NewEngine()
	ready := NewCond(e, "ready")
	never := NewCond(e, "never signalled")
	var resumed Time = -1
	e.Spawn("waiter", func(p *Proc) {
		ready.Wait(p)
		resumed = p.Now()
		never.Wait(p)
	})
	e.Spawn("stuck", func(p *Proc) { never.Wait(p) })
	e.Spawn("finisher", func(p *Proc) {
		p.Sleep(5)
		ready.Signal()
	})
	err := runWithin(t, e)
	if resumed != 5 {
		t.Fatalf("waiter resumed at %d, want 5", resumed)
	}
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	want := []string{"stuck: never signalled", "waiter: never signalled"}
	if de.Now != 5 || fmt.Sprint(de.Blocked) != fmt.Sprint(want) {
		t.Fatalf("deadlock at t=%d blocked %v, want t=5 blocked %v", de.Now, de.Blocked, want)
	}
}

// TestDispatchAllocatesNothing: once the event heap has grown, scheduling
// and dispatching callback events (At, After) and proc sleeps — both the
// self-resume and the proc-to-proc handoff — allocate nothing.
func TestDispatchAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	quit := false
	for _, name := range []string{"a", "b"} {
		e.Spawn(name, func(p *Proc) {
			for !quit {
				p.Sleep(1)
				p.Sleep(2) // the sibling sleeps too, so some wakeups switch
			}
		})
	}
	schedule := func() {
		for i := 0; i < 16; i++ {
			e.After(Duration(i), fn)
			e.At(e.Now()+3, fn)
		}
	}
	schedule()
	if err := e.RunUntil(e.Now() + 100); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		schedule()
		if err := e.RunUntil(e.Now() + 100); err != nil {
			t.Fatal(err)
		}
	})
	quit = true
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state dispatch allocates %.2f objects per run, want 0", allocs)
	}
}

// TestSemaCycleAllocatesNothing pins Cond.Signal's in-place pop: a
// steady-state Sema release/acquire cycle between two procs, the Marcel
// semaphore path PIOMan workers block on, allocates nothing.
func TestSemaCycleAllocatesNothing(t *testing.T) {
	e := NewEngine()
	ping, pong := NewSema(e, "ping", 0), NewSema(e, "pong", 0)
	quit := false
	e.Spawn("a", func(p *Proc) {
		for !quit {
			ping.Release()
			pong.Acquire(p)
			p.Sleep(1)
		}
		ping.Release()
	})
	e.Spawn("b", func(p *Proc) {
		for !quit {
			ping.Acquire(p)
			pong.Release()
		}
	})
	if err := e.RunUntil(e.Now() + 100); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.RunUntil(e.Now() + 50); err != nil {
			t.Fatal(err)
		}
	})
	quit = true
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state Sema cycle allocates %.2f objects per 50 cycles, want 0", allocs)
	}
}
