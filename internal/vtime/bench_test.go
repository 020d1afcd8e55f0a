package vtime

import "testing"

// BenchmarkEventThroughput measures raw event dispatch rate.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	var schedule func()
	n := 0
	schedule = func() {
		n++
		if n < b.N {
			e.After(1, schedule)
		}
	}
	e.After(1, schedule)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcContextSwitch measures one simulated process sleep with
// nothing else due, so the sleeper resumes itself without a goroutine
// switch (BenchmarkProcHandoff measures the switching case).
func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcHandoff measures a proc-to-proc handoff: two procs alternate
// Sleep(1), so every wakeup resumes the other proc's goroutine.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	for _, name := range []string{"a", "b"} {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSemaPingPong measures a handoff ping-pong between two procs
// through semaphores (which, unlike conds, retain early releases).
func BenchmarkSemaPingPong(b *testing.B) {
	e := NewEngine()
	s1 := NewSema(e, "s1", 0)
	s2 := NewSema(e, "s2", 0)
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s2.Release()
			s1.Acquire(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s2.Acquire(p)
			s1.Release()
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
