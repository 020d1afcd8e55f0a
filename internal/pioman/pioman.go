// Package pioman implements the I/O event manager of the PM2 suite (§2.2.2,
// §3.3): a centralized progress authority for one MPI process.
//
// Every pollable event source (the NewMadeleine network driver, the Nemesis
// shared-memory receive queue) registers with the Manager. Two progress
// regimes exist:
//
//   - Disabled (plain Nemesis / baseline MPIs): progress happens only when
//     application threads call Progress from inside MPI routines; blocking
//     waits poll in a loop.
//   - Enabled (PIOMan): background progress workers woken by arrival
//     notifications perform polling and deferred submission work on idle
//     cores, and application threads block on semaphore-like primitives
//     instead of busy-waiting (§3.3.2). Thread-safe progression costs a
//     per-event synchronization overhead (≈450 ns for shared memory, ≈2 µs
//     for the network — Fig. 6), charged on each background poll.
//
// # Multi-worker progression
//
// The Enabled regime runs Config.Workers background workers (default 1 —
// fully backward compatible), each a distinct vtime.Proc labeled
// pioman-0..N-1 for trace attribution. Work is sharded so workers do not
// duplicate each other's sweeps:
//
//   - Sources are assigned a shard at Register time, round-robin in
//     registration order; a worker's sweep polls only the sources whose
//     shard it owns (shard % Workers == worker id). Application-thread
//     Progress still polls everything.
//   - Deferred tasks carry a caller-chosen shard key (PostTaskShard): the
//     nonblocking-collective engine keys on its communicator context, so
//     one communicator's rounds stay on one worker's queue. NotifyShard
//     wakes only the owning worker; Notify wakes all of them.
//   - Idle workers steal: when a worker's queue backlog reaches stealMin,
//     posting broadcasts a steal invitation to the other workers, and a
//     worker that drained its own shard moves the oldest half of the most
//     loaded queue onto its own before sleeping. Tasks are independent
//     units (an op has at most one outstanding task), so migration is safe.
//
// Determinism contract: for a fixed Workers count the run is bit-identical
// across repetitions — workers are ordinary vtime procs, every wakeup,
// steal and core acquisition is ordered by the engine's (time, seq) order.
// Different Workers counts are different (equally deterministic) schedules.
package pioman

import (
	"repro/internal/marcel"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Class tells the manager which synchronization cost a source carries.
type Class int

const (
	// ClassShm marks an intra-node shared-memory source.
	ClassShm Class = iota
	// ClassNet marks an inter-node network source.
	ClassNet
)

// Source is a pollable event source.
type Source interface {
	// SourceName identifies the source in diagnostics.
	SourceName() string
	// Poll performs protocol work for any pending events. It returns the
	// number of events handled and the total CPU cost of handling them
	// (parsing, matching, copies). It must be cheap when nothing is pending.
	Poll() (events int, cost vtime.Duration)
}

// Task is deferred host work (e.g. eager submission chunks) that may be
// offloaded to the progress thread. Exactly one of Run / RunP must be set:
// RunP receives the proc executing the progress pass (application thread or
// PIOMan worker) so the task can itself issue time-charged operations — the
// nonblocking-collective engine uses it to start schedule rounds from
// progress context.
type Task struct {
	Cost vtime.Duration
	Run  func()
	RunP func(p *vtime.Proc)
}

// stealMin is the queue backlog at which a worker's queue becomes a steal
// target (and posting to it invites the other workers over). High enough
// that transient backlogs on a busy-but-healthy worker don't ping-pong
// tasks between queues; a storm concentrated on one shard blows past it
// immediately.
const stealMin = 16

// Config tunes the manager.
type Config struct {
	// Enabled selects the PIOMan regime (background progress workers).
	Enabled bool
	// Workers is the number of background progression workers (0 and 1 both
	// mean the classic single worker). Ignored unless Enabled: the polling
	// regime has no background procs to multiply.
	Workers int
	// SyncShm/SyncNet are per-event synchronization overheads charged when
	// Enabled (the Fig. 6 offsets).
	SyncShm vtime.Duration
	SyncNet vtime.Duration
	// React is the scheduling delay before a background worker reacts to a
	// notification.
	React vtime.Duration
	// Metrics, when set, registers the manager's statistics (poll and event
	// counts, split by application vs background thread, plus per-worker
	// breakdowns) under canonical names; nil keeps standalone counters.
	Metrics *trace.Registry
	// Rec, when set, records progress-pass trace events.
	Rec *trace.Recorder
}

// worker is one background progression worker: a task queue, a wakeup
// condition and per-worker statistics. Worker 0 exists even in the Disabled
// regime — its queue and condition are the polling path's.
type worker struct {
	id int

	// tasks is consumed through taskHead so popping reuses the backing
	// array (vacated slots are zeroed; a drained queue resets to [:0]) —
	// the deferred-round hot path posts and pops thousands of tasks.
	tasks    []Task
	taskHead int

	// work is signalled by Notify, PostTask and steal invitations; the
	// worker waits on it.
	work *vtime.Cond
	// notified means a source in this worker's shard may have a pending
	// event.
	notified bool

	polls  *trace.Counter
	events *trace.Counter
	ran    *trace.Counter
	steals *trace.Counter
}

// noTasks reports an empty deferred-task queue.
func (w *worker) noTasks() bool { return w.taskHead >= len(w.tasks) }

// backlog is the number of queued-but-unstarted tasks.
func (w *worker) backlog() int { return len(w.tasks) - w.taskHead }

// Manager is the per-process progress authority.
type Manager struct {
	e    *vtime.Engine
	node *marcel.Node
	cfg  Config

	sources []Source
	classes []Class
	shards  []int // sources[i] is polled by workers[shards[i]]
	rrNext  int   // next round-robin shard for Register (RegisterAt skips it)

	workers []*worker

	// sweeping counts workers currently inside a sweep. While it is
	// nonzero, sibling wake-ups are recorded in pendingWake and flushed
	// once when the last sweep ends: several completions landing in one
	// sweep then cost the woken worker a single sleep/wake transition
	// instead of one per completion (it would otherwise wake, drain one
	// task, sleep, and wake again for the next post).
	sweeping    int
	pendingWake []bool

	// Completion is broadcast whenever Poll completed protocol events;
	// blocked application threads re-check their predicates on it.
	Completion *vtime.Cond

	stopped bool

	rec *trace.Recorder

	// Aggregate stats, registered on the configured metrics registry
	// (standalone counters otherwise). Read through the accessor methods.
	bgPolls   *trace.Counter
	bgEvents  *trace.Counter
	bgTasks   *trace.Counter
	bgSteals  *trace.Counter
	appPolls  *trace.Counter
	appEvents *trace.Counter
}

// New returns a manager for one process living on node.
func New(e *vtime.Engine, node *marcel.Node, name string, cfg Config) *Manager {
	nw := cfg.Workers
	if nw < 1 || !cfg.Enabled {
		nw = 1
	}
	m := &Manager{
		e:          e,
		node:       node,
		cfg:        cfg,
		Completion: vtime.NewCond(e, name+": waiting for completion"),
		rec:        cfg.Rec,
		bgPolls:    cfg.Metrics.Counter(trace.CtrBgPolls),
		bgEvents:   cfg.Metrics.Counter(trace.CtrBgEvents),
		bgTasks:    cfg.Metrics.Counter(trace.CtrBgTasks),
		bgSteals:   cfg.Metrics.Counter(trace.CtrBgSteals),
		appPolls:   cfg.Metrics.Counter(trace.CtrAppPolls),
		appEvents:  cfg.Metrics.Counter(trace.CtrAppEvents),
	}
	for i := 0; i < nw; i++ {
		w := &worker{
			id:   i,
			work: vtime.NewCond(e, name+": pioman idle"),
		}
		if cfg.Enabled {
			// Fold the reaction delay into the wakeup itself: a sleeping
			// worker schedules one wake event at now+React instead of a
			// wake now plus a separate sleep, halving the per-notification
			// event cost without changing virtual timing.
			w.work.SetWakeDelay(cfg.React)
			w.polls = cfg.Metrics.Counter(trace.CtrWorkerPolls(i))
			w.events = cfg.Metrics.Counter(trace.CtrWorkerEvents(i))
			w.ran = cfg.Metrics.Counter(trace.CtrWorkerTasks(i))
			w.steals = cfg.Metrics.Counter(trace.CtrWorkerSteals(i))
		} else {
			w.polls, w.events, w.ran, w.steals =
				&trace.Counter{}, &trace.Counter{}, &trace.Counter{}, &trace.Counter{}
		}
		m.workers = append(m.workers, w)
	}
	m.pendingWake = make([]bool, nw)
	if cfg.Enabled {
		workersGauge := cfg.Metrics.Gauge(trace.GaugeWorkers)
		for i, w := range m.workers {
			w := w
			bp := e.Spawn(name+"/pioman-"+itoa(i), func(p *vtime.Proc) { m.workerLoop(p, w) })
			bp.SetLabel(trace.TidPiomanN(i))
			workersGauge.Inc()
		}
	}
	return m
}

// itoa formats small non-negative ints (worker ids) without strconv.
func itoa(n int) string {
	if n < 10 {
		return string([]byte{byte('0' + n)})
	}
	return itoa(n/10) + itoa(n%10)
}

// BgPolls returns the number of background sweeps performed.
func (m *Manager) BgPolls() int64 { return m.bgPolls.Value() }

// BgEvents returns the number of events handled by background sweeps.
func (m *Manager) BgEvents() int64 { return m.bgEvents.Value() }

// BgTasks returns the number of deferred tasks run by background workers.
func (m *Manager) BgTasks() int64 { return m.bgTasks.Value() }

// BgSteals returns the number of tasks migrated between worker queues.
func (m *Manager) BgSteals() int64 { return m.bgSteals.Value() }

// AppPolls returns the number of application-thread progress passes.
func (m *Manager) AppPolls() int64 { return m.appPolls.Value() }

// Enabled reports whether the background regime is active.
func (m *Manager) Enabled() bool { return m.cfg.Enabled }

// Workers returns the number of background progression workers (1 in the
// Disabled regime: the polling path's queue still lives on worker 0).
func (m *Manager) Workers() int { return len(m.workers) }

// shardOf folds an arbitrary shard key onto a worker index.
func (m *Manager) shardOf(key int) int {
	if key < 0 {
		key = -key
	}
	return key % len(m.workers)
}

// Register adds a source with its synchronization class and returns the
// shard it was assigned to (round-robin over registration order). Callers
// that route notifications hand the shard back to NotifyShard so only the
// owning worker wakes.
func (m *Manager) Register(s Source, c Class) int {
	shard := m.shardOf(m.rrNext)
	m.rrNext++
	return m.RegisterAt(s, c, shard)
}

// RegisterAt adds a source pinned onto a specific shard (folded onto a
// worker like any shard key) without consuming a round-robin slot. It is
// for sources whose progress cascades into another source's: if the two
// land on different workers, the event that makes the second pollable is
// handled by a worker that never polls it, and the cascade is lost. CH3
// pins its job engine onto its shm endpoint's shard for exactly this.
func (m *Manager) RegisterAt(s Source, c Class, shard int) int {
	shard = m.shardOf(shard)
	m.sources = append(m.sources, s)
	m.classes = append(m.classes, c)
	m.shards = append(m.shards, shard)
	return shard
}

// Notify tells the manager that any source may have a pending event. It is
// the mailbox mechanism of §3.3.2 in its broadcast form: every worker
// re-sweeps its shard. Arrival paths that know their source use NotifyShard.
func (m *Manager) Notify() {
	for _, w := range m.workers {
		w.notified = true
		m.wakeWorker(w)
	}
	m.notifyWaiters()
}

// NotifyShard tells the manager that a source in one shard may have a
// pending event, waking only the owning worker. Equivalent to Notify at
// Workers=1.
func (m *Manager) NotifyShard(key int) {
	w := m.workers[m.shardOf(key)]
	w.notified = true
	m.wakeWorker(w)
	m.notifyWaiters()
}

// wakeWorker wakes w, or — while a multi-worker sweep is in progress —
// defers the wake for the end-of-sweep flush. Deferral never loses work:
// the notified flag and task queue are already set when it is recorded,
// and a worker that is awake re-checks both before sleeping. Workers <= 1
// never defers, keeping the classic schedule bit-identical.
func (m *Manager) wakeWorker(w *worker) {
	if m.sweeping > 0 && len(m.workers) > 1 {
		m.pendingWake[w.id] = true
		return
	}
	w.work.Broadcast()
}

// flushWakes delivers the wake-ups deferred during a sweep, one broadcast
// per worker however many completions landed on it.
func (m *Manager) flushWakes() {
	for id, pending := range m.pendingWake {
		if pending {
			m.pendingWake[id] = false
			m.workers[id].work.Broadcast()
		}
	}
}

// notifyWaiters wakes blocked application threads on notification in the
// polling regime: without background workers the threads themselves poll,
// so they must wake to re-poll. Under PIOMan the owning worker's sweep
// broadcasts Completion instead — one wakeup per sweep, not per event.
func (m *Manager) notifyWaiters() {
	if !m.cfg.Enabled {
		m.Completion.Broadcast()
	}
}

// Completed wakes blocked application threads after a request finished in
// task or engine context — there is no progression work left for that
// request, so waking a worker would buy nothing but an empty sweep. The
// classic single-worker schedule keeps the historical two-hop wake (notify
// the worker, whose sweep re-broadcasts completion) so that Workers <= 1
// timing stays bit-identical; multi-worker managers broadcast the
// completion condition directly, which is where the per-sweep overhead of
// the extra workers would otherwise dominate.
func (m *Manager) Completed(key int) {
	if m.cfg.Enabled && len(m.workers) > 1 {
		m.Completion.Broadcast()
		return
	}
	m.NotifyShard(key)
}

// PostTask defers host work onto shard 0. Under PIOMan it is executed by a
// background worker (submission offload, §2.2.3); otherwise it runs at the
// next Progress call on the posting process's own time.
func (m *Manager) PostTask(t Task) { m.PostTaskShard(0, t) }

// PostTaskShard defers host work onto the worker owning key's shard. When
// the queue backlog crosses stealMin the other workers are invited to steal.
func (m *Manager) PostTaskShard(key int, t Task) {
	if (t.Run == nil) == (t.RunP == nil) {
		panic("pioman: Task needs exactly one of Run / RunP")
	}
	w := m.workers[m.shardOf(key)]
	w.tasks = append(w.tasks, t)
	if m.cfg.Enabled {
		m.wakeWorker(w)
		// Invite exactly once per drain cycle, on the crossing — a deep
		// window keeps the backlog above the threshold for thousands of
		// posts, and re-inviting on each would wake every sibling per post.
		if len(m.workers) > 1 && w.backlog() == stealMin {
			for _, o := range m.workers {
				if o != w {
					m.wakeWorker(o)
				}
			}
		}
	}
}

// anyNotified reports whether any worker has a pending notification.
func (m *Manager) anyNotified() bool {
	for _, w := range m.workers {
		if w.notified {
			return true
		}
	}
	return false
}

// allQueuesEmpty reports whether every worker's task queue is drained.
func (m *Manager) allQueuesEmpty() bool {
	for _, w := range m.workers {
		if !w.noTasks() {
			return false
		}
	}
	return true
}

// runTasks executes w's deferred tasks, charging their cost to p. Tasks may
// post further tasks while running; those landing on w are picked up in the
// same pass.
func (m *Manager) runTasks(p *vtime.Proc, w *worker, bg bool) int {
	n := 0
	for !w.noTasks() {
		t := w.tasks[w.taskHead]
		w.tasks[w.taskHead] = Task{}
		w.taskHead++
		if w.noTasks() {
			w.tasks = w.tasks[:0]
			w.taskHead = 0
		}
		if t.Cost > 0 {
			p.Sleep(t.Cost)
		}
		if t.RunP != nil {
			t.RunP(p)
		} else {
			t.Run()
		}
		n++
		if bg {
			m.bgTasks.Inc()
			w.ran.Inc()
		}
	}
	return n
}

func (m *Manager) syncCost(c Class) vtime.Duration {
	if !m.cfg.Enabled {
		return 0
	}
	if c == ClassShm {
		return m.cfg.SyncShm
	}
	return m.cfg.SyncNet
}

// pollOnce polls every source, charging per-event costs to p. Returns events
// handled. Application-thread progress passes use it: the calling thread is
// inside an MPI routine and drains everything.
func (m *Manager) pollOnce(p *vtime.Proc) int {
	total := 0
	for i, s := range m.sources {
		n, cost := s.Poll()
		if n > 0 {
			cost += vtime.Duration(n) * m.syncCost(m.classes[i])
			if cost > 0 {
				p.Sleep(cost)
			}
			total += n
		}
	}
	return total
}

// pollShard polls only the sources owned by w's shard — the worker-sweep
// form of pollOnce: N workers each sweep a disjoint source subset.
func (m *Manager) pollShard(p *vtime.Proc, w *worker) int {
	if len(m.workers) == 1 {
		return m.pollOnce(p)
	}
	total := 0
	for i, s := range m.sources {
		if m.shards[i] != w.id {
			continue
		}
		n, cost := s.Poll()
		if n > 0 {
			cost += vtime.Duration(n) * m.syncCost(m.classes[i])
			if cost > 0 {
				p.Sleep(cost)
			}
			total += n
		}
	}
	return total
}

// Progress performs one explicit progress pass on the calling application
// thread: deferred tasks first (they may generate arrivals), then a poll
// sweep over every source. Polling may itself defer new tasks (e.g. a
// strategy submitting an aggregated packet once the NIC drained), so the
// pass loops until every queue is empty. Returns the number of events
// handled.
func (m *Manager) Progress(p *vtime.Proc) int {
	total := 0
	end := m.rec.Span("pioman", "progress")
	for {
		// Clear the notification flags before each sweep: arrivals landing
		// *during* the sweep (polling sleeps to charge costs, and events
		// fire meanwhile) re-set them and force another sweep, so nothing is
		// left undrained when the caller decides to block.
		for _, w := range m.workers {
			w.notified = false
		}
		n := 0
		for _, w := range m.workers {
			n += m.runTasks(p, w, false)
		}
		ev := m.pollOnce(p)
		m.appPolls.Inc()
		m.appEvents.Add(int64(ev))
		total += n + ev
		if m.allQueuesEmpty() && !m.anyNotified() {
			break
		}
	}
	end()
	if total > 0 {
		m.Completion.Broadcast()
	}
	return total
}

// WaitUntil blocks the application thread p until done() is true.
//
// Without PIOMan this is the classic MPICH2 progress loop: poll, re-check,
// sleep on the arrival notification. With PIOMan the thread does no polling
// at all — it blocks on the completion condition, and the background workers
// (on idle cores) perform all protocol work, exactly as §3.3.2 describes
// for MPI_Wait.
func (m *Manager) WaitUntil(p *vtime.Proc, done func() bool) {
	if m.cfg.Enabled {
		for !done() {
			// Predicate-gated wait: completion broadcasts that cannot
			// satisfy done() skip this thread entirely (no wake event), so
			// an MPI_Waitall over a deep window wakes once — when its last
			// request finishes — not once per completion.
			m.Completion.WaitPred(p, done)
		}
		return
	}
	for !done() {
		if m.Progress(p) > 0 {
			continue
		}
		if done() {
			return
		}
		m.workers[0].work.Wait(p)
	}
}

// stealTarget returns the most loaded other worker whose backlog has
// reached stealMin (lowest id wins ties), or nil.
func (m *Manager) stealTarget(w *worker) *worker {
	var victim *worker
	for _, o := range m.workers {
		if o == w || o.backlog() < stealMin {
			continue
		}
		if victim == nil || o.backlog() > victim.backlog() {
			victim = o
		}
	}
	return victim
}

// trySteal moves the oldest half of the most loaded queue onto w's own.
// Returns whether anything was stolen. Tasks are independent units (an op
// has at most one outstanding task), so migration preserves correctness;
// taking from the head keeps the victim running its newest — likely still
// cache-hot — work.
func (m *Manager) trySteal(w *worker) bool {
	victim := m.stealTarget(w)
	if victim == nil {
		return false
	}
	k := (victim.backlog() + 1) / 2
	for i := 0; i < k; i++ {
		w.tasks = append(w.tasks, victim.tasks[victim.taskHead])
		victim.tasks[victim.taskHead] = Task{}
		victim.taskHead++
	}
	if victim.noTasks() {
		victim.tasks = victim.tasks[:0]
		victim.taskHead = 0
	}
	m.bgSteals.Add(int64(k))
	w.steals.Add(int64(k))
	return true
}

// workerLoop is one PIOMan progress worker: woken by Notify/PostTask (or a
// steal invitation), it grabs an idle core, pays the reaction delay, and
// performs all pending work in its shard — then steals from loaded siblings
// before going back to sleep.
func (m *Manager) workerLoop(p *vtime.Proc, w *worker) {
	multi := len(m.workers) > 1
	waited := false
	for !m.stopped {
		if !w.notified && w.noTasks() && !(multi && m.stealTarget(w) != nil) {
			w.work.Wait(p)
			waited = true
			continue
		}
		// A worker woken from Wait already paid React inside the wakeup
		// (SetWakeDelay); pay it explicitly only when work arrived while
		// the worker was still running.
		if !waited && m.cfg.React > 0 {
			p.Sleep(m.cfg.React)
		}
		waited = false
		m.node.Acquire(p)
		end := m.rec.Span("pioman", "sweep")
		m.sweeping++
		n, ev := 0, 0
		for {
			w.notified = false
			dn := m.runTasks(p, w, true)
			de := m.pollShard(p, w)
			n += dn
			ev += de
			// Keep sweeping while anything happened: one source's events
			// may enable another's (e.g. an arrival parsed into the
			// library's buffers that the ANY_SOURCE probe then matches).
			if dn+de == 0 && w.noTasks() && !w.notified {
				if multi && m.trySteal(w) {
					continue
				}
				break
			}
		}
		m.sweeping--
		if m.sweeping == 0 {
			m.flushWakes()
		}
		end()
		m.node.Release()
		m.bgPolls.Inc()
		m.bgEvents.Add(int64(ev))
		w.polls.Inc()
		w.events.Add(int64(ev))
		_ = n
		// Broadcast even when the sweep found no source events: a
		// notification may correspond to a request completed by an
		// engine-side event (e.g. a NIC send-completion), and blocked
		// threads re-check their predicates cheaply.
		m.Completion.Broadcast()
	}
}

// Stop terminates the background workers (call at MPI finalize so the
// simulation can drain).
func (m *Manager) Stop() {
	m.stopped = true
	for _, w := range m.workers {
		// Wake without the reaction delay: the worker only observes
		// stopped and exits, and finalize should not drift by React.
		w.work.SetWakeDelay(0)
		w.work.Broadcast()
	}
}
