package mpi

import (
	"repro/internal/coll"
	"repro/internal/trace"
)

// The per-communicator schedule cache gives collectives persistent-schedule
// semantics (libNBC's NBC_Handle reuse): the first invocation of a shape —
// identified by coll.Key (operation, algorithm, root, counts) — compiles a
// plan; repeats look it up and execute it with zero compile work. A plan
// names regions, not memory, and every execution binds its own buffers and
// scratch, so any number of same-shape ops share one plan, in flight at
// once or not, aliased views included. Rank, size and topology are fixed
// per communicator, so the key fully determines the plan. Cached and
// uncached execution are identical in virtual time: compilation is host
// work, invisible to the simulation — the cache removes host overhead and
// allocation churn from hot loops without perturbing results (asserted by
// TestSchedCacheDeterminism).
type schedCache struct {
	plans    map[coll.Key]*coll.Schedule
	compiles int64
	hits     int64

	// Registry counters, resolved once (the hit path must not do map
	// lookups in the registry).
	compilesCtr *trace.Counter
	hitsCtr     *trace.Counter
}

// ensureCache creates the cache on first use.
func (c *Comm) ensureCache() *schedCache {
	if c.cache == nil {
		c.cache = &schedCache{
			plans:       make(map[coll.Key]*coll.Schedule),
			compilesCtr: c.met.Counter(trace.CtrSchedCompiles),
			hitsCtr:     c.met.Counter(trace.CtrSchedHits),
		}
	}
	return c.cache
}

// schedEvent annotates a cache decision on the trace: the op/algorithm pair
// and whether the call compiled a plan or hit a cached one.
func (c *Comm) schedEvent(what string, key coll.Key) {
	if c.rec.Enabled() {
		c.rec.Instant("sched", what,
			trace.Str("op", key.Op.String()), trace.Str("algo", key.Algo.String()))
	}
}

// cachedPlan returns the plan for key, compiling it from a's shape on a
// miss (and on every call under Config.NoSchedCache).
func (c *Comm) cachedPlan(key coll.Key, a coll.Args) *coll.Schedule {
	cc := c.ensureCache()
	if s, ok := cc.plans[key]; ok {
		cc.hits++
		cc.hitsCtr.Inc()
		c.schedEvent("hit", key)
		return s
	}
	s := coll.Build(key, a)
	if !c.cfg.NoSchedCache {
		cc.plans[key] = s
	}
	cc.compiles++
	cc.compilesCtr.Inc()
	c.schedEvent("compile", key)
	return s
}

// SchedCacheStats reports how many schedules this communicator compiled and
// how many invocations reused a cached one — instrumentation for tests and
// cmd/collbench. It counts per communicator; the registry's
// coll.sched_compiles / coll.sched_hits sum every communicator of the rank.
func (c *Comm) SchedCacheStats() (compiles, hits int64) {
	if c.cache == nil {
		return 0, 0
	}
	return c.cache.compiles, c.cache.hits
}
