package bench

import (
	"testing"

	"repro/cluster"
	"repro/internal/coll"
)

// stripeBcast measures a chain bcast of 1 MiB between two single-rank nodes
// — every hop of the chain crosses the network, so the virtual time is a
// pure measure of inter-node transfer capability.
func stripeBcast(t *testing.T, stack cluster.Stack, seg, stripe int) CollBenchResult {
	t.Helper()
	r, err := CollBenchOnce(stack, CollBenchOptions{
		Op: "bcast", Bytes: 1 << 20, Iters: 4, NP: 2,
		Algo: coll.AlgoChain, Seg: seg, Stripe: stripe,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStripedBcastBandwidthAdditivity is the end-to-end bandwidth claim of
// rail striping: on the heterogeneous two-rail stack (IB + MX), the striped
// chain bcast at 1 MiB must beat the best single rail's virtual time by at
// least 1.5× — the two rails' bandwidths add, they don't just average.
func TestStripedBcastBandwidthAdditivity(t *testing.T) {
	const seg = 64 << 10
	striped := stripeBcast(t, cluster.MPICH2NmadMulti(), seg, 2).PerOp
	ib := stripeBcast(t, cluster.MPICH2NmadIB(), seg, 0).PerOp
	mx := stripeBcast(t, cluster.MPICH2NmadMX(), seg, 0).PerOp
	best := ib
	if mx < best {
		best = mx
	}
	if ratio := best / striped; ratio < 1.5 {
		t.Fatalf("striped bcast %.1fµs vs best single rail %.1fµs: ratio %.2f < 1.5 — rails not additive",
			striped*1e6, best*1e6, ratio)
	}
}

// TestStripedBeatsUnstripedEagerSegments pins down the regime where the
// schedule-level stripe is the only mechanism in play: 32 KiB segments sit
// at the eager threshold, so unstriped they ride the single best rail whole
// (the rendezvous split strategy never sees them). The stripe hint forces
// them through the offset-addressed rendezvous path across both rails and
// must win despite the per-segment handshake.
func TestStripedBeatsUnstripedEagerSegments(t *testing.T) {
	const seg = 32 << 10
	stack := cluster.MPICH2NmadMulti()
	unstriped := stripeBcast(t, stack, seg, 0)
	striped := stripeBcast(t, stack, seg, 2)
	if striped.PerOp >= unstriped.PerOp {
		t.Fatalf("striped %.1fµs not faster than unstriped %.1fµs at eager-sized segments",
			striped.PerOp*1e6, unstriped.PerOp*1e6)
	}
	// The per-rail counters must show real payload on both wires for the
	// striped run. The unstriped run keeps the payload on one rail (only
	// control-sized traffic elsewhere).
	if len(striped.Counters.Rails) != 2 {
		t.Fatalf("expected two rail counters, got %v", striped.Counters.Rails)
	}
	for _, rc := range striped.Counters.Rails {
		if rc.Bytes < 1<<20 {
			t.Errorf("striped run: rail %s carried only %d bytes", rc.Name, rc.Bytes)
		}
	}
	minU, maxU := unstriped.Counters.Rails[0].Bytes, unstriped.Counters.Rails[0].Bytes
	for _, rc := range unstriped.Counters.Rails[1:] {
		if rc.Bytes < minU {
			minU = rc.Bytes
		}
		if rc.Bytes > maxU {
			maxU = rc.Bytes
		}
	}
	if minU > maxU/10 {
		t.Errorf("unstriped run should keep the payload on one rail, got %v", unstriped.Counters.Rails)
	}
}

// TestSingleRailStackIgnoresStripe: forcing a stripe width on a single-rail
// stack must be a bit-exact no-op — the width resolves to zero before it can
// perturb selection, keys, or schedules.
func TestSingleRailStackIgnoresStripe(t *testing.T) {
	plain := stripeBcast(t, cluster.MPICH2NmadIB(), 64<<10, 0)
	forced := stripeBcast(t, cluster.MPICH2NmadIB(), 64<<10, 2)
	if plain.PerOp != forced.PerOp {
		t.Fatalf("stripe width changed a single-rail run: %.3fµs vs %.3fµs",
			plain.PerOp*1e6, forced.PerOp*1e6)
	}
}
