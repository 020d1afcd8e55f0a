// Package cluster provides the calibrated testbed and MPI-stack presets used
// throughout the reproduction: the rails (Infiniband ConnectX 10G, Myri-10G
// MX), the paper's two testbeds, and one Stack per MPI implementation
// evaluated in §4 — MPICH2-NewMadeleine (with and without PIOMan, single and
// multirail), MVAPICH2 1.0.3, Open MPI 1.2.7 (openib, MX BTL and MX CM), and
// the generic Nemesis module used as an ablation baseline.
//
// Calibration targets come from the paper's own reported endpoints: one-way
// small-message latencies of ≈1.5 µs (MVAPICH2), ≈1.6 µs (Open MPI), ≈2.1 µs
// (MPICH2-NMad), +300 ns with ANY_SOURCE, +450 ns/+2 µs with PIOMan over
// shm/network, and large-message bandwidths near the wire rates (~1200 MB/s
// Infiniband 10G, ~1150 MB/s Myri-10G, additive in the multirail case).
package cluster

import (
	"repro/internal/ch3"
	"repro/internal/core"
	"repro/internal/nemesis"
	"repro/internal/nmad"
	"repro/internal/pioman"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/vtime"
)

// BackendKind selects how CH3 reaches the network.
type BackendKind int

const (
	// BackendDirect is the paper's contribution: CH3 bypasses Nemesis and
	// calls NewMadeleine directly (§3.1).
	BackendDirect BackendKind = iota
	// BackendPacket is a classic central-matching network module over a raw
	// rail (models MVAPICH2 / Open MPI).
	BackendPacket
	// BackendGenericNmad is NewMadeleine mounted as a plain Nemesis network
	// module, with CH3 keeping its own protocols — the nested-handshake
	// configuration of §2.1.3 (ablation baseline).
	BackendGenericNmad
)

// Stack bundles every knob of one MPI implementation model.
type Stack struct {
	Name    string
	Backend BackendKind
	Rails   []simnet.RailParams

	// NewMadeleine options (Direct and GenericNmad backends).
	Strategy     nmad.StrategyKind
	RdvThreshold int
	AggregMax    int

	// PIOMan regime.
	PIOMan     bool
	PioSyncShm vtime.Duration
	PioSyncNet vtime.Duration
	PioReact   vtime.Duration

	// Layer cost models.
	CH3    ch3.Config
	Shm    nemesis.Options
	Direct core.DirectConfig
	Packet core.PacketConfig

	// ComputeEff scales effective per-core compute throughput; it models
	// the process placement/affinity interference visible in the paper's
	// NAS numbers (Open MPI lagging on EP/LU regardless of process count).
	ComputeEff float64
}

// PioConfig materializes the PIOMan configuration.
func (s Stack) PioConfig() pioman.Config {
	return pioman.Config{
		Enabled: s.PIOMan,
		SyncShm: s.PioSyncShm,
		SyncNet: s.PioSyncNet,
		React:   s.PioReact,
	}
}

// WithPIOMan returns a copy of the stack with the PIOMan regime toggled.
func (s Stack) WithPIOMan(on bool) Stack {
	s.PIOMan = on
	if on {
		s.Name += "+pioman"
	}
	return s
}

// Efficiency returns the compute-efficiency factor (1.0 when unset).
func (s Stack) Efficiency() float64 {
	if s.ComputeEff <= 0 {
		return 1.0
	}
	return s.ComputeEff
}

// ---- rails ----------------------------------------------------------------

// RailIB models a ConnectX Infiniband 10G NIC driven through Verbs with
// dynamic on-the-fly registration (the NewMadeleine discipline, §4.1.1).
func RailIB() simnet.RailParams {
	return simnet.RailParams{
		Name:           "ib",
		Latency:        1100 * vtime.Nanosecond,
		BytesPerSec:    1.25e9,
		PerMsgHost:     150,
		HostCopyBW:     6e9,
		ChunkBytes:     64 << 10,
		PerChunkHost:   2500,
		RecvPerMsgHost: 120,
	}
}

// RailIBCached is the same NIC with a registration cache (MVAPICH2).
func RailIBCached() simnet.RailParams {
	r := RailIB()
	r.Name = "ib-cached"
	r.PerMsgHost = 100
	r.RegCache = true
	return r
}

// RailMX models a Myri-10G NIC with the MX interface.
func RailMX() simnet.RailParams {
	return simnet.RailParams{
		Name:           "mx",
		Latency:        1400 * vtime.Nanosecond,
		BytesPerSec:    1.15e9,
		PerMsgHost:     130,
		HostCopyBW:     6e9,
		ChunkBytes:     32 << 10,
		PerChunkHost:   2800,
		RecvPerMsgHost: 100,
	}
}

// ---- shared-memory models --------------------------------------------------

// shmNemesis is the Nemesis cell-queue cost model (lock-free queues, single
// receive queue): ≈0.2 µs half-round-trip at 1 byte.
func shmNemesis() nemesis.Options {
	return nemesis.Options{
		NumCells:    64,
		CellPayload: 32 << 10,
		MemBW:       4e9,
		EnqueueCost: 15,
		DequeueCost: 15,
		Visibility:  80,
	}
}

// shmOpenMPI models Open MPI 1.2.7's sm BTL: double-copy FIFOs, so the
// effective copy bandwidth is halved and the base cost higher (Fig. 6a).
func shmOpenMPI() nemesis.Options {
	o := shmNemesis()
	o.MemBW = 2e9
	o.EnqueueCost = 40
	o.DequeueCost = 40
	o.Visibility = 120
	return o
}

// ---- stacks ----------------------------------------------------------------

// mpich2CH3 is the common MPICH2 CH3 software cost (also used by the
// MVAPICH2 derivative).
func mpich2CH3() ch3.Config {
	return ch3.Config{SendSW: 40, RecvSW: 40, EagerShmMax: 64 << 10}
}

// MPICH2Nmad is MPICH2-NewMadeleine over the given rails (the paper's
// system). Multiple rails enable the split_balance multirail strategy.
func MPICH2Nmad(name string, rails ...simnet.RailParams) Stack {
	strat := nmad.StratAggreg
	if len(rails) > 1 {
		strat = nmad.StratSplitBalance
	}
	return Stack{
		Name:         name,
		Backend:      BackendDirect,
		Rails:        rails,
		Strategy:     strat,
		RdvThreshold: 32 << 10,
		AggregMax:    32 << 10,
		PioSyncShm:   450,
		PioSyncNet:   2000,
		PioReact:     100,
		CH3:          mpich2CH3(),
		Shm:          shmNemesis(),
		Direct: core.DirectConfig{
			GenericSend: 250,
			GenericRecv: 250,
			ASCheck:     300,
			ASProbe:     30,
		},
		ComputeEff: 1.0,
	}
}

// MPICH2NmadIB is MPICH2:Nem:Nmad over Infiniband.
func MPICH2NmadIB() Stack { return MPICH2Nmad("mpich2-nmad-ib", RailIB()) }

// MPICH2NmadMX is MPICH2:Nem:Nmad over Myrinet MX.
func MPICH2NmadMX() Stack { return MPICH2Nmad("mpich2-nmad-mx", RailMX()) }

// MPICH2NmadMulti is the heterogeneous multirail configuration of Fig. 5:
// one Infiniband rail plus one Myri-10G rail, split by sampling.
func MPICH2NmadMulti() Stack {
	return MPICH2Nmad("mpich2-nmad-multi-mx-ib", RailIB(), RailMX())
}

// MVAPICH2 models MVAPICH2 1.0.3: an MPICH2 derivative with an
// Infiniband-native module, registration cache, single-shot RDMA rendezvous.
func MVAPICH2() Stack {
	return Stack{
		Name:    "mvapich2",
		Backend: BackendPacket,
		Rails:   []simnet.RailParams{RailIBCached()},
		CH3:     mpich2CH3(),
		Shm:     shmNemesis(),
		Packet: core.PacketConfig{
			EagerMax:   16 << 10,
			Pipeline:   0,
			PacketCost: 100,
		},
		ComputeEff: 1.0,
	}
}

// RailIBOpenMPI is the Infiniband NIC as Open MPI 1.2.7's openib BTL drives
// it: pipelined send protocol with heavier per-chunk staging/registration
// work and no long-lived registration cache, which depresses medium-size
// bandwidth (Fig. 4b).
func RailIBOpenMPI() simnet.RailParams {
	r := RailIB()
	r.Name = "ib-openib"
	r.PerChunkHost = 6000
	return r
}

// OpenMPIIB models Open MPI 1.2.7 with the openib BTL (+IB MTL latencies):
// pipelined rendezvous without a long-lived registration cache.
func OpenMPIIB() Stack {
	return Stack{
		Name:    "openmpi-ib",
		Backend: BackendPacket,
		Rails:   []simnet.RailParams{RailIBOpenMPI()},
		CH3:     ch3.Config{SendSW: 120, RecvSW: 120, EagerShmMax: 64 << 10},
		Shm:     shmOpenMPI(),
		Packet: core.PacketConfig{
			EagerMax:   12 << 10,
			Pipeline:   128 << 10,
			PacketCost: 120,
		},
		ComputeEff: 0.90,
	}
}

// OpenMPIBTLMX is Open MPI's MX BTL (higher latency path, Fig. 6b/7a).
func OpenMPIBTLMX() Stack {
	return Stack{
		Name:    "openmpi-btl-mx",
		Backend: BackendPacket,
		Rails:   []simnet.RailParams{RailMX()},
		CH3:     ch3.Config{SendSW: 650, RecvSW: 650, EagerShmMax: 64 << 10},
		Shm:     shmOpenMPI(),
		Packet: core.PacketConfig{
			EagerMax:   12 << 10,
			Pipeline:   128 << 10,
			PacketCost: 480,
		},
		ComputeEff: 0.90,
	}
}

// OpenMPICMMX is Open MPI's MX MTL/CM path (library-side matching, lower
// latency than the BTL).
func OpenMPICMMX() Stack {
	return Stack{
		Name:    "openmpi-cm-mx",
		Backend: BackendPacket,
		Rails:   []simnet.RailParams{RailMX()},
		CH3:     ch3.Config{SendSW: 470, RecvSW: 470, EagerShmMax: 64 << 10},
		Shm:     shmOpenMPI(),
		Packet: core.PacketConfig{
			EagerMax:   32 << 10,
			Pipeline:   0,
			PacketCost: 300,
		},
		ComputeEff: 0.90,
	}
}

// MPICH2NemesisGeneric mounts NewMadeleine as a plain Nemesis network module
// (ablation for §2.1.3): channel copies on the send path, CH3-level matching
// and rendezvous, nested handshakes for large messages.
func MPICH2NemesisGeneric() Stack {
	s := MPICH2NmadIB()
	s.Name = "mpich2-nemesis-generic"
	s.Backend = BackendGenericNmad
	s.Packet = core.PacketConfig{
		EagerMax:   16 << 10,
		PacketCost: 120,
	}
	return s
}

// Xeon2 and Grid5000 re-export the paper's testbeds.
func Xeon2() topo.Cluster    { return topo.Xeon2() }
func Grid5000() topo.Cluster { return topo.Grid5000() }

// XeonRacks re-exports the scaled-out machine for NP-scale runs: n Xeon
// nodes behind one flat switch.
func XeonRacks(nodes int) topo.Cluster { return topo.XeonRacks(nodes) }
