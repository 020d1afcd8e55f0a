// Package topo describes simulated cluster topologies: nodes, cores and the
// placement of MPI ranks onto nodes. It mirrors the two testbeds used in the
// paper (two dual-quadcore Xeon boxes for the point-to-point experiments and
// ten 4-core Opteron nodes on Grid5000 for the NAS runs).
package topo

import "fmt"

// Cluster describes a homogeneous set of nodes.
type Cluster struct {
	Name         string
	NumNodes     int
	CoresPerNode int
	// FlopsPerCore is the sustained floating-point rate of one core in
	// operations per second; NAS kernels use it to convert operation counts
	// into virtual compute time.
	FlopsPerCore float64
	// MemBWBytes is the per-node memory copy bandwidth in bytes per second,
	// used by the shared-memory channel cost model.
	MemBWBytes float64
}

// Validate reports whether the cluster description is self-consistent.
func (c Cluster) Validate() error {
	if c.NumNodes <= 0 {
		return fmt.Errorf("topo: cluster %q has %d nodes", c.Name, c.NumNodes)
	}
	if c.CoresPerNode <= 0 {
		return fmt.Errorf("topo: cluster %q has %d cores per node", c.Name, c.CoresPerNode)
	}
	if c.FlopsPerCore <= 0 {
		return fmt.Errorf("topo: cluster %q has non-positive flops rate", c.Name)
	}
	if c.MemBWBytes <= 0 {
		return fmt.Errorf("topo: cluster %q has non-positive memory bandwidth", c.Name)
	}
	return nil
}

// TotalCores returns the number of cores across the cluster.
func (c Cluster) TotalCores() int { return c.NumNodes * c.CoresPerNode }

// Placement maps each rank to the node hosting it.
type Placement []int

// RoundRobin places np ranks cyclically over nodes: rank r on node r%nodes.
// This is the scatter placement the paper uses on Grid5000 (8 processes on
// 10 nodes means at most one process per node, so no shared memory traffic).
func RoundRobin(np, nodes int) Placement {
	p := make(Placement, np)
	for r := range p {
		p[r] = r % nodes
	}
	return p
}

// Block places np ranks in contiguous blocks: node 0 fills first.
func Block(np, nodes int) Placement {
	p := make(Placement, np)
	per := (np + nodes - 1) / nodes
	for r := range p {
		p[r] = r / per
	}
	return p
}

// NodeOf returns the node hosting rank r.
func (p Placement) NodeOf(r int) int { return p[r] }

// SameNode reports whether ranks a and b share a node.
func (p Placement) SameNode(a, b int) bool { return p[a] == p[b] }

// RanksOnNode returns all ranks placed on node n, in rank order.
func (p Placement) RanksOnNode(n int) []int {
	var rs []int
	for r, node := range p {
		if node == n {
			rs = append(rs, r)
		}
	}
	return rs
}

// MaxRanksPerNode returns the largest number of ranks any node hosts.
func (p Placement) MaxRanksPerNode(nodes int) int {
	counts := make([]int, nodes)
	max := 0
	for _, n := range p {
		counts[n]++
		if counts[n] > max {
			max = counts[n]
		}
	}
	return max
}

// Validate checks the placement fits the cluster (enough cores per node).
func (p Placement) Validate(c Cluster) error {
	for r, n := range p {
		if n < 0 || n >= c.NumNodes {
			return fmt.Errorf("topo: rank %d placed on node %d of %d", r, n, c.NumNodes)
		}
	}
	if m := p.MaxRanksPerNode(c.NumNodes); m > c.CoresPerNode {
		return fmt.Errorf("topo: %d ranks on one node exceeds %d cores", m, c.CoresPerNode)
	}
	return nil
}

// Xeon2 is the point-to-point testbed of §4.1: two boxes with two quad-core
// 3.16 GHz Intel Xeon CPUs and 4 GB of memory each.
func Xeon2() Cluster {
	return Cluster{
		Name:         "xeon2",
		NumNodes:     2,
		CoresPerNode: 8,
		FlopsPerCore: 3.0e9, // ~1 flop/cycle sustained at 3.16 GHz
		MemBWBytes:   4.0e9,
	}
}

// Grid5000 is the NAS testbed of §4.2: ten nodes, four dual-core 2.6 GHz
// AMD Opteron 2218 CPUs (8 cores) and 32 GB per node.
func Grid5000() Cluster {
	return Cluster{
		Name:         "grid5000",
		NumNodes:     10,
		CoresPerNode: 8,
		FlopsPerCore: 2.4e9,
		MemBWBytes:   3.2e9,
	}
}

// XeonRacks scales the Xeon testbed out to nodes boxes behind one flat
// switch. This is the NP-scale machine the large collective runs use —
// per-node parameters match Xeon2 so small and large runs stay comparable.
func XeonRacks(nodes int) Cluster {
	return Cluster{
		Name:         "xeonracks",
		NumNodes:     nodes,
		CoresPerNode: 8,
		FlopsPerCore: 3.0e9,
		MemBWBytes:   4.0e9,
	}
}
