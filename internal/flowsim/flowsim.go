// Package flowsim is a flow-level network simulator: given a set of flows
// with fixed paths over a built network, it computes the max-min fair
// bandwidth allocation by progressive filling and derives the throughput
// metrics the paper family reports — most importantly the aggregate
// bottleneck throughput (ABT) of BCube's evaluation methodology (number of
// flows times the rate of the slowest flow).
package flowsim

import (
	"fmt"
	"math"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// DefaultCapacity is the per-link capacity in rate units (1.0 = one line
// rate; all links in a commodity DCN run at the same speed).
const DefaultCapacity = 1.0

// Assignment is the result of the max-min fair allocation.
type Assignment struct {
	// Rates[i] is the allocated rate of the i-th input flow.
	Rates []float64
	// Flows is the number of allocated flows.
	Flows int
}

// MinRate returns the rate of the slowest flow (0 when there are no flows).
func (a Assignment) MinRate() float64 {
	if len(a.Rates) == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, r := range a.Rates {
		if r < min {
			min = r
		}
	}
	return min
}

// SumRate returns the total allocated throughput.
func (a Assignment) SumRate() float64 {
	total := 0.0
	for _, r := range a.Rates {
		total += r
	}
	return total
}

// ABT returns the aggregate bottleneck throughput: flows × bottleneck rate.
// It is the metric of the BCube evaluation that the ABCCC simulations adopt:
// with an all-to-all shuffle, the job finishes when the slowest flow does.
func (a Assignment) ABT() float64 {
	return float64(a.Flows) * a.MinRate()
}

// MaxMinFair computes the max-min fair allocation of unit-capacity links
// among the given paths by progressive filling: all unfrozen flows grow at
// the same rate; when a link saturates, its flows freeze; repeat.
//
// Paths must be node paths over net (as produced by topology routing). Links
// are full duplex: each direction of a cable is its own capacity-limited
// resource, as in a real data center.
func MaxMinFair(net *topology.Network, paths []topology.Path) (Assignment, error) {
	return MaxMinFairCapacity(net, paths, DefaultCapacity)
}

// RoutePaths routes every flow of a workload on the given structure,
// translating the workload's server indices to node ids via the network's
// server list.
func RoutePaths(t topology.Topology, flows []traffic.Flow) ([]topology.Path, error) {
	servers := t.Network().Servers()
	paths := make([]topology.Path, len(flows))
	for i, f := range flows {
		if f.Src < 0 || f.Src >= len(servers) || f.Dst < 0 || f.Dst >= len(servers) {
			return nil, fmt.Errorf("flowsim: flow %d endpoints (%d,%d) out of %d servers",
				i, f.Src, f.Dst, len(servers))
		}
		p, err := t.Route(servers[f.Src], servers[f.Dst])
		if err != nil {
			return nil, fmt.Errorf("flowsim: route flow %d: %w", i, err)
		}
		paths[i] = p
	}
	return paths, nil
}
