// Package packetsim is a deterministic discrete-event packet-level
// simulator used for the latency/queueing experiments. Packets follow
// precomputed source routes; every directed link has a serializing
// transmitter, a propagation delay, and a drop-tail queue.
//
// The simulator substitutes for the testbed/ns-style packet simulation of
// the original evaluation: it reproduces queueing delay, loss under
// overload, and the relative latency ordering between structures, which is
// what the figures compare.
//
// The event core is built for sweep-heavy evaluation: events are unboxed
// values in an eventq queue (no allocation per event), routes are compiled
// once per (topology, workload) into flat link-resource arrays and cached
// across runs, and packets are injected lazily — one pending event per flow
// instead of materializing every packet up front — so the queue stays
// O(flows + in-flight) no matter how heavy the workload. The datagram model
// has one event loop, the sharded one in shardrun.go; Run is its one-shard
// case. Its fixed-size packets cross identical links, so its event times
// fall on a grid (a 12,288-server permutation pops about 564 events per
// distinct time), and it runs on eventq.Batched, which sorts each time's
// events once instead of sifting every event through a heap. The transport
// engines' events rarely share a time (about 1.1 per time in the F30 storm
// cells), so they keep the 4-ary eventq.Queue. The pre-overhaul engines
// survive in reference.go, on container/heap, as the oracle the equivalence
// tests pin these results against, event for event.
package packetsim

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Config parameterizes the simulated hardware.
type Config struct {
	// LinkBandwidthBps is the transmit rate of each link direction in
	// bytes per second.
	LinkBandwidthBps float64
	// LinkDelaySec is the per-link propagation (plus switching) delay.
	LinkDelaySec float64
	// QueueLimitPackets is the drop-tail queue capacity per link direction.
	QueueLimitPackets int
	// MTU is the packet size in bytes.
	MTU int
	// FlowRateBps is the per-flow injection rate in bytes per second.
	FlowRateBps float64

	// Metrics, when non-nil, receives run instrumentation: delivered/dropped
	// counters, queue-depth, hop-count and end-to-end latency histograms
	// (see METRIC_* constants for the instrument names). Nil — the default —
	// disables metrics at the cost of a pointer test per packet event.
	Metrics *obs.Registry
	// Trace, when non-nil, records one obs.Event per packet hop ("hop"),
	// delivery ("deliver") and drop ("drop", Detail "droptail"), stamped
	// with simulated time in nanoseconds. Nil disables tracing.
	Trace *obs.Tracer
	// Series, when non-nil, receives sim-time-windowed telemetry: per-window
	// goodput, drop-cause, and queue-depth curves (see the Series* track
	// names in series.go; the transport engines add retransmit, failover,
	// and reroute curves). The windowed cells are byte-identical for every
	// shard and worker count. Nil disables the layer.
	Series *obs.Series

	// Faults, when non-nil, is a live fault-injection schedule: its timed
	// down/up events flow through the event queue alongside packets, and a
	// packet transmitted across a dead link or node drops with the
	// DropCauseFault cause. Nil (the default) leaves the run bit-identical
	// to the fault-free engine.
	Faults *failure.FaultPlan
	// Timeline, when non-nil (and Faults is set), receives per-epoch
	// delivery/drop statistics — one epoch per fault-event boundary. A
	// Timeline must not be shared across concurrent runs.
	Timeline *Timeline
}

// Instrument names registered on Config.Metrics by Run.
const (
	MetricDelivered   = "packetsim_delivered"
	MetricDroppedTail = "packetsim_dropped_droptail"
	MetricQueueDepth  = "packetsim_queue_depth_pkts"
	MetricHops        = "packetsim_hops"
	MetricLatencyNs   = "packetsim_latency_ns"
)

// Default returns a GbE-like configuration: 125 MB/s links, 1 us delay,
// 100-packet queues, 1500-byte packets, flows injecting at link rate.
func Default() Config {
	return Config{
		LinkBandwidthBps:  125e6,
		LinkDelaySec:      1e-6,
		QueueLimitPackets: 100,
		MTU:               1500,
		FlowRateBps:       125e6,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	// Written as !(x > 0) so NaN fails too: a NaN or infinite rate or delay
	// makes event times NaN or infinite, and the queues cannot order NaN.
	if !(c.LinkBandwidthBps > 0) || math.IsInf(c.LinkBandwidthBps, 0) ||
		!(c.FlowRateBps > 0) || math.IsInf(c.FlowRateBps, 0) {
		return fmt.Errorf("packetsim: bandwidth and flow rate must be positive and finite")
	}
	if c.MTU <= 0 {
		return fmt.Errorf("packetsim: MTU must be positive")
	}
	if c.QueueLimitPackets < 1 {
		return fmt.Errorf("packetsim: queue limit must be >= 1")
	}
	if !(c.LinkDelaySec >= 0) || math.IsInf(c.LinkDelaySec, 0) {
		return fmt.Errorf("packetsim: link delay must be finite and non-negative")
	}
	return nil
}

// Result summarizes one simulation run.
type Result struct {
	// Delivered and Dropped count packets (Dropped is drop-tail overflow).
	Delivered, Dropped int
	// DroppedFault counts packets lost to a failed link or node while a
	// fault plan was active (always 0 without one).
	DroppedFault int
	// AvgLatencySec and P99LatencySec summarize delivered-packet latency.
	AvgLatencySec, P99LatencySec float64
	// MakespanSec is the time the last packet was delivered.
	MakespanSec float64
	// ThroughputBps is delivered bytes divided by the makespan.
	ThroughputBps float64
}

// DropRate returns dropped (any cause) / offered.
func (r Result) DropRate() float64 {
	total := r.Delivered + r.Dropped + r.DroppedFault
	if total == 0 {
		return 0
	}
	return float64(r.Dropped+r.DroppedFault) / float64(total)
}

// simEvent is an unboxed event payload: packet pn of flow has just reached
// position idx of its path. idx == 0 means the packet is being injected at
// its source (forwarded arrivals always have idx >= 1), which doubles as
// the cue to schedule the flow's next injection. The packet's send time and
// trace id derive from (flow, pn), so the event is 12 bytes with no
// pointers: with its time and seq key, a heap entry is 32 bytes, and an
// event in one of eventq.Batched's same-time buckets is 24. A negative flow
// marks a fault-plan event instead: pn indexes the plan and idx is unused.
type simEvent struct {
	flow int32
	pn   int32 // packet number within the flow
	idx  int32 // index into the flow's path of the node just reached
}

// Run simulates the given workload on a structure, routing each flow with
// the structure's own routing algorithm and injecting its packets at the
// configured flow rate starting at time zero. It is the one-shard case of
// RunSharded, so it shares that engine's content-keyed semantics: same-time
// events pop in packet-id order, and the mean latency is summed over the
// sorted samples.
func Run(t topology.Topology, flows []traffic.Flow, cfg Config) (Result, error) {
	return RunSharded(t, flows, cfg, ShardOpts{Shards: 1})
}

// flowsimRoute mirrors flowsim.RoutePaths without importing it (avoiding a
// dependency between the two simulators).
func flowsimRoute(t topology.Topology, flows []traffic.Flow) ([]topology.Path, error) {
	servers := t.Network().Servers()
	paths := make([]topology.Path, len(flows))
	for i, f := range flows {
		if f.Src < 0 || f.Src >= len(servers) || f.Dst < 0 || f.Dst >= len(servers) {
			return nil, fmt.Errorf("packetsim: flow %d endpoints out of range", i)
		}
		p, err := t.Route(servers[f.Src], servers[f.Dst])
		if err != nil {
			return nil, fmt.Errorf("packetsim: route flow %d: %w", i, err)
		}
		paths[i] = p
	}
	return paths, nil
}
