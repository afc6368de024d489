// Live fault injection for the discrete-event engines. A failure.FaultPlan
// rides the same eventq queue as packet events: every scheduled down/up
// transition pops as an event, flips the run's graph.View, and opens a new
// epoch. Packets whose next hop touches a dead component drop with the
// DropCauseFault cause; the transport engine additionally reroutes timed-out
// flows around the failures (see transport.go). With a nil plan none of this
// machinery is armed and both engines are bit-identical to their reference
// runs.

package packetsim

import (
	"fmt"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topology"
)

// Drop causes recorded in trace events (obs.Event.Detail) and obs counters.
const (
	// DropCauseTail is a drop-tail queue overflow.
	DropCauseTail = "droptail"
	// DropCauseFault is a packet transmitted into a failed link or node.
	DropCauseFault = "fault"
)

// Fault-layer instrument names registered on the run's metrics registry.
const (
	MetricDroppedFault        = "packetsim_dropped_fault"
	MetricFaultEvents         = "packetsim_fault_events"
	MetricTransportFaultDrops = "transport_dropped_fault"
	MetricReroutes            = "transport_reroutes"
	MetricFailedFlows         = "transport_failed_flows"
	// Conservation probes: journeys started (a packet entering the network
	// at its source) and journeys finished at an endpoint. Together with the
	// drop-cause counters these satisfy
	//   sent == arrived + dropped(tail) + dropped(fault)
	// for data and ACK packets alike; the property tests pin this.
	MetricDataSent    = "transport_data_sent"
	MetricDataArrived = "transport_data_arrived"
	MetricAckSent     = "transport_ack_sent"
	MetricAckArrived  = "transport_ack_arrived"
)

// EpochStat aggregates one fault epoch: the interval between consecutive
// fault-plan event times (the first epoch starts at 0; the last ends at the
// run's makespan). Counters cover only what happened inside the interval.
type EpochStat struct {
	StartSec, EndSec float64
	// FaultEvents is the number of plan events applied at StartSec.
	FaultEvents int
	// Delivered counts packets reaching their destination (packet engine) or
	// newly acknowledged data packets (transport engine); DeliveredBytes is
	// the corresponding payload volume.
	Delivered      int64
	DeliveredBytes int64
	// Drop-cause counts.
	DroppedTail  int64
	DroppedFault int64
	// Transport-only: retransmissions, route recompilations, fast multipath
	// failovers, and flows that completed during the epoch.
	Retransmits    int64
	Reroutes       int64
	Failovers      int64
	CompletedFlows int64
}

// GoodputBps returns the epoch's delivered payload rate.
func (e EpochStat) GoodputBps() float64 {
	if e.EndSec <= e.StartSec {
		return 0
	}
	return float64(e.DeliveredBytes) / (e.EndSec - e.StartSec)
}

// Availability returns delivered / (delivered + dropped) over the epoch — the
// fraction of packet journeys that survived it. 1 when nothing moved.
func (e EpochStat) Availability() float64 {
	lost := e.DroppedTail + e.DroppedFault
	if e.Delivered+lost == 0 {
		return 1
	}
	return float64(e.Delivered) / float64(e.Delivered+lost)
}

// Timeline collects per-epoch statistics of one run. Attach a fresh Timeline
// per run via Config.Timeline / TransportConfig.Timeline; it is not safe to
// share across concurrent runs.
type Timeline struct {
	Epochs []EpochStat
}

// faultState is the live-failure state shared by both engines: the plan, the
// mutable view of currently-dead components, the epoch counter the transport
// engine's timeout revalidation keys on, and the accumulating epoch stats.
type faultState struct {
	plan  *failure.FaultPlan
	view  *graph.View
	epoch int32

	timeline *Timeline
	cur      EpochStat

	cEvents *obs.Counter
	tracer  *obs.Tracer
}

// newFaultState validates the plan against the network and arms the state.
func newFaultState(plan *failure.FaultPlan, net *topology.Network, timeline *Timeline, metrics *obs.Registry, tracer *obs.Tracer) (*faultState, error) {
	if err := plan.Validate(net); err != nil {
		return nil, fmt.Errorf("packetsim: %w", err)
	}
	return &faultState{
		plan:     plan,
		view:     graph.NewView(net.Graph()),
		timeline: timeline,
		cEvents:  metrics.Counter(MetricFaultEvents),
		tracer:   tracer,
	}, nil
}

// apply executes plan event i at simulated time now: the first event at a new
// boundary closes the running epoch, then the transition flips the view.
// Same-time events share one boundary (a burst is one epoch edge, not many).
func (s *faultState) apply(now float64, i int) {
	if now > s.cur.StartSec {
		s.closeEpoch(now)
	}
	s.cur.FaultEvents++
	s.epoch++
	ev := s.plan.Events[i]
	ev.Apply(s.view)
	s.cEvents.Inc()
	if s.tracer != nil {
		kind := "fault"
		if ev.Up {
			kind = "repair"
		}
		node := ev.Index
		if ev.Kind == failure.Links {
			node = -1
		}
		s.tracer.Record(obs.Event{TimeNs: int64(now * 1e9), Kind: kind,
			ID: int64(i), Node: node, Detail: ev.Kind.String()})
	}
}

// closeEpoch flushes the accumulating epoch as [cur.StartSec, endSec).
func (s *faultState) closeEpoch(endSec float64) {
	if s.timeline != nil {
		s.cur.EndSec = endSec
		s.timeline.Epochs = append(s.timeline.Epochs, s.cur)
	}
	s.cur = EpochStat{StartSec: endSec}
}

// finish closes the final epoch at the run's makespan (or the last fault
// event's time, whichever is later).
func (s *faultState) finish(makespanSec float64) {
	if s.timeline == nil {
		return
	}
	end := makespanSec
	if s.cur.StartSec > end {
		end = s.cur.StartSec
	}
	s.cur.EndSec = end
	s.timeline.Epochs = append(s.timeline.Epochs, s.cur)
}

// hopAlive reports whether the directed hop u->v over link resource res is
// fully alive: both endpoints up and the underlying cable (res >> 1) up.
func (s *faultState) hopAlive(u, v int, res int32) bool {
	return s.view.NodeUp(u) && s.view.NodeUp(v) && s.view.EdgeUp(int(res>>1))
}
