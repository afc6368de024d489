package packetsim

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TransportConfig parameterizes the Reno-like reliable transport that runs
// on top of the packet-level link model: slow start, congestion avoidance,
// fast retransmit on triple duplicate ACKs, and timeout recovery with
// exponential backoff. The original evaluation's simulations carry TCP
// flows; this reproduces their qualitative behaviour (losses become delay,
// not vanished traffic).
type TransportConfig struct {
	// Link is the underlying link/queue model.
	Link Config
	// AckBytes is the size of ACK packets (default 64).
	AckBytes int
	// InitCwnd and MaxCwnd bound the congestion window in packets.
	InitCwnd, MaxCwnd float64
	// RTOSec is the (fixed, deterministic) base retransmission timeout.
	RTOSec float64
	// DupAckThreshold triggers fast retransmit (default 3).
	DupAckThreshold int
	// MaxEvents aborts pathological runs (default 50e6).
	MaxEvents int64
	// ECN enables explicit congestion notification: packets enqueued behind
	// more than ECNThresholdPackets are marked instead of waiting for a
	// drop; the receiver echoes the mark and the sender halves its window
	// at most once per window of data (classic ECN-TCP). Congestion then
	// costs window reductions, not retransmissions.
	ECN                 bool
	ECNThresholdPackets int

	// Faults, when non-nil, injects the plan's timed down/up events into the
	// run. Packets transmitted across dead components drop with the
	// DropCauseFault cause, and a flow whose retransmission timer fires
	// after the failure set changed recompiles its route around the dead
	// components (structures implementing topology.FaultRouter; see
	// reroute). Nil keeps the engine bit-identical to the fault-free run.
	Faults *failure.FaultPlan
	// Timeline, when non-nil (and Faults is set), receives per-epoch
	// goodput/drop/reroute statistics. Not safe to share across runs.
	Timeline *Timeline
	// MaxFlowTimeouts aborts a flow after this many consecutive
	// retransmission timeouts without forward progress — the give-up that
	// lets a run terminate when failures permanently strand a flow (dead
	// endpoint, partitioned network). Only enforced while Faults is set;
	// 0 disables the cap.
	MaxFlowTimeouts int

	// Multipath arms proactive failover (multipath.go): each flow
	// precompiles up to MultipathPaths internally disjoint paths and
	// switches between them on fast-failover signals instead of waiting for
	// RTO. Only meaningful with Faults set — without a plan there are no
	// failures to react to and the engine stays bit-identical to the
	// single-path run.
	Multipath bool
	// MultipathPaths caps the per-flow path-set size; 0 means
	// DefaultMultipathPaths.
	MultipathPaths int

	// OnFlowDone, when non-nil, fires from inside the event loop as each
	// flow reaches its terminal state — completed (all bytes acked) or
	// aborted after MaxFlowTimeouts (completed=false) — in event order,
	// which is completion-time order with arrival order breaking ties.
	// Callbacks run at a safe point between events, so they may inject new
	// flows or schedule wakes on a TransportEngine (driver.go); this is how
	// closed-loop layers (retries, dependent RPCs) react deterministically.
	// Only the serial engine supports it: RunTransportSharded rejects a
	// config with a hook, since parallel shard drains would make callback
	// order depend on the worker schedule.
	OnFlowDone func(flow int, atSec float64, completed bool)
}

// DefaultTransport returns a GbE NewReno-ish configuration.
func DefaultTransport() TransportConfig {
	// MaxCwnd sits below the default queue depth so a lone flow never
	// overruns its own bottleneck buffer (the data-center BDP here is about
	// one packet; the window only fills queues). RTO is 1 ms, the usual
	// DCN-simulation value.
	return TransportConfig{
		Link:                Default(),
		AckBytes:            64,
		InitCwnd:            2,
		MaxCwnd:             64,
		RTOSec:              1e-3,
		DupAckThreshold:     3,
		MaxEvents:           50e6,
		ECNThresholdPackets: 20,
		MaxFlowTimeouts:     30,
	}
}

// Validate reports whether the configuration is usable.
func (c TransportConfig) Validate() error {
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if c.AckBytes <= 0 || c.InitCwnd < 1 || c.MaxCwnd < c.InitCwnd {
		return fmt.Errorf("packetsim: transport window/ack parameters invalid")
	}
	if !(c.RTOSec > 0) || math.IsInf(c.RTOSec, 0) {
		return fmt.Errorf("packetsim: RTO must be positive and finite")
	}
	if c.DupAckThreshold < 1 {
		return fmt.Errorf("packetsim: dup-ack threshold must be >= 1")
	}
	if c.MaxEvents < 1000 {
		return fmt.Errorf("packetsim: MaxEvents too small")
	}
	if c.ECN && c.ECNThresholdPackets < 1 {
		return fmt.Errorf("packetsim: ECN threshold must be >= 1")
	}
	if c.MaxFlowTimeouts < 0 {
		return fmt.Errorf("packetsim: MaxFlowTimeouts must be >= 0")
	}
	if c.MultipathPaths < 0 {
		return fmt.Errorf("packetsim: MultipathPaths must be >= 0")
	}
	return nil
}

// TransportResult summarizes a reliable-transport run.
type TransportResult struct {
	// CompletedFlows counts flows that delivered all their bytes.
	CompletedFlows int
	// FailedFlows counts flows that gave up after MaxFlowTimeouts
	// consecutive timeouts (fault runs only).
	FailedFlows int
	// Retransmits counts data packets sent more than once.
	Retransmits int
	// Reroutes counts per-flow route recompilations around failures.
	Reroutes int
	// DroppedFault and DroppedStale count packets lost to dead components
	// and to route changes while in flight (fault runs only).
	DroppedFault, DroppedStale int
	// Failovers counts fast failovers (fault-epoch or dup-ACK triggered
	// path changes that skipped the RTO wait); PathSwitches counts every
	// scoreboard activation including RTO-driven ones and reverts;
	// ProbeSuccesses and ProbeFailures count probation re-probe outcomes
	// (multipath runs only).
	Failovers, PathSwitches       int
	ProbeSuccesses, ProbeFailures int
	// ECNMarks counts congestion marks applied (ECN mode only).
	ECNMarks int
	// MeanFCTSec, P99FCTSec, MakespanSec summarize completion times of the
	// completed flows.
	MeanFCTSec, P99FCTSec, MakespanSec float64
	// GoodputBps is unique payload bytes delivered divided by the makespan.
	GoodputBps float64
}

// Instrument names registered on TransportConfig.Link.Metrics by
// RunTransport. Queue-depth observations reuse MetricQueueDepth.
const (
	MetricRetransmits    = "transport_retransmits"
	MetricECNMarks       = "transport_ecn_marks"
	MetricCompletedFlows = "transport_completed_flows"
	MetricTransportDrops = "transport_dropped_droptail"
)

// tflow is the per-flow sender/receiver state. Flows live in one flat slice
// per run; the forward node path and compiled per-hop link resources alias
// the run's shared routePlan. The reverse (ACK) direction needs no
// materialized path: node i of the reverse path is fwd[len-1-i] and the
// resource of reverse hop i is res[len-2-i]^1 (the paired direction of the
// mirrored forward hop).
type tflow struct {
	fwd   topology.Path
	res   []int32 // forward per-hop link resources (len(fwd)-1)
	total int     // packets to deliver

	// Sender.
	nextSend int
	acked    int // cumulative: all seq < acked are delivered
	dupAcks  int
	inflight int
	cwnd     float64
	ssthresh float64
	rto      float64
	timerGen int32
	done     bool
	start    float64 // arrival time
	finish   float64 // absolute completion time

	// Fault-run state. routeEpoch versions the flow's compiled route:
	// every data/ACK packet is stamped with it at send time, and a packet
	// whose stamp no longer matches is stale (its path no longer exists)
	// and silently lost. planEpoch records the fault epoch the route was
	// last validated against, so a timeout recompiles at most once per
	// failure-set change. timeouts counts consecutive RTOs without
	// progress; aborted marks a flow that gave up.
	routeEpoch int32
	planEpoch  int32
	timeouts   int
	aborted    bool
	started    bool // the flow's start event has fired

	// Multipath scoreboard (multipath.go; nil alts when the layer is off).
	// alts[0] aliases the shared routePlan primary; cur is the active index,
	// -1 after falling off the scoreboard onto a RouteAvoiding recompile.
	// probing marks benched paths awaiting a probe; probeGen invalidates
	// superseded probe events; backoff is each path's next probation length.
	alts     []pathAlt
	cur      int
	probing  []bool
	probeGen []int32
	backoff  []float64

	// Receiver.
	rcvNext int
	buffer  map[int]bool // out-of-order packets held, allocated on first use
	rcvCE   bool         // a congestion mark awaits echoing

	// ECN sender state: ignore echoes until this seq is acked (one window
	// reduction per window of data).
	ecnHoldUntil int
}

// tevent kinds. Timer events carry the timer generation in gen; data and
// ACK arrivals carry the data sequence / cumulative ack in seq, their path
// position in idx, and the sending flow's route epoch in gen. Fault events
// carry the fault-plan index in seq. Probe events carry the scoreboard path
// index in seq and the probe generation in gen. Wake events (TransportEngine
// callbacks, driver.go) carry the callback slot in seq.
const (
	tevData = iota
	tevAck
	tevTimer
	tevStart
	tevFault
	tevProbe
	tevWake
)

// tevent is an unboxed transport event: a data or ACK packet reaching
// position idx of its path, a retransmission timer, a flow start, or a
// fault-plan transition. One 16-byte value replaces the old engine's
// heap-allocated tpkt plus boxed container/heap entry.
type tevent struct {
	flow int32
	seq  int32 // data sequence / cumulative ack (tevData, tevAck); plan index (tevFault)
	gen  int32 // timer generation (tevTimer); route epoch (tevData, tevAck)
	idx  int16 // position along the packet's path
	kind uint8
	ce   bool // congestion experienced (data) / echoed (ACKs)
}

// transportRun is the mutable simulation state.
type transportRun struct {
	cfg    TransportConfig
	flows  []tflow
	q      tqueue
	ord    int64
	now    float64
	events int64

	linkFree   []float64
	retransmit int
	ecnMarks   int

	// Fault-run state: the live failure view/epoch, the structure's
	// fault-tolerant router for recompiles (nil if not implemented), and
	// the graph for flattening rerouted paths into link resources.
	fs          *faultState
	frouter     topology.FaultRouter
	g           *graph.Graph
	net         *topology.Network
	reroutes    int
	faultDrops  int
	staleDrops  int
	failedFlows int

	// Multipath state (multipath.go): the path cap (0 = layer off) and the
	// failover/probe tallies.
	mpK          int
	failovers    int
	pathSwitches int
	probeOK      int
	probeFail    int

	// Closed-loop state (driver.go). Terminal-flow notifications are staged
	// on doneq during event handling and dispatched between events: onAck
	// and onTimer hold *tflow pointers into r.flows, which an OnFlowDone
	// callback injecting new flows would invalidate. wakes holds Schedule
	// callbacks by slot (tevWake events carry the slot in seq); wakeFree
	// recycles slots so long closed-loop runs don't grow the table.
	doneq    []flowDone
	wakes    []func(nowSec float64)
	wakeFree []int32

	// Hoisted nil-able instruments (see TransportConfig.Link.Metrics).
	cRtx, cECN, cDone, cDrops              *obs.Counter
	cFault, cStale, cReroute, cFailed      *obs.Counter
	cDataSent, cDataArr, cAckSent, cAckArr *obs.Counter
	cFailover, cSwitch                     *obs.Counter
	cProbeOK, cProbeFail                   *obs.Counter
	cPathBytes                             []*obs.Counter
	hQueue                                 *obs.Histogram
	tracer                                 *obs.Tracer
	st                                     seriesTracks
}

// flowDone is one staged terminal-flow notification (see doneq).
type flowDone struct {
	flow      int32
	at        float64
	completed bool
}

// push enqueues ev with the next ordinal, preserving the reference engine's
// push-order tie-break. Retransmission timers go through armTimer instead.
func (r *transportRun) push(t float64, ev tevent) {
	r.ord++
	r.q.push(t, r.ord, ev)
}

// newTransportRun builds the mutable run state shared by RunTransport and
// the closed-loop TransportEngine: hoisted instruments, the fault state with
// its timed transition events, and the multipath tallies. numRes is the
// linkFree table size (2 * NumEdges). The caller supplies flows.
func newTransportRun(t topology.Topology, cfg TransportConfig, numRes int) (*transportRun, error) {
	run := &transportRun{
		cfg:       cfg,
		linkFree:  make([]float64, numRes),
		g:         t.Network().Graph(),
		net:       t.Network(),
		cRtx:      cfg.Link.Metrics.Counter(MetricRetransmits),
		cECN:      cfg.Link.Metrics.Counter(MetricECNMarks),
		cDone:     cfg.Link.Metrics.Counter(MetricCompletedFlows),
		cDrops:    cfg.Link.Metrics.Counter(MetricTransportDrops),
		cFault:    cfg.Link.Metrics.Counter(MetricTransportFaultDrops),
		cStale:    cfg.Link.Metrics.Counter(MetricTransportStaleDrops),
		cReroute:  cfg.Link.Metrics.Counter(MetricReroutes),
		cFailed:   cfg.Link.Metrics.Counter(MetricFailedFlows),
		cDataSent: cfg.Link.Metrics.Counter(MetricDataSent),
		cDataArr:  cfg.Link.Metrics.Counter(MetricDataArrived),
		cAckSent:  cfg.Link.Metrics.Counter(MetricAckSent),
		cAckArr:   cfg.Link.Metrics.Counter(MetricAckArrived),
		hQueue:    cfg.Link.Metrics.Histogram(MetricQueueDepth),
		tracer:    cfg.Link.Trace,
		st:        newSeriesTracks(cfg.Link.Series),
	}
	if cfg.Faults != nil {
		var err error
		run.fs, err = newFaultState(cfg.Faults, t.Network(), cfg.Timeline, cfg.Link.Metrics, cfg.Link.Trace)
		if err != nil {
			return nil, err
		}
		run.frouter, _ = t.(topology.FaultRouter)
		// Fault events carry negative keys so a transition at time T applies
		// before any packet event at T, in plan order.
		for i, fe := range cfg.Faults.Events {
			run.q.push(fe.TimeSec, int64(i)-int64(len(cfg.Faults.Events)),
				tevent{kind: tevFault, seq: int32(i)})
		}
	}
	if cfg.Multipath && cfg.Faults != nil {
		run.mpK = cfg.MultipathPaths
		if run.mpK <= 0 {
			run.mpK = DefaultMultipathPaths
		}
		run.cFailover = cfg.Link.Metrics.Counter(MetricFailovers)
		run.cSwitch = cfg.Link.Metrics.Counter(MetricPathSwitches)
		run.cProbeOK = cfg.Link.Metrics.Counter(MetricProbeSuccess)
		run.cProbeFail = cfg.Link.Metrics.Counter(MetricProbeFailure)
		run.cPathBytes = make([]*obs.Counter, run.mpK+1)
		for j := range run.cPathBytes {
			run.cPathBytes[j] = cfg.Link.Metrics.Counter(pathGoodputMetric(j, run.mpK))
		}
	}
	return run, nil
}

// RunTransport simulates the workload with reliable Reno-like flows over the
// structure's routed paths (data forward, ACKs on the reversed path).
//
// Like Run it drives value events through a priority queue (tqueue, built
// on eventq.Queue) over routes compiled (and cached) once per workload; the
// reference engine in reference.go pins its results exactly.
func RunTransport(t topology.Topology, flows []traffic.Flow, cfg TransportConfig) (TransportResult, error) {
	if err := cfg.Validate(); err != nil {
		return TransportResult{}, err
	}
	for i, f := range flows {
		if math.IsNaN(f.StartSec) || math.IsInf(f.StartSec, 0) {
			return TransportResult{}, fmt.Errorf("packetsim: flow %d starts at %g, not a finite time", i, f.StartSec)
		}
	}
	plan, err := planFor(t, flows)
	if err != nil {
		return TransportResult{}, err
	}
	run, err := newTransportRun(t, cfg, plan.numRes)
	if err != nil {
		return TransportResult{}, err
	}
	var mpPlan *multipathPlan
	if run.mpK > 0 {
		if mpPlan, err = plan.multipathFor(t, run.mpK); err != nil {
			return TransportResult{}, err
		}
	}
	for i, f := range flows {
		if len(plan.paths[i]) < 2 {
			continue // local flow: nothing to transport
		}
		run.flows = append(run.flows, tflow{
			fwd:      plan.paths[i],
			res:      plan.flowRes(i),
			total:    int((f.Bytes + int64(cfg.Link.MTU) - 1) / int64(cfg.Link.MTU)),
			cwnd:     cfg.InitCwnd,
			ssthresh: cfg.MaxCwnd,
			rto:      cfg.RTOSec,
			start:    f.StartSec,
		})
		if mpPlan != nil {
			fl := &run.flows[len(run.flows)-1]
			fl.alts = mpPlan.alts[i]
			fl.probing = make([]bool, len(fl.alts))
			fl.probeGen = make([]int32, len(fl.alts))
			fl.backoff = make([]float64, len(fl.alts))
			for j := range fl.backoff {
				fl.backoff[j] = cfg.RTOSec
			}
		}
		// Flows open at their arrival time.
		run.push(f.StartSec, tevent{flow: int32(len(run.flows) - 1), kind: tevStart})
	}

	if err := run.drain(); err != nil {
		return TransportResult{}, err
	}
	return run.results(), nil
}

// drain runs the event loop to completion. Staged terminal-flow
// notifications flush between events — the only point where no handler
// holds pointers into r.flows, so OnFlowDone callbacks may inject.
func (r *transportRun) drain() error {
	for r.q.len() > 0 {
		r.events++
		if r.events > r.cfg.MaxEvents {
			return fmt.Errorf("packetsim: transport exceeded %d events", r.cfg.MaxEvents)
		}
		now, _, ev := r.q.pop()
		r.now = now
		switch ev.kind {
		case tevStart:
			r.flows[ev.flow].started = true
			r.pump(int(ev.flow))
		case tevTimer:
			r.onTimer(int(ev.flow), ev.gen)
		case tevFault:
			r.fs.apply(now, int(ev.seq))
			r.onFaultEvent()
		case tevProbe:
			r.onProbe(int(ev.flow), int(ev.seq), ev.gen)
		case tevWake:
			r.onWake(int(ev.seq))
		default:
			r.onArrival(ev)
		}
		if len(r.doneq) > 0 {
			r.dispatchDone()
		}
	}
	return nil
}

// onWake fires a scheduled TransportEngine callback and recycles its slot.
func (r *transportRun) onWake(slot int) {
	fn := r.wakes[slot]
	r.wakes[slot] = nil
	r.wakeFree = append(r.wakeFree, int32(slot))
	fn(r.now)
}

// dispatchDone flushes staged OnFlowDone notifications in completion order.
// A callback may inject a local flow that completes at the current time,
// growing doneq mid-flush; the index loop picks those up in order.
func (r *transportRun) dispatchDone() {
	for i := 0; i < len(r.doneq); i++ {
		d := r.doneq[i]
		r.cfg.OnFlowDone(int(d.flow), d.at, d.completed)
	}
	r.doneq = r.doneq[:0]
}

// pump sends new data while the window allows.
func (r *transportRun) pump(flow int) {
	f := &r.flows[flow]
	if f.aborted {
		return
	}
	for !f.done && f.inflight < int(f.cwnd) && f.nextSend < f.total {
		r.sendData(flow, f.nextSend, false)
		f.nextSend++
		f.inflight++
	}
	if !f.done && f.acked < f.total {
		r.armTimer(flow)
	}
}

// armTimer (re)schedules the flow's retransmission timer.
func (r *transportRun) armTimer(flow int) {
	f := &r.flows[flow]
	f.timerGen++
	r.ord++
	r.q.pushTimer(r.now, f.rto, r.cfg.RTOSec, r.ord, tevent{flow: int32(flow), gen: f.timerGen, kind: tevTimer})
}

// sendData transmits one data packet from the flow's source, stamped with
// the flow's current route epoch.
func (r *transportRun) sendData(flow, seq int, rtx bool) {
	if rtx {
		r.retransmit++
		r.cRtx.Inc()
		if r.st.armed {
			r.st.rtx.Add(int64(r.now*1e9), 1)
		}
		if r.fs != nil {
			r.fs.cur.Retransmits++
		}
		if r.tracer != nil {
			r.tracer.Record(obs.Event{TimeNs: int64(r.now * 1e9), Kind: "retransmit",
				ID: int64(flow), Node: r.flows[flow].fwd[0], Hop: seq})
		}
	}
	r.transmit(tevent{flow: int32(flow), seq: int32(seq), gen: r.flows[flow].routeEpoch, kind: tevData}, 0)
}

// transmit pushes packet ev onto the link at position idx of its path;
// queueing and drops follow the same model as Run. The pushed arrival event
// is ev itself, advanced one hop (and congestion-marked when ECN fires).
func (r *transportRun) transmit(ev tevent, idx int) {
	f := &r.flows[ev.flow]
	isAck := ev.kind == tevAck
	bytes := r.cfg.Link.MTU
	last := len(f.fwd) - 2 // index of the final hop on either direction
	var res int32
	var u, v int
	if isAck {
		bytes = r.cfg.AckBytes
		res = f.res[last-idx] ^ 1
		u = f.fwd[len(f.fwd)-1-idx]
		v = f.fwd[len(f.fwd)-2-idx]
	} else {
		res = f.res[idx]
		u = f.fwd[idx]
		v = f.fwd[idx+1]
	}
	if idx == 0 {
		// Conservation probe: a packet journey begins (see MetricDataSent).
		if isAck {
			r.cAckSent.Inc()
		} else {
			r.cDataSent.Inc()
		}
	}
	if r.fs != nil && !r.fs.hopAlive(u, v, res) {
		// The hop touches a dead component: the packet is lost; the
		// transport's loss recovery (and rerouting) will handle it.
		r.faultDrops++
		r.cFault.Inc()
		r.fs.cur.DroppedFault++
		if r.st.armed {
			r.st.dropFault.Add(int64(r.now*1e9), 1)
		}
		if r.tracer != nil {
			r.tracer.Record(obs.Event{TimeNs: int64(r.now * 1e9), Kind: "drop",
				ID: int64(ev.flow), Node: u, Hop: idx, Detail: DropCauseFault})
		}
		return
	}
	txTime := float64(bytes) / r.cfg.Link.LinkBandwidthBps
	backlog := (r.linkFree[res] - r.now) / txTime
	if r.hQueue != nil {
		r.hQueue.Observe(int64(math.Max(backlog, 0)))
	}
	if r.st.armed {
		r.st.queue.Add(int64(r.now*1e9), int64(math.Max(backlog, 0)))
	}
	if backlog > float64(r.cfg.Link.QueueLimitPackets) {
		r.cDrops.Inc()
		if r.fs != nil {
			r.fs.cur.DroppedTail++
		}
		if r.st.armed {
			r.st.dropTail.Add(int64(r.now*1e9), 1)
		}
		if r.tracer != nil {
			r.tracer.Record(obs.Event{TimeNs: int64(r.now * 1e9), Kind: "drop",
				ID: int64(ev.flow), Node: u, Hop: idx, Detail: DropCauseTail})
		}
		return // drop-tail: the transport's loss recovery will handle it
	}
	if r.cfg.ECN && !isAck && backlog > float64(r.cfg.ECNThresholdPackets) && !ev.ce {
		ev.ce = true
		r.ecnMarks++
		r.cECN.Inc()
	}
	start := math.Max(r.now, r.linkFree[res])
	done := start + txTime
	r.linkFree[res] = done
	ev.idx = int16(idx + 1)
	r.push(done+r.cfg.Link.LinkDelaySec, ev)
}

// onArrival advances a packet along its path or hands it to the endpoint.
// During fault runs a packet whose route-epoch stamp is stale — its flow
// rerouted while it was in flight — is discarded first: its idx indexes a
// path that no longer exists.
func (r *transportRun) onArrival(ev tevent) {
	f := &r.flows[ev.flow]
	if r.fs != nil && ev.gen != f.routeEpoch {
		r.staleDrops++
		r.cStale.Inc()
		r.fs.cur.DroppedStale++
		if r.st.armed {
			r.st.dropStale.Add(int64(r.now*1e9), 1)
		}
		if r.tracer != nil {
			r.tracer.Record(obs.Event{TimeNs: int64(r.now * 1e9), Kind: "drop",
				ID: int64(ev.flow), Node: -1, Hop: int(ev.idx), Detail: DropCauseStale})
		}
		return
	}
	if int(ev.idx) < len(f.fwd)-1 {
		r.transmit(ev, int(ev.idx))
		return
	}
	if ev.kind == tevAck {
		r.cAckArr.Inc()
		r.onAck(int(ev.flow), int(ev.seq), ev.ce)
		return
	}
	r.cDataArr.Inc()
	r.onData(int(ev.flow), int(ev.seq), ev.ce)
}

// onData is the receiver: buffer/advance and emit a cumulative ACK, echoing
// any congestion mark. The out-of-order buffer is allocated on first
// reordering, so in-order flows never pay for it.
func (r *transportRun) onData(flow, seq int, ce bool) {
	f := &r.flows[flow]
	if seq == f.rcvNext && f.buffer == nil {
		f.rcvNext++ // in-order fast path
	} else if seq >= f.rcvNext {
		if f.buffer == nil {
			f.buffer = make(map[int]bool)
		}
		f.buffer[seq] = true
		for f.buffer[f.rcvNext] {
			delete(f.buffer, f.rcvNext)
			f.rcvNext++
		}
	}
	echo := f.rcvCE || ce
	f.rcvCE = false
	r.transmit(tevent{flow: int32(flow), seq: int32(f.rcvNext), gen: f.routeEpoch, kind: tevAck, ce: echo}, 0)
}

// onAck is the sender: slide the window, grow/shrink cwnd, pump.
func (r *transportRun) onAck(flow, ackNo int, ce bool) {
	f := &r.flows[flow]
	if f.done || f.aborted {
		return
	}
	if r.cfg.ECN && ce && ackNo >= f.ecnHoldUntil {
		// Halve once per window of data, like a single loss event but
		// without losing anything.
		f.ssthresh = math.Max(f.cwnd/2, 2)
		f.cwnd = f.ssthresh
		f.ecnHoldUntil = f.nextSend
	}
	switch {
	case ackNo > f.acked:
		newly := ackNo - f.acked
		f.acked = ackNo
		f.dupAcks = 0
		f.timeouts = 0 // forward progress: reset the give-up counter
		f.inflight -= newly
		if f.inflight < 0 {
			f.inflight = 0
		}
		if r.fs != nil {
			// Goodput accrues at the sender when bytes are acknowledged.
			r.fs.cur.Delivered += int64(newly)
			r.fs.cur.DeliveredBytes += int64(newly) * int64(r.cfg.Link.MTU)
		}
		if r.st.armed {
			r.st.goodput.Add(int64(r.now*1e9), int64(newly)*int64(r.cfg.Link.MTU))
		}
		if f.alts != nil {
			// Attribute the goodput to the path that carried it.
			idx := f.cur
			if idx < 0 {
				idx = len(r.cPathBytes) - 1
			}
			r.cPathBytes[idx].Add(int64(newly) * int64(r.cfg.Link.MTU))
		}
		for i := 0; i < newly; i++ {
			if f.cwnd < f.ssthresh {
				f.cwnd++ // slow start
			} else {
				f.cwnd += 1 / f.cwnd // congestion avoidance
			}
		}
		if f.cwnd > r.cfg.MaxCwnd {
			f.cwnd = r.cfg.MaxCwnd
		}
		f.rto = r.cfg.RTOSec // fresh progress resets backoff
		if f.acked >= f.total {
			f.done = true
			f.finish = r.now
			f.timerGen++ // cancel the timer
			r.cDone.Inc()
			if r.fs != nil {
				r.fs.cur.CompletedFlows++
			}
			if r.tracer != nil {
				r.tracer.Record(obs.Event{TimeNs: int64(r.now * 1e9), Kind: "flow_done",
					ID: int64(flow), Node: f.fwd[len(f.fwd)-1], Hop: f.total})
			}
			if r.cfg.OnFlowDone != nil {
				r.doneq = append(r.doneq, flowDone{flow: int32(flow), at: r.now, completed: true})
			}
			return
		}
		r.armTimer(flow)
	case ackNo == f.acked:
		f.dupAcks++
		if f.dupAcks == r.cfg.DupAckThreshold {
			if f.alts != nil && !f.fwd.Alive(r.net, r.fs.view) {
				// Fast-failover signal: duplicate ACKs while the active
				// path is dead mean the loss is a black hole, not
				// congestion — switch paths instead of retransmitting into
				// it (multipath.go).
				r.failover(flow)
			} else {
				// Fast retransmit + multiplicative decrease.
				f.ssthresh = math.Max(f.cwnd/2, 2)
				f.cwnd = f.ssthresh
				f.dupAcks = 0
				if f.inflight > 0 {
					f.inflight--
				}
				r.sendData(flow, f.acked, true)
			}
		}
	}
	r.pump(flow)
}

// onTimer fires a retransmission timeout: collapse the window, assume the
// pipe drained, resend the oldest unacked packet with backed-off RTO.
// During fault runs a timeout is also the reroute trigger — retransmitting
// into a black hole is pointless, so if the failure set changed since the
// route was last checked the flow recompiles it first — and the give-up
// point: after MaxFlowTimeouts consecutive timeouts without progress the
// flow aborts, letting the run terminate despite permanently dead flows.
func (r *transportRun) onTimer(flow int, gen int32) {
	f := &r.flows[flow]
	if f.done || f.aborted || gen != f.timerGen {
		return // stale timer
	}
	if r.fs != nil {
		f.timeouts++
		if r.cfg.MaxFlowTimeouts > 0 && f.timeouts >= r.cfg.MaxFlowTimeouts {
			f.aborted = true
			r.failedFlows++
			r.cFailed.Inc()
			if r.tracer != nil {
				r.tracer.Record(obs.Event{TimeNs: int64(r.now * 1e9), Kind: "flow_abort",
					ID: int64(flow), Node: f.fwd[0], Hop: f.acked})
			}
			if r.cfg.OnFlowDone != nil {
				r.doneq = append(r.doneq, flowDone{flow: int32(flow), at: r.now})
			}
			return // no rearm: the flow's remaining events drain
		}
		if f.planEpoch != r.fs.epoch {
			r.reroute(flow)
		}
	}
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = 1
	f.inflight = 1
	f.dupAcks = 0
	f.rto = math.Min(f.rto*2, 64*r.cfg.RTOSec)
	r.sendData(flow, f.acked, true)
	r.armTimer(flow)
}

// reroute revalidates a flow's route against the current failure view: if
// the compiled path still lives the epoch stamp is simply refreshed; if it
// died and the structure has a fault-tolerant router, the flow recompiles a
// path avoiding every dead component and bumps its route epoch, orphaning
// (as stale) whatever was in flight on the old path. The new resources are
// a fresh slice — the cached routePlan shared across runs is never mutated.
// The reverse (ACK) direction needs no separate route: it uses resource^1
// of each mirrored forward hop, which survives rerouting by construction.
func (r *transportRun) reroute(flow int) {
	f := &r.flows[flow]
	f.planEpoch = r.fs.epoch
	if topology.Path(f.fwd).Alive(r.net, r.fs.view) {
		return // current route survived this failure set
	}
	if f.alts != nil {
		// Scoreboard first: bench the dead path and activate the best
		// precompiled alternative; RouteAvoiding below stays the last
		// resort for a fully dead scoreboard (multipath.go).
		r.probation(flow, f.cur)
		if j := r.pickPath(flow); j >= 0 {
			r.switchPath(flow, j)
			return
		}
	}
	if r.frouter == nil {
		return // no fault router: keep timing out until repair
	}
	p, err := r.frouter.RouteAvoiding(f.fwd[0], f.fwd[len(f.fwd)-1], r.fs.view)
	if err != nil || len(p) < 2 {
		// Unroutable under this failure set (the router is deterministic, so
		// retrying against the same view is pointless): back off until the
		// next epoch change revalidates.
		return
	}
	res, err := appendPathRes(make([]int32, 0, len(p)-1), r.g, p)
	if err != nil {
		return
	}
	f.fwd, f.res = p, res
	if f.alts != nil {
		f.cur = -1 // off the scoreboard; probes can pull it back on
	}
	f.routeEpoch++
	r.reroutes++
	r.cReroute.Inc()
	r.fs.cur.Reroutes++
	if r.st.armed {
		r.st.reroute.Add(int64(r.now*1e9), 1)
	}
	if r.tracer != nil {
		r.tracer.Record(obs.Event{TimeNs: int64(r.now * 1e9), Kind: "reroute",
			ID: int64(flow), Node: f.fwd[0], Hop: len(p) - 1})
	}
}

// results aggregates the run.
func (r *transportRun) results() TransportResult {
	var res TransportResult
	res.Retransmits = r.retransmit
	res.ECNMarks = r.ecnMarks
	res.Reroutes = r.reroutes
	res.DroppedFault = r.faultDrops
	res.DroppedStale = r.staleDrops
	res.FailedFlows = r.failedFlows
	res.Failovers = r.failovers
	res.PathSwitches = r.pathSwitches
	res.ProbeSuccesses = r.probeOK
	res.ProbeFailures = r.probeFail
	fcts := make([]float64, 0, len(r.flows))
	var payload int64
	for i := range r.flows {
		f := &r.flows[i]
		if !f.done {
			continue
		}
		res.CompletedFlows++
		// FCT is arrival-to-completion; the makespan is the absolute finish.
		fcts = append(fcts, f.finish-f.start)
		payload += int64(f.total) * int64(r.cfg.Link.MTU)
		if f.finish > res.MakespanSec {
			res.MakespanSec = f.finish
		}
	}
	if len(fcts) > 0 {
		sum := 0.0
		for _, t := range fcts {
			sum += t
		}
		res.MeanFCTSec = sum / float64(len(fcts))
		res.P99FCTSec = quantile(fcts, 0.99)
	}
	if res.MakespanSec > 0 {
		res.GoodputBps = float64(payload) / res.MakespanSec
	}
	if r.fs != nil {
		r.fs.finish(res.MakespanSec)
	}
	return res
}
