package packetsim

import (
	"fmt"
	"math"
	"math/bits"

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
	// which is completion-time order with the event key breaking ties.
	// Callbacks run at a safe point between events, so they may inject new
	// flows or schedule wakes on a TransportEngine (driver.go); this is how
	// closed-loop layers (retries, dependent RPCs) react deterministically.
	// Only a one-shard run supports it: RunTransportSharded rejects a hook
	// with more than one shard, since parallel shard drains would make
	// callback order depend on the worker schedule.
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
	// DroppedFault counts packets lost to dead components (fault runs
	// only). A packet rides the path it was sent on, so a reroute strands
	// nothing: packets on a superseded path arrive late or drop at a dead
	// hop.
	DroppedFault int
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

// Instrument names registered on TransportConfig.Link.Metrics by the
// transport engine. Queue-depth observations reuse MetricQueueDepth.
const (
	MetricRetransmits    = "transport_retransmits"
	MetricECNMarks       = "transport_ecn_marks"
	MetricCompletedFlows = "transport_completed_flows"
	MetricTransportDrops = "transport_dropped_droptail"
)

// The transport engine is partitioned by topology shard and driven by the
// conservative window loop in shard.go; RunTransport, and the closed-loop
// TransportEngine (driver.go), are its one-shard case. Sender state lives on
// the source node's shard, receiver state on the destination's, and every
// link resource on its transmitter's shard, so each field of a flow is
// written by exactly one shard. Two modeling rules follow from that cut and
// hold at every shard count (ALGORITHMS.md):
//
//   - Packets carry their path. Every data and ACK event names an immutable
//     path (a path id, see stRun.path) and rides it end to end, so no hop
//     reads sender state. A reroute or path switch strands nothing: packets
//     in flight on a superseded path drop at a dead hop (DropCauseFault) or
//     arrive late, and the receiver's cumulative ACKs absorb both.
//   - ACKs reverse the path the data packet actually took.
//
// Determinism: every event key is derived from content — a per-flow journey
// number assigned where the journey starts, in that shard's deterministic
// event order — never from push order, so results are byte-identical for
// every shard count and GOMAXPROCS.

// Event-key classes. At equal times within one shard queue: fault
// transitions (negative keys) apply first, then flow starts (key = flow),
// data and ACK packets, probes, retransmission timers, and TransportEngine
// wakes in registration order. The flow-indexed classes place the flow id
// below a fixed stride of 2^31 instead of the flow count, so flows added
// mid-run sort exactly as if they had been known up front. Every live
// event's key is unique: a packet journey (one sendData or one ACK emission)
// has exactly one live event, timers and probes bump their generation before
// each push, and each wake takes a fresh ordinal.
const (
	keyFlowStride = int64(1) << 31
	keyProbeBase  = int64(1) << 60
	keyTimerBase  = int64(1) << 61
	keyWakeBase   = int64(3) << 61
)

// pktKey returns the event key of one packet journey: journey jn of the
// flow, ackBit 1 for ACK journeys. Injective in (jn, ackBit, flow) for
// jn < 2^28 journeys per flow, and above every start key.
func pktKey(jn int32, ackBit int64, flow int32) int64 {
	return (1+int64(jn)*2+ackBit)*keyFlowStride + int64(flow)
}

// Event kinds. Timer events carry the timer generation in gen; data and ACK
// events carry the data sequence / cumulative ack in seq, their path id in
// gen and their path position in idx (the reverse position for ACKs). Fault
// events carry the fault-plan index in seq. Probe events carry the
// scoreboard path index in seq and the probe generation in gen. Wake events
// carry the callback slot in seq.
const (
	tevData = iota
	tevAck
	tevTimer
	tevStart
	tevFault
	tevProbe
	tevWake
)

// stevent is an unboxed transport event: 16 bytes and no pointers, so a
// queue entry with its time and key is 32 bytes and the garbage collector
// never scans or write-barriers the queues. Its key lives only in the queue
// entry; a forwarded hop is re-pushed under the key it was popped with.
type stevent struct {
	flow int32
	seq  int32
	gen  int32
	idx  int16
	kind uint8
	ce   bool
}

// stflow is per-flow transport state, field-partitioned by owner shard:
// sender fields are only touched while processing events on srcShard,
// receiver fields only on the destination's shard, so shards never race on
// a flow.
type stflow struct {
	total    int
	srcShard int32

	// Sender (owned by srcShard). curID is the active path's id — every
	// packet sent on it carries the id; curIdx is its scoreboard index (-1
	// after a RouteAvoiding recompile).
	curID    int32
	curIdx   int
	nextSend int
	acked    int
	dupAcks  int
	inflight int
	cwnd     float64
	ssthresh float64
	rto      float64
	timerGen int32
	done     bool
	start    float64
	finish   float64

	// planEpoch records the fault epoch the route was last validated
	// against, so a timeout recompiles at most once per failure-set change;
	// timeouts counts consecutive RTOs without progress; aborted marks a
	// flow that gave up.
	planEpoch    int32
	timeouts     int
	aborted      bool
	started      bool // the flow's start event has fired
	dataJn       int32
	ecnHoldUntil int // ignore ECN echoes until this seq is acked

	// Multipath scoreboard (multipath.go; nil alts when the layer is off).
	// alts is shared read-only: the run's paths altBase, altBase+1, ...;
	// probing marks benched paths awaiting a probe, probeGen invalidates
	// superseded probe events, backoff is each path's next probation length.
	alts     []pathAlt
	altBase  int32
	probing  []bool
	probeGen []int32
	backoff  []float64

	// Receiver (owned by the destination's shard).
	rcvNext int
	buffer  map[int]bool // out-of-order packets held, allocated on first use
	rcvCE   bool         // a congestion mark awaits echoing
	ackJn   int32
}

// stShard is one shard of the transport engine: its queue, failure view,
// and local tallies.
type stShard struct {
	id  int
	q   tqueue
	win windowShard[stevent]
	fs  *faultState
	now float64
	dyn dynPaths // paths this shard's senders rerouted onto

	retransmit, ecnMarks, reroutes int
	faultDrops, failedFlows        int
	failovers, pathSwitches        int
	probeOK, probeFail             int
}

// stRun is the state of one transport run. linkFree is written only by each
// resource's owner shard; the obs instruments are atomic (or
// mutex-protected, for the tracer).
type stRun struct {
	cfg         TransportConfig
	flows       []stflow
	paths       []pathAlt // the static paths: primaries and scoreboards
	shards      []*stShard
	linkFree    []float64
	nodeShard   []int32
	faultStates []*faultState

	net     *topology.Network
	g       *graph.Graph
	frouter topology.FaultRouter
	mpK     int // multipath path cap; 0 = layer off

	// Closed-loop state (one shard only; driver.go). Terminal-flow
	// notifications are staged on doneq during event handling and
	// dispatched between events: handlers hold *stflow pointers into
	// r.flows, which an OnFlowDone callback injecting new flows would
	// invalidate. wakes holds Schedule callbacks by slot (wake events carry
	// the slot in seq); wakeFree recycles slots so long closed-loop runs
	// don't grow the table; wakeOrd orders same-time wakes.
	doneq    []flowDone
	wakes    []func(nowSec float64)
	wakeFree []int32
	wakeOrd  int64

	cRtx, cECN, cDone, cDrops              *obs.Counter
	cFault, cReroute, cFailed              *obs.Counter
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

// newStRun builds a run with no flows over numShards shards: hoisted
// instruments, per-shard queues, the multipath tallies, and the fault
// states with every plan transition queued on every shard (negative keys: a
// transition at time T applies before any packet event at T, in plan
// order), so all per-shard failure views agree at every instant.
func newStRun(t topology.Topology, cfg TransportConfig, numShards int) (*stRun, error) {
	net := t.Network()
	r := &stRun{
		cfg:       cfg,
		linkFree:  make([]float64, 2*net.Graph().NumEdges()),
		nodeShard: topology.ShardNodes(t, numShards),
		net:       net,
		g:         net.Graph(),
		cRtx:      cfg.Link.Metrics.Counter(MetricRetransmits),
		cECN:      cfg.Link.Metrics.Counter(MetricECNMarks),
		cDone:     cfg.Link.Metrics.Counter(MetricCompletedFlows),
		cDrops:    cfg.Link.Metrics.Counter(MetricTransportDrops),
		cFault:    cfg.Link.Metrics.Counter(MetricTransportFaultDrops),
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
	if cfg.Multipath && cfg.Faults != nil {
		r.mpK = cfg.MultipathPaths
		if r.mpK <= 0 {
			r.mpK = DefaultMultipathPaths
		}
		r.cFailover = cfg.Link.Metrics.Counter(MetricFailovers)
		r.cSwitch = cfg.Link.Metrics.Counter(MetricPathSwitches)
		r.cProbeOK = cfg.Link.Metrics.Counter(MetricProbeSuccess)
		r.cProbeFail = cfg.Link.Metrics.Counter(MetricProbeFailure)
		r.cPathBytes = make([]*obs.Counter, r.mpK+1)
		for j := range r.cPathBytes {
			r.cPathBytes[j] = cfg.Link.Metrics.Counter(pathGoodputMetric(j, r.mpK))
		}
	}
	r.shards = make([]*stShard, numShards)
	for s := range r.shards {
		sh := &stShard{id: s}
		sh.win.q = &sh.q
		sh.win.out = make([][]handoff[stevent], numShards)
		r.shards[s] = sh
	}
	if cfg.Faults != nil {
		var err error
		r.faultStates, err = newShardFaultStates(cfg.Faults, net, numShards,
			cfg.Timeline != nil, cfg.Link.Metrics, cfg.Link.Trace)
		if err != nil {
			return nil, err
		}
		r.frouter, _ = t.(topology.FaultRouter)
		for s, sh := range r.shards {
			for i, fe := range cfg.Faults.Events {
				sh.q.Push(fe.TimeSec, int64(i)-int64(len(cfg.Faults.Events)),
					stevent{kind: tevFault, seq: int32(i)})
			}
			sh.fs = r.faultStates[s]
		}
	}
	return r, nil
}

// addFlow appends a transported flow on static path prim and queues its
// start on its source shard; with the multipath layer armed, its scoreboard
// is the nAlts paths from prim on. The flow's alts slice may outlive a
// regrowth of r.paths; paths are immutable, so the old array still reads
// right. It returns the flow id.
func (r *stRun) addFlow(prim int32, nAlts int, bytes int64, start float64) int {
	id := len(r.flows)
	r.flows = append(r.flows, stflow{
		total:    int((bytes + int64(r.cfg.Link.MTU) - 1) / int64(r.cfg.Link.MTU)),
		srcShard: r.nodeShard[r.paths[prim].fwd[0]],
		curID:    prim,
		cwnd:     r.cfg.InitCwnd,
		ssthresh: r.cfg.MaxCwnd,
		rto:      r.cfg.RTOSec,
		start:    start,
	})
	f := &r.flows[id]
	if nAlts > 0 {
		alts := r.paths[prim : int(prim)+nAlts : int(prim)+nAlts]
		f.alts, f.altBase = alts, prim
		f.probing = make([]bool, len(alts))
		f.probeGen = make([]int32, len(alts))
		f.backoff = make([]float64, len(alts))
		for j := range f.backoff {
			f.backoff[j] = r.cfg.RTOSec
		}
	}
	// Flows open at their arrival time, on their source shard.
	r.shards[f.srcShard].q.Push(start, int64(id), stevent{flow: int32(id), kind: tevStart})
	return id
}

// path resolves a path id: ids >= 0 index the static paths, negative ids
// name a rerouted path as ^(local*shards + owner shard) in its owner's
// dynPaths.
func (r *stRun) path(id int32) *pathAlt {
	if id >= 0 {
		return &r.paths[id]
	}
	v, n := ^id, int32(len(r.shards))
	return r.shards[v%n].dyn.at(v / n)
}

// dynPaths is one shard's append-only table of rerouted paths. Other shards
// read entries the owner published before a window barrier while the owner
// may be appending more, so entries never move: segment k holds 64<<k
// paths and is allocated once.
type dynPaths struct {
	segs [26][]pathAlt
	n    int32
}

// add stores p and returns its index in the table.
func (d *dynPaths) add(p pathAlt) int32 {
	k, off := dynSlot(d.n)
	if off == 0 {
		d.segs[k] = make([]pathAlt, 64<<k)
	}
	d.segs[k][off] = p
	d.n++
	return d.n - 1
}

func (d *dynPaths) at(i int32) *pathAlt {
	k, off := dynSlot(i)
	return &d.segs[k][off]
}

// dynSlot locates index i: segment k starts at index 64*(2^k - 1).
func dynSlot(i int32) (k, off int) {
	k = bits.Len32(uint32(i)/64+1) - 1
	return k, int(i) - 64*(1<<k-1)
}

// checkStarts rejects flows whose start is not a finite time: the queues
// cannot order NaN, and a flow starting at ±Inf would be offered but never
// run.
func checkStarts(flows []traffic.Flow) error {
	for i, f := range flows {
		if math.IsNaN(f.StartSec) || math.IsInf(f.StartSec, 0) {
			return fmt.Errorf("packetsim: flow %d starts at %g, not a finite time", i, f.StartSec)
		}
	}
	return nil
}

// RunTransport simulates the workload with reliable Reno-like flows over the
// structure's routed paths (data forward, ACKs on the reversed path). It is
// the one-shard case of RunTransportSharded.
func RunTransport(t topology.Topology, flows []traffic.Flow, cfg TransportConfig) (TransportResult, error) {
	return RunTransportSharded(t, flows, cfg, ShardOpts{Shards: 1})
}

// RunTransportSharded simulates the transport across opts.Shards topology
// shards. The result is byte-identical for every shard count and
// GOMAXPROCS. A config with an OnFlowDone hook needs a one-shard run.
// Trace-event order across concurrent shards is nondeterministic; use
// ShardOpts{Workers: 1} for a stable trace.
func RunTransportSharded(t topology.Topology, flows []traffic.Flow, cfg TransportConfig, opts ShardOpts) (TransportResult, error) {
	if err := cfg.Validate(); err != nil {
		return TransportResult{}, err
	}
	if err := checkStarts(flows); err != nil {
		return TransportResult{}, err
	}
	numShards, workers := opts.normalized(t.Network().Graph().NumNodes())
	if cfg.OnFlowDone != nil && numShards > 1 {
		// Shards drain their windows in parallel, so cross-shard callback
		// order would depend on the worker schedule; closed-loop layers
		// need one shard's total event order.
		return TransportResult{}, fmt.Errorf("packetsim: OnFlowDone requires a one-shard run")
	}
	plan, err := planFor(t, flows)
	if err != nil {
		return TransportResult{}, err
	}
	r, err := newStRun(t, cfg, numShards)
	if err != nil {
		return TransportResult{}, err
	}
	var mpPlan *multipathPlan
	if r.mpK > 0 {
		if mpPlan, err = plan.multipathFor(t, r.mpK); err != nil {
			return TransportResult{}, err
		}
	}
	// The flow table is compacted (local flows never transport). Each flow's
	// primary, or its whole scoreboard, becomes a run of static paths.
	for i, f := range flows {
		if len(plan.paths[i]) < 2 {
			continue
		}
		prim, nAlts := int32(len(r.paths)), 0
		if mpPlan != nil {
			r.paths = append(r.paths, mpPlan.alts[i]...)
			nAlts = len(mpPlan.alts[i])
		} else {
			r.paths = append(r.paths, pathAlt{fwd: plan.paths[i], res: plan.flowRes(i)})
		}
		r.addFlow(prim, nAlts, f.Bytes, f.StartSec)
	}
	return r.run(workers, opts.Profile)
}

// run drives the shards to completion and aggregates the result.
func (r *stRun) run(workers int, profile *obs.ShardProfile) (TransportResult, error) {
	winArr := make([]*windowShard[stevent], len(r.shards))
	for s, sh := range r.shards {
		winArr[s] = &sh.win
	}
	// Lookahead: the cheapest hop any cross-shard packet can take is one ACK
	// transmit time plus the propagation delay.
	minBytes := min(r.cfg.Link.MTU, r.cfg.AckBytes)
	lookahead := float64(minBytes)/r.cfg.Link.LinkBandwidthBps + r.cfg.Link.LinkDelaySec
	driver := newShardDriver(len(r.shards), workers, r.cfg.Link.Metrics, r.cfg.Link.Trace, profile)
	if err := runWindows(driver, winArr, lookahead, r.drain, r.cfg.MaxEvents); err != nil {
		return TransportResult{}, err
	}
	return r.results()
}

// drain processes shard s's events with time < end in (time, key) order.
// Staged terminal-flow notifications flush between events — the only point
// where no handler holds pointers into r.flows, so OnFlowDone callbacks may
// inject. The shard stops early once it passes its share of the MaxEvents
// budget; the window loop then reports the overrun.
func (r *stRun) drain(s int, end float64) {
	sh := r.shards[s]
	w := &sh.win
	for {
		now, key, ev, ok := sh.q.popBefore(end)
		if !ok {
			return
		}
		if w.processed++; w.processed > w.limit {
			return
		}
		sh.now = now
		switch ev.kind {
		case tevStart:
			r.flows[ev.flow].started = true
			r.pump(sh, int(ev.flow))
		case tevTimer:
			r.onTimer(sh, int(ev.flow), ev.gen)
		case tevFault:
			sh.fs.apply(now, int(ev.seq))
			r.onFaultEvent(sh)
		case tevProbe:
			r.onProbe(sh, int(ev.flow), int(ev.seq), ev.gen)
		case tevWake:
			r.onWake(int(ev.seq), now)
		default:
			r.onArrival(sh, ev, key)
		}
		if len(r.doneq) > 0 {
			r.dispatchDone()
		}
	}
}

// onWake fires a scheduled TransportEngine callback and recycles its slot.
func (r *stRun) onWake(slot int, now float64) {
	fn := r.wakes[slot]
	r.wakes[slot] = nil
	r.wakeFree = append(r.wakeFree, int32(slot))
	fn(now)
}

// dispatchDone flushes staged OnFlowDone notifications in completion order.
// A callback may inject a local flow that completes at the current time,
// growing doneq mid-flush; the index loop picks those up in order.
func (r *stRun) dispatchDone() {
	for i := 0; i < len(r.doneq); i++ {
		d := r.doneq[i]
		r.cfg.OnFlowDone(int(d.flow), d.at, d.completed)
	}
	r.doneq = r.doneq[:0]
}

// pump sends new data while the window allows.
func (r *stRun) pump(sh *stShard, flow int) {
	f := &r.flows[flow]
	if f.aborted {
		return
	}
	for !f.done && f.inflight < int(f.cwnd) && f.nextSend < f.total {
		r.sendData(sh, flow, f.nextSend, false)
		f.nextSend++
		f.inflight++
	}
	if !f.done && f.acked < f.total {
		r.armTimer(sh, flow)
	}
}

// armTimer (re)schedules the flow's retransmission timer (always local: the
// timer lives on the sender's shard).
func (r *stRun) armTimer(sh *stShard, flow int) {
	f := &r.flows[flow]
	f.timerGen++
	key := keyTimerBase + int64(f.timerGen)*keyFlowStride + int64(flow)
	sh.q.pushTimer(sh.now, f.rto, r.cfg.RTOSec, key, stevent{flow: int32(flow), gen: f.timerGen, kind: tevTimer})
}

// sendData launches one data-packet journey on the flow's active path.
func (r *stRun) sendData(sh *stShard, flow, seq int, rtx bool) {
	f := &r.flows[flow]
	if rtx {
		sh.retransmit++
		r.cRtx.Inc()
		if r.st.armed {
			r.st.rtx.Add(int64(sh.now*1e9), 1)
		}
		if sh.fs != nil {
			sh.fs.cur.Retransmits++
		}
		if r.tracer != nil {
			r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "retransmit",
				ID: int64(flow), Node: r.path(f.curID).fwd[0], Hop: seq})
		}
	}
	key := pktKey(f.dataJn, 0, int32(flow))
	f.dataJn++
	r.transmit(sh, r.path(f.curID), stevent{flow: int32(flow), seq: int32(seq), gen: f.curID, kind: tevData}, key, 0)
}

// transmit pushes packet ev onto the link at position idx of its carried
// path p (ACKs walk it backwards); queueing and drops follow the same model
// as Run. The transmitter node is always local to sh, so its linkFree
// element is only ever written here, by its owner shard. The pushed arrival
// is ev itself, advanced one hop (and congestion-marked when ECN fires),
// under the journey's key.
func (r *stRun) transmit(sh *stShard, p *pathAlt, ev stevent, key int64, idx int) {
	isAck := ev.kind == tevAck
	bytes := r.cfg.Link.MTU
	last := len(p.fwd) - 2 // index of the final hop on either direction
	var res int32
	var u, v int
	if isAck {
		bytes = r.cfg.AckBytes
		res = p.res[last-idx] ^ 1
		u = p.fwd[len(p.fwd)-1-idx]
		v = p.fwd[len(p.fwd)-2-idx]
	} else {
		res = p.res[idx]
		u = p.fwd[idx]
		v = p.fwd[idx+1]
	}
	if idx == 0 {
		// Conservation probe: a packet journey begins (see MetricDataSent).
		if isAck {
			r.cAckSent.Inc()
		} else {
			r.cDataSent.Inc()
		}
	}
	if sh.fs != nil && !sh.fs.hopAlive(u, v, res) {
		// The hop touches a dead component: the packet is lost; the
		// transport's loss recovery (and rerouting) will handle it.
		sh.faultDrops++
		r.cFault.Inc()
		sh.fs.cur.DroppedFault++
		if r.st.armed {
			r.st.dropFault.Add(int64(sh.now*1e9), 1)
		}
		if r.tracer != nil {
			r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "drop",
				ID: int64(ev.flow), Node: u, Hop: idx, Detail: DropCauseFault})
		}
		return
	}
	txTime := float64(bytes) / r.cfg.Link.LinkBandwidthBps
	backlog := (r.linkFree[res] - sh.now) / txTime
	if r.hQueue != nil {
		r.hQueue.Observe(int64(math.Max(backlog, 0)))
	}
	if r.st.armed {
		r.st.queue.Add(int64(sh.now*1e9), int64(math.Max(backlog, 0)))
	}
	if backlog > float64(r.cfg.Link.QueueLimitPackets) {
		r.cDrops.Inc()
		if sh.fs != nil {
			sh.fs.cur.DroppedTail++
		}
		if r.st.armed {
			r.st.dropTail.Add(int64(sh.now*1e9), 1)
		}
		if r.tracer != nil {
			r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "drop",
				ID: int64(ev.flow), Node: u, Hop: idx, Detail: DropCauseTail})
		}
		return // drop-tail: the transport's loss recovery will handle it
	}
	if r.cfg.ECN && !isAck && backlog > float64(r.cfg.ECNThresholdPackets) && !ev.ce {
		ev.ce = true
		sh.ecnMarks++
		r.cECN.Inc()
	}
	start := math.Max(sh.now, r.linkFree[res])
	done := start + txTime
	r.linkFree[res] = done
	ev.idx = int16(idx + 1)
	// At one shard every hop is local: skip the owner lookup.
	if len(r.shards) == 1 || int(r.nodeShard[v]) == sh.id {
		sh.q.near.Push(done+r.cfg.Link.LinkDelaySec, key, ev)
	} else {
		sh.win.send(int(r.nodeShard[v]), done+r.cfg.Link.LinkDelaySec, key, ev)
	}
}

// onArrival advances a packet along its carried path or hands it to the
// endpoint.
func (r *stRun) onArrival(sh *stShard, ev stevent, key int64) {
	if p := r.path(ev.gen); int(ev.idx) < len(p.fwd)-1 {
		r.transmit(sh, p, ev, key, int(ev.idx))
		return
	}
	if ev.kind == tevAck {
		r.cAckArr.Inc()
		r.onAck(sh, int(ev.flow), int(ev.seq), ev.ce)
		return
	}
	r.cDataArr.Inc()
	r.onData(sh, int(ev.flow), int(ev.seq), ev.ce, ev.gen)
}

// onData is the receiver: buffer/advance and emit a cumulative ACK over the
// reverse of the path the data packet arrived on, echoing any congestion
// mark. The out-of-order buffer is allocated on first reordering, so
// in-order flows never pay for it.
func (r *stRun) onData(sh *stShard, flow, seq int, ce bool, path int32) {
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
	key := pktKey(f.ackJn, 1, int32(flow))
	f.ackJn++
	r.transmit(sh, r.path(path), stevent{flow: int32(flow), seq: int32(f.rcvNext), gen: path, kind: tevAck, ce: echo}, key, 0)
}

// onAck is the sender: slide the window, grow/shrink cwnd, pump.
func (r *stRun) onAck(sh *stShard, flow, ackNo int, ce bool) {
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
		if sh.fs != nil {
			// Goodput accrues at the sender when bytes are acknowledged.
			sh.fs.cur.Delivered += int64(newly)
			sh.fs.cur.DeliveredBytes += int64(newly) * int64(r.cfg.Link.MTU)
		}
		if r.st.armed {
			r.st.goodput.Add(int64(sh.now*1e9), int64(newly)*int64(r.cfg.Link.MTU))
		}
		if f.alts != nil {
			// Attribute the goodput to the path that carried it.
			idx := f.curIdx
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
			f.finish = sh.now
			f.timerGen++ // cancel the timer
			r.cDone.Inc()
			if sh.fs != nil {
				sh.fs.cur.CompletedFlows++
			}
			if r.tracer != nil {
				fwd := r.path(f.curID).fwd
				r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "flow_done",
					ID: int64(flow), Node: fwd[len(fwd)-1], Hop: f.total})
			}
			if r.cfg.OnFlowDone != nil {
				r.doneq = append(r.doneq, flowDone{flow: int32(flow), at: sh.now, completed: true})
			}
			return
		}
		r.armTimer(sh, flow)
	case ackNo == f.acked:
		f.dupAcks++
		if f.dupAcks == r.cfg.DupAckThreshold {
			if f.alts != nil && !r.path(f.curID).fwd.Alive(r.net, sh.fs.view) {
				// Fast-failover signal: duplicate ACKs while the active
				// path is dead mean the loss is a black hole, not
				// congestion — switch paths instead of retransmitting into
				// it (multipath.go).
				r.failover(sh, flow)
			} else {
				// Fast retransmit + multiplicative decrease.
				f.ssthresh = math.Max(f.cwnd/2, 2)
				f.cwnd = f.ssthresh
				f.dupAcks = 0
				if f.inflight > 0 {
					f.inflight--
				}
				r.sendData(sh, flow, f.acked, true)
			}
		}
	}
	r.pump(sh, flow)
}

// onTimer fires a retransmission timeout: collapse the window, assume the
// pipe drained, resend the oldest unacked packet with backed-off RTO.
// During fault runs a timeout is also the reroute trigger — retransmitting
// into a black hole is pointless, so if the failure set changed since the
// route was last checked the flow recompiles it first — and the give-up
// point: after MaxFlowTimeouts consecutive timeouts without progress the
// flow aborts, letting the run terminate despite permanently dead flows.
func (r *stRun) onTimer(sh *stShard, flow int, gen int32) {
	f := &r.flows[flow]
	if f.done || f.aborted || gen != f.timerGen {
		return // stale timer
	}
	if sh.fs != nil {
		f.timeouts++
		if r.cfg.MaxFlowTimeouts > 0 && f.timeouts >= r.cfg.MaxFlowTimeouts {
			f.aborted = true
			sh.failedFlows++
			r.cFailed.Inc()
			if r.tracer != nil {
				r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "flow_abort",
					ID: int64(flow), Node: r.path(f.curID).fwd[0], Hop: f.acked})
			}
			if r.cfg.OnFlowDone != nil {
				r.doneq = append(r.doneq, flowDone{flow: int32(flow), at: sh.now})
			}
			return // no rearm: the flow's remaining events drain
		}
		if f.planEpoch != sh.fs.epoch {
			r.reroute(sh, flow)
		}
	}
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = 1
	f.inflight = 1
	f.dupAcks = 0
	f.rto = math.Min(f.rto*2, 64*r.cfg.RTOSec)
	r.sendData(sh, flow, f.acked, true)
	r.armTimer(sh, flow)
}

// reroute revalidates a flow's route against the current failure view: if
// the active path still lives nothing changes; if it died the flow takes
// the best multipath scoreboard alternative, or else recompiles a path
// avoiding every dead component through the structure's fault-tolerant
// router. The recompiled path goes into the shard's dynPaths — the cached
// routePlan shared across runs is never mutated, and packets already
// launched keep the path they were sent on.
func (r *stRun) reroute(sh *stShard, flow int) {
	f := &r.flows[flow]
	f.planEpoch = sh.fs.epoch
	cur := r.path(f.curID).fwd
	if cur.Alive(r.net, sh.fs.view) {
		return // current route survived this failure set
	}
	if f.alts != nil {
		// Scoreboard first: bench the dead path and activate the best
		// precompiled alternative; RouteAvoiding below stays the last
		// resort for a fully dead scoreboard (multipath.go).
		r.probation(sh, flow, f.curIdx)
		if j := r.pickPath(sh, flow); j >= 0 {
			r.switchPath(sh, flow, j)
			return
		}
	}
	if r.frouter == nil {
		return // no fault router: keep timing out until repair
	}
	p, err := r.frouter.RouteAvoiding(cur[0], cur[len(cur)-1], sh.fs.view)
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
	f.curID = ^(sh.dyn.add(pathAlt{fwd: p, res: res})*int32(len(r.shards)) + int32(sh.id))
	if f.alts != nil {
		f.curIdx = -1 // off the scoreboard; probes can pull it back on
	}
	sh.reroutes++
	r.cReroute.Inc()
	sh.fs.cur.Reroutes++
	if r.st.armed {
		r.st.reroute.Add(int64(sh.now*1e9), 1)
	}
	if r.tracer != nil {
		r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "reroute",
			ID: int64(flow), Node: p[0], Hop: len(p) - 1})
	}
}

// results aggregates the run: integer tallies sum across shards, flow
// completion times are read in flow-index order (deterministic regardless of
// which shard finished each flow), and the timelines merge epoch-wise.
func (r *stRun) results() (TransportResult, error) {
	var res TransportResult
	for _, sh := range r.shards {
		res.Retransmits += sh.retransmit
		res.ECNMarks += sh.ecnMarks
		res.Reroutes += sh.reroutes
		res.DroppedFault += sh.faultDrops
		res.FailedFlows += sh.failedFlows
		res.Failovers += sh.failovers
		res.PathSwitches += sh.pathSwitches
		res.ProbeSuccesses += sh.probeOK
		res.ProbeFailures += sh.probeFail
	}
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
	if err := finishShardTimelines(r.cfg.Timeline, r.faultStates, res.MakespanSec); err != nil {
		return TransportResult{}, err
	}
	return res, nil
}
