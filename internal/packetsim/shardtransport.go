// The sharded transport engine: RunTransport partitioned by topology shard
// and driven by the conservative window loop in shard.go. Sender state lives
// on the source node's shard, receiver state on the destination's, and every
// link resource on its transmitter's shard, so each field of a flow is
// written by exactly one shard.
//
// Two modeling choices diverge (deliberately) from the serial engine, both
// forced by the shard cut and both documented in ALGORITHMS.md:
//
//   - Packets carry their path. The serial engine resolves a packet's route
//     at every hop from mutable per-flow state and discards packets whose
//     route-epoch stamp went stale after a reroute. Mid-path reads of sender
//     state cannot cross shards, so here every event carries an immutable
//     *pathAlt and rides it end to end; packets in flight on a superseded
//     path are not discarded — they either drop at a dead hop with
//     DropCauseFault or arrive late (the receiver's cumulative-ACK machinery
//     absorbs both). DroppedStale is always zero in a sharded run.
//   - ACKs reverse the arriving packet's path. The serial receiver ACKs over
//     the flow's current route (sender state); here it reverses the path the
//     data packet actually took.
//
// Determinism: every event key is derived from packet identity — a per-flow
// journey number assigned where the journey starts, in that shard's
// deterministic event order — never from push order, so results are
// byte-identical for every shard count and GOMAXPROCS.

package packetsim

import (
	"fmt"
	"math"

	"repro/internal/eventq"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Event-key spaces of the sharded transport. Within one shard heap, at equal
// times: fault transitions (negative keys) apply first, then flow starts
// [0, nf), then data/ACK packets [nf, stProbeKeyBase), then probes, then
// timers. Every live event's key is unique: a packet journey (one sendData or
// one ACK emission) has exactly one live event, and timers/probes bump their
// generation before each push.
const (
	stProbeKeyBase = int64(1) << 60
	stTimerKeyBase = int64(1) << 61
)

// stevent is the sharded transport's unboxed event. Unlike tevent it carries
// its (immutable) path and its heap key, so any shard can advance the packet
// without reading flow state.
type stevent struct {
	path *pathAlt
	key  int64
	flow int32
	seq  int32 // data sequence / cumulative ack (data, ack); plan index (fault)
	gen  int32 // timer generation (timer); probe generation (probe)
	idx  int16 // position along the packet's path (reverse position for ACKs)
	kind uint8
	ce   bool
}

// stflow is per-flow transport state, field-partitioned by owner shard:
// sender fields are only touched while processing events on srcShard,
// receiver fields only on dstShard, so shards never race on a flow.
type stflow struct {
	total              int
	srcShard, dstShard int32

	// Sender (owned by srcShard). cur is the active path — an immutable
	// snapshot shared with every packet sent on it; curIdx is its scoreboard
	// index (-1 after a RouteAvoiding recompile).
	cur      *pathAlt
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

	planEpoch    int32
	timeouts     int
	aborted      bool
	started      bool
	dataJn       int32 // data journeys launched (key assignment)
	ecnHoldUntil int

	// Multipath scoreboard (nil alts when the layer is off); alts aliases the
	// shared multipathPlan and is never mutated.
	alts     []pathAlt
	probing  []bool
	probeGen []int32
	backoff  []float64

	// Receiver (owned by dstShard).
	rcvNext int
	buffer  map[int]bool
	rcvCE   bool
	ackJn   int32 // ACK journeys launched (key assignment)
}

// stShard is one shard of the transport engine: its heap, failure view, and
// local tallies.
type stShard struct {
	id  int
	q   eventq.Queue[stevent]
	win windowShard[stevent]
	fs  *faultState
	now float64

	retransmit, ecnMarks, reroutes int
	faultDrops, failedFlows        int
	failovers, pathSwitches        int
	probeOK, probeFail             int
}

// stRun is the shared immutable-or-partitioned state of a sharded transport
// run. linkFree is written only by each resource's owner shard; the obs
// instruments are atomic (or mutex-protected, for the tracer).
type stRun struct {
	cfg        TransportConfig
	flows      []stflow
	shards     []*stShard
	linkFree   []float64
	nodeShard  []int32
	localFlows [][]int32 // flow indices by source shard, ascending

	net     *topology.Network
	g       *graph.Graph
	frouter topology.FaultRouter
	mpK     int
	nf      int64

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

// pktKey returns the event key of one packet journey: journey jn of the
// flow, ackBit 1 for ACK journeys. Injective in (jn, ackBit, flow) and
// disjoint from the start-key range [0, nf).
func (r *stRun) pktKey(jn int32, ackBit int64, flow int32) int64 {
	return r.nf + (int64(jn)*2+ackBit)*r.nf + int64(flow)
}

// RunTransportSharded simulates the same transport as RunTransport across
// opts.Shards topology shards. The result is byte-identical for every shard
// count and GOMAXPROCS; against the serial RunTransport it is equivalent up
// to the same-time tie-break rule and the two in-flight-path modeling
// differences documented at the top of this file (bit-identical whenever no
// reroute happens mid-flight; the tolerance tests in shard_test.go pin the
// rest). Trace-event order across concurrent shards is nondeterministic; use
// ShardOpts{Workers: 1} for a stable trace.
func RunTransportSharded(t topology.Topology, flows []traffic.Flow, cfg TransportConfig, opts ShardOpts) (TransportResult, error) {
	if err := cfg.Validate(); err != nil {
		return TransportResult{}, err
	}
	if cfg.OnFlowDone != nil {
		// Shards drain their windows in parallel, so cross-shard callback
		// order would depend on the worker schedule; closed-loop layers
		// need the serial engine's total event order.
		return TransportResult{}, fmt.Errorf("packetsim: OnFlowDone requires the serial engine (RunTransport)")
	}
	plan, err := planFor(t, flows)
	if err != nil {
		return TransportResult{}, err
	}
	net := t.Network()
	numShards, workers := opts.normalized(net.Graph().NumNodes())

	run := &stRun{
		cfg:       cfg,
		linkFree:  make([]float64, plan.numRes),
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

	var mpPlan *multipathPlan
	if cfg.Multipath && cfg.Faults != nil {
		run.mpK = cfg.MultipathPaths
		if run.mpK <= 0 {
			run.mpK = DefaultMultipathPaths
		}
		if mpPlan, err = plan.multipathFor(t, run.mpK); err != nil {
			return TransportResult{}, err
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

	run.shards = make([]*stShard, numShards)
	winArr := make([]*windowShard[stevent], numShards)
	run.localFlows = make([][]int32, numShards)
	for s := range run.shards {
		sh := &stShard{id: s, q: *eventq.New[stevent](64)}
		sh.win.q = &sh.q
		sh.win.out = make([][]handoff[stevent], numShards)
		run.shards[s] = sh
		winArr[s] = &sh.win
	}

	// Build the compacted flow table (local flows never transport, matching
	// the serial engine's indexing) with a stable primary pathAlt per flow.
	prims := make([]pathAlt, 0, len(flows))
	for i, f := range flows {
		if len(plan.paths[i]) < 2 {
			continue
		}
		prims = append(prims, pathAlt{fwd: plan.paths[i], res: plan.flowRes(i)})
		p := plan.paths[i]
		fl := stflow{
			total:    int((f.Bytes + int64(cfg.Link.MTU) - 1) / int64(cfg.Link.MTU)),
			srcShard: run.nodeShard[p[0]],
			dstShard: run.nodeShard[p[len(p)-1]],
			cwnd:     cfg.InitCwnd,
			ssthresh: cfg.MaxCwnd,
			rto:      cfg.RTOSec,
			start:    f.StartSec,
		}
		if mpPlan != nil {
			fl.alts = mpPlan.alts[i]
			fl.probing = make([]bool, len(fl.alts))
			fl.probeGen = make([]int32, len(fl.alts))
			fl.backoff = make([]float64, len(fl.alts))
			for j := range fl.backoff {
				fl.backoff[j] = cfg.RTOSec
			}
		}
		run.flows = append(run.flows, fl)
	}
	run.nf = int64(len(run.flows))
	for k := range run.flows {
		f := &run.flows[k]
		if f.alts != nil {
			f.cur = &f.alts[0] // aliases the shared plan's primary
		} else {
			f.cur = &prims[k]
		}
		s := int(f.srcShard)
		run.localFlows[s] = append(run.localFlows[s], int32(k))
		// Flows open at their arrival time, on their source shard.
		run.shards[s].q.Push(f.start, int64(k), stevent{flow: int32(k), kind: tevStart})
	}

	// Fault plans replicate into every shard's queue (negative keys: a
	// transition at time T applies before any packet event at T, in plan
	// order), so all per-shard failure views agree at every instant.
	var faultStates []*faultState
	if cfg.Faults != nil {
		faultStates, err = newShardFaultStates(cfg.Faults, net, numShards,
			cfg.Timeline != nil, cfg.Link.Metrics, cfg.Link.Trace)
		if err != nil {
			return TransportResult{}, err
		}
		run.frouter, _ = t.(topology.FaultRouter)
		for s, sh := range run.shards {
			for i, fe := range cfg.Faults.Events {
				sh.q.Push(fe.TimeSec, int64(i)-int64(len(cfg.Faults.Events)),
					stevent{kind: tevFault, seq: int32(i)})
			}
			sh.fs = faultStates[s]
		}
	}

	// Lookahead: the cheapest hop any cross-shard packet can take is one ACK
	// transmit time plus the propagation delay.
	minBytes := cfg.Link.MTU
	if cfg.AckBytes < minBytes {
		minBytes = cfg.AckBytes
	}
	lookahead := float64(minBytes)/cfg.Link.LinkBandwidthBps + cfg.Link.LinkDelaySec

	drain := func(s int, end float64) {
		sh := run.shards[s]
		for sh.q.Len() > 0 {
			if t, _, _ := sh.q.Peek(); t >= end {
				return
			}
			now, _, ev := sh.q.Pop()
			sh.win.processed++
			sh.now = now
			switch ev.kind {
			case tevStart:
				run.flows[ev.flow].started = true
				run.pump(sh, int(ev.flow))
			case tevTimer:
				run.onTimer(sh, int(ev.flow), ev.gen)
			case tevFault:
				sh.fs.apply(now, int(ev.seq))
				run.onFaultEvent(sh)
			case tevProbe:
				run.onProbe(sh, int(ev.flow), int(ev.seq), ev.gen)
			default:
				run.onArrival(sh, ev)
			}
		}
	}

	driver := newShardDriver(numShards, workers, cfg.Link.Metrics, cfg.Link.Trace, opts.Profile)
	if err := runWindows(driver, winArr, lookahead, drain, cfg.MaxEvents); err != nil {
		return TransportResult{}, err
	}
	return run.results(faultStates)
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
	key := stTimerKeyBase + int64(f.timerGen)*r.nf + int64(flow)
	sh.q.Push(sh.now+f.rto, key, stevent{flow: int32(flow), gen: f.timerGen, kind: tevTimer})
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
				ID: int64(flow), Node: f.cur.fwd[0], Hop: seq})
		}
	}
	key := r.pktKey(f.dataJn, 0, int32(flow))
	f.dataJn++
	r.transmit(sh, stevent{path: f.cur, key: key, flow: int32(flow), seq: int32(seq), kind: tevData}, 0)
}

// transmit pushes packet ev onto the link at position idx of its path —
// exactly the serial engine's queueing model, except the path comes from the
// event, not the flow. The transmitter node is always local to sh, so its
// linkFree element is only ever written here, by its owner shard.
func (r *stRun) transmit(sh *stShard, ev stevent, idx int) {
	p := ev.path
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
	if dst := int(r.nodeShard[v]); dst == sh.id {
		sh.q.Push(done+r.cfg.Link.LinkDelaySec, ev.key, ev)
	} else {
		sh.win.send(dst, done+r.cfg.Link.LinkDelaySec, ev.key, ev)
	}
}

// onArrival advances a packet along its carried path or hands it to the
// endpoint. There is no stale-route check: a packet rides the path it was
// launched on to the end (see the package comment).
func (r *stRun) onArrival(sh *stShard, ev stevent) {
	if int(ev.idx) < len(ev.path.fwd)-1 {
		r.transmit(sh, ev, int(ev.idx))
		return
	}
	if ev.kind == tevAck {
		r.cAckArr.Inc()
		r.onAck(sh, int(ev.flow), int(ev.seq), ev.ce)
		return
	}
	r.cDataArr.Inc()
	r.onData(sh, int(ev.flow), int(ev.seq), ev.ce, ev.path)
}

// onData is the receiver: buffer/advance and emit a cumulative ACK over the
// reverse of the path the data packet arrived on, echoing congestion marks.
func (r *stRun) onData(sh *stShard, flow, seq int, ce bool, path *pathAlt) {
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
	key := r.pktKey(f.ackJn, 1, int32(flow))
	f.ackJn++
	r.transmit(sh, stevent{path: path, key: key, flow: int32(flow), seq: int32(f.rcvNext), kind: tevAck, ce: echo}, 0)
}

// onAck is the sender: slide the window, grow/shrink cwnd, pump. Identical
// to the serial engine except the dead-path check reads the active path
// snapshot.
func (r *stRun) onAck(sh *stShard, flow, ackNo int, ce bool) {
	f := &r.flows[flow]
	if f.done || f.aborted {
		return
	}
	if r.cfg.ECN && ce && ackNo >= f.ecnHoldUntil {
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
			sh.fs.cur.Delivered += int64(newly)
			sh.fs.cur.DeliveredBytes += int64(newly) * int64(r.cfg.Link.MTU)
		}
		if r.st.armed {
			r.st.goodput.Add(int64(sh.now*1e9), int64(newly)*int64(r.cfg.Link.MTU))
		}
		if f.alts != nil {
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
		f.rto = r.cfg.RTOSec
		if f.acked >= f.total {
			f.done = true
			f.finish = sh.now
			f.timerGen++ // cancel the timer
			r.cDone.Inc()
			if sh.fs != nil {
				sh.fs.cur.CompletedFlows++
			}
			if r.tracer != nil {
				r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "flow_done",
					ID: int64(flow), Node: f.cur.fwd[len(f.cur.fwd)-1], Hop: f.total})
			}
			return
		}
		r.armTimer(sh, flow)
	case ackNo == f.acked:
		f.dupAcks++
		if f.dupAcks == r.cfg.DupAckThreshold {
			if f.alts != nil && !f.cur.fwd.Alive(r.net, sh.fs.view) {
				r.failover(sh, flow)
			} else {
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

// onTimer fires a retransmission timeout: collapse the window, reroute if
// the failure set changed, abort after MaxFlowTimeouts without progress.
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
					ID: int64(flow), Node: f.cur.fwd[0], Hop: f.acked})
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

// reroute revalidates a flow's route against the current failure view,
// preferring the multipath scoreboard and falling back to RouteAvoiding.
// Unlike the serial engine nothing is orphaned: packets in flight keep their
// carried path (see the package comment). The new pathAlt is a fresh
// allocation — packets already launched keep pointing at the old one.
func (r *stRun) reroute(sh *stShard, flow int) {
	f := &r.flows[flow]
	f.planEpoch = sh.fs.epoch
	if f.cur.fwd.Alive(r.net, sh.fs.view) {
		return // current route survived this failure set
	}
	if f.alts != nil {
		r.probation(sh, flow, f.curIdx)
		if j := r.pickPath(sh, flow); j >= 0 {
			r.switchPath(sh, flow, j)
			return
		}
	}
	if r.frouter == nil {
		return // no fault router: keep timing out until repair
	}
	p, err := r.frouter.RouteAvoiding(f.cur.fwd[0], f.cur.fwd[len(f.cur.fwd)-1], sh.fs.view)
	if err != nil || len(p) < 2 {
		return // unroutable under this failure set: wait for the next epoch
	}
	res, err := appendPathRes(make([]int32, 0, len(p)-1), r.g, p)
	if err != nil {
		return
	}
	f.cur = &pathAlt{fwd: p, res: res}
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
			ID: int64(flow), Node: f.cur.fwd[0], Hop: len(p) - 1})
	}
}

// pickPath returns the lowest-indexed scoreboard path that is alive and not
// in probation; with none, the lowest-indexed alive one; -1 when the whole
// scoreboard is dead (multipath.go's rule exactly).
func (r *stRun) pickPath(sh *stShard, flow int) int {
	f := &r.flows[flow]
	benched := -1
	for j := range f.alts {
		if !f.alts[j].fwd.Alive(r.net, sh.fs.view) {
			continue
		}
		if f.probing[j] {
			if benched < 0 {
				benched = j
			}
			continue
		}
		return j
	}
	return benched
}

// switchPath activates scoreboard path j. Packets in flight on the old path
// ride it out (no route-epoch orphaning here).
func (r *stRun) switchPath(sh *stShard, flow, j int) {
	f := &r.flows[flow]
	f.curIdx = j
	f.cur = &f.alts[j]
	sh.pathSwitches++
	r.cSwitch.Inc()
	if r.tracer != nil {
		r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "path_switch",
			ID: int64(flow), Node: f.cur.fwd[0], Hop: j})
	}
}

// probation benches scoreboard path j; a probe (local: probes live on the
// sender's shard) re-tests it after the path's exponential backoff.
func (r *stRun) probation(sh *stShard, flow, j int) {
	f := &r.flows[flow]
	if j < 0 || f.probing[j] {
		return
	}
	f.probing[j] = true
	f.probeGen[j]++
	key := stProbeKeyBase + (int64(f.probeGen[j])*int64(r.mpK+1)+int64(j))*r.nf + int64(flow)
	sh.q.Push(sh.now+f.backoff[j], key,
		stevent{flow: int32(flow), seq: int32(j), gen: f.probeGen[j], kind: tevProbe})
	f.backoff[j] = math.Min(f.backoff[j]*2, 64*r.cfg.RTOSec)
}

// onProbe re-tests benched path j against the live failure view.
func (r *stRun) onProbe(sh *stShard, flow, j int, gen int32) {
	f := &r.flows[flow]
	if f.alts == nil || gen != f.probeGen[j] || !f.probing[j] {
		return // superseded probe
	}
	if f.done || f.aborted {
		f.probing[j] = false
		return // flow over: stop probing so the run can drain
	}
	if f.alts[j].fwd.Alive(r.net, sh.fs.view) {
		f.probing[j] = false
		f.probeGen[j]++
		f.backoff[j] = r.cfg.RTOSec
		sh.probeOK++
		r.cProbeOK.Inc()
		if r.tracer != nil {
			r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "probe",
				ID: int64(flow), Node: f.alts[j].fwd[0], Hop: j, Detail: "up"})
		}
		if f.curIdx < 0 || j < f.curIdx {
			r.switchPath(sh, flow, j)
			if f.started {
				r.restartPipe(sh, flow)
			}
		}
		return
	}
	sh.probeFail++
	r.cProbeFail.Inc()
	if r.tracer != nil {
		r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "probe",
			ID: int64(flow), Node: f.alts[j].fwd[0], Hop: j, Detail: "down"})
	}
	f.probeGen[j]++
	key := stProbeKeyBase + (int64(f.probeGen[j])*int64(r.mpK+1)+int64(j))*r.nf + int64(flow)
	sh.q.Push(sh.now+f.backoff[j], key,
		stevent{flow: int32(flow), seq: int32(j), gen: f.probeGen[j], kind: tevProbe})
	f.backoff[j] = math.Min(f.backoff[j]*2, 64*r.cfg.RTOSec)
}

// failover is the fast-signal recovery path: recover a route via the
// scoreboard (or RouteAvoiding) and restart the pipe immediately. The active
// path is an immutable snapshot, so "did reroute change anything" is a
// pointer comparison.
func (r *stRun) failover(sh *stShard, flow int) {
	f := &r.flows[flow]
	if f.done || f.aborted {
		return
	}
	old := f.cur
	r.reroute(sh, flow)
	if f.cur == old {
		return // nowhere to go under this failure set
	}
	sh.failovers++
	r.cFailover.Inc()
	sh.fs.cur.Failovers++
	if r.st.armed {
		r.st.failover.Add(int64(sh.now*1e9), 1)
	}
	if r.tracer != nil {
		r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "failover",
			ID: int64(flow), Node: f.cur.fwd[0], Hop: f.curIdx})
	}
	if f.started {
		r.restartPipe(sh, flow)
	}
}

// restartPipe restarts the sender on a freshly activated path (one loss
// event, not a full RTO collapse).
func (r *stRun) restartPipe(sh *stShard, flow int) {
	f := &r.flows[flow]
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = f.ssthresh
	f.dupAcks = 0
	f.inflight = 1
	r.sendData(sh, flow, f.acked, true)
	r.pump(sh, flow)
}

// onFaultEvent is the proactive failover trigger. Every shard applies every
// fault transition, but each scans only the flows whose sender it owns (in
// ascending flow order, so the scan is deterministic), and a failover's
// first-hop transmission uses the sender's own outgoing links — same-time
// failovers on different shards can never contend.
func (r *stRun) onFaultEvent(sh *stShard) {
	if r.mpK == 0 {
		return
	}
	for _, fi := range r.localFlows[sh.id] {
		f := &r.flows[fi]
		if f.done || f.aborted || f.alts == nil {
			continue
		}
		if !f.cur.fwd.Alive(r.net, sh.fs.view) {
			r.failover(sh, int(fi))
		}
	}
}

// results aggregates the run: integer tallies sum across shards, flow
// completion times are read in flow-index order (deterministic regardless of
// which shard finished each flow), and the timelines merge epoch-wise.
func (r *stRun) results(faultStates []*faultState) (TransportResult, error) {
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
	if faultStates != nil {
		if r.cfg.Timeline != nil {
			if err := finishShardTimelines(r.cfg.Timeline, faultStates, res.MakespanSec); err != nil {
				return TransportResult{}, err
			}
		} else {
			for _, fs := range faultStates {
				fs.finish(res.MakespanSec)
			}
		}
	}
	return res, nil
}
