package packetsim

// This file preserves the pre-overhaul discrete-event engines — eager
// per-packet materialization onto a binary container/heap, with per-hop
// EdgeBetween adjacency scans — exactly as they shipped, modulo the
// nearest-rank p99 fix (applied to both engines so the comparison is about
// the event machinery, not the quantile formula). They exist only as the
// oracle for the equivalence tests and the baseline for the engine
// benchmarks: the production engines compile routes once and drive unboxed
// event queues (eventq.Batched for the datagram engine, a tqueue of 4-ary
// eventq.Queues per transport shard) with lazy packet injection, and the
// tests pin their Result/TransportResult byte-identical to these.
//
// Both oracles carry the production engines' content-keyed semantics, so
// they pin every shard count, not just one: referenceRun keys a forwarded
// event by its packet id (not a push counter) and sums the mean latency
// over the sorted samples; referenceRunTransport keys a flow start by the
// flow, a packet by its journey (pktKey) for every hop, and a timer by its
// generation (keyTimerBase + gen*keyFlowStride + flow).

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// refEvent is a packet arriving at position idx of its path at time t.
type refEvent struct {
	t   float64
	seq int64 // deterministic tie-break
	pkt *refPacket
	idx int // index into pkt.path of the node just reached
}

// refPacket is heap-allocated once per simulated packet — the allocation the
// lazy-injection engine eliminates.
type refPacket struct {
	path    topology.Path
	bytes   int
	sentAt  float64
	flowIdx int32
	id      int32
}

type refEventHeap []refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// referenceRun is the pre-overhaul Run.
func referenceRun(t topology.Topology, flows []traffic.Flow, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	paths, err := flowsimRoute(t, flows)
	if err != nil {
		return Result{}, err
	}
	g := t.Network().Graph()

	txTime := float64(cfg.MTU) / cfg.LinkBandwidthBps
	gap := float64(cfg.MTU) / cfg.FlowRateBps

	var h refEventHeap
	var seq int64
	for i, f := range flows {
		if len(paths[i]) < 2 {
			continue // src == dst
		}
		packets := int((f.Bytes + int64(cfg.MTU) - 1) / int64(cfg.MTU))
		for pn := 0; pn < packets; pn++ {
			sent := f.StartSec + float64(pn)*gap
			h = append(h, refEvent{
				t:   sent,
				seq: seq,
				pkt: &refPacket{path: paths[i], bytes: cfg.MTU, sentAt: sent, flowIdx: int32(i), id: int32(seq)},
				idx: 0,
			})
			seq++
		}
	}
	heap.Init(&h)

	linkFree := make([]float64, 2*g.NumEdges())
	var res Result
	var latencies []float64
	var deliveredBytes int64

	for h.Len() > 0 {
		ev := heap.Pop(&h).(refEvent)
		pkt, idx := ev.pkt, ev.idx
		if idx == len(pkt.path)-1 {
			res.Delivered++
			deliveredBytes += int64(pkt.bytes)
			latencies = append(latencies, ev.t-pkt.sentAt)
			if ev.t > res.MakespanSec {
				res.MakespanSec = ev.t
			}
			continue
		}
		u, v := pkt.path[idx], pkt.path[idx+1]
		e := g.EdgeBetween(u, v)
		r := 2 * e
		if u > v {
			r++
		}
		backlog := (linkFree[r] - ev.t) / txTime
		if backlog > float64(cfg.QueueLimitPackets) {
			res.Dropped++
			continue
		}
		start := math.Max(ev.t, linkFree[r])
		done := start + txTime
		linkFree[r] = done
		heap.Push(&h, refEvent{t: done + cfg.LinkDelaySec, seq: int64(pkt.id), pkt: pkt, idx: idx + 1})
	}

	if len(latencies) > 0 {
		sort.Float64s(latencies)
		sum := 0.0
		for _, l := range latencies {
			sum += l
		}
		res.AvgLatencySec = sum / float64(len(latencies))
		res.P99LatencySec = quantile(latencies, 0.99)
	}
	if res.MakespanSec > 0 {
		res.ThroughputBps = float64(deliveredBytes) / res.MakespanSec
	}
	return res, nil
}

// refTflow is the per-flow sender/receiver state of the old transport.
type refTflow struct {
	fwd, rev topology.Path
	total    int

	nextSend int
	acked    int
	dupAcks  int
	inflight int
	cwnd     float64
	ssthresh float64
	rto      float64
	timerGen int64
	done     bool
	start    float64
	finish   float64

	rcvNext int
	buffer  map[int]bool
	rcvCE   bool

	ecnHoldUntil int
	dataJn       int32 // data journeys launched
	ackJn        int32 // ACK journeys launched
}

// refTpkt is a transport packet in flight (one heap allocation per send —
// another cost the value-event engine removes).
type refTpkt struct {
	flow  int
	seq   int
	isAck bool
	ce    bool
	key   int64 // the journey's event key, kept on every hop
}

// startGen marks a flow-start event rather than a retransmission timer.
const startGen = -1

// refTevent is either a packet arrival (pkt != nil), a flow timer, or a flow
// start (gen == startGen).
type refTevent struct {
	t    float64
	key  int64 // content key: ties pop by it, as in the production engine
	pkt  *refTpkt
	idx  int
	flow int
	gen  int64
}

type refTeventHeap []refTevent

func (h refTeventHeap) Len() int { return len(h) }
func (h refTeventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].key < h[j].key
}
func (h refTeventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refTeventHeap) Push(x any)   { *h = append(*h, x.(refTevent)) }
func (h *refTeventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refTransportRun is the old mutable transport state.
type refTransportRun struct {
	cfg    TransportConfig
	net    *topology.Network
	flows  []*refTflow
	h      refTeventHeap
	now    float64
	events int64

	linkFree   []float64
	retransmit int
	ecnMarks   int
}

// referenceRunTransport is the pre-overhaul RunTransport.
func referenceRunTransport(t topology.Topology, flows []traffic.Flow, cfg TransportConfig) (TransportResult, error) {
	if err := cfg.Validate(); err != nil {
		return TransportResult{}, err
	}
	paths, err := flowsimRoute(t, flows)
	if err != nil {
		return TransportResult{}, err
	}
	run := &refTransportRun{
		cfg:      cfg,
		net:      t.Network(),
		linkFree: make([]float64, 2*t.Network().Graph().NumEdges()),
	}
	for i, f := range flows {
		if len(paths[i]) < 2 {
			continue // local flow: nothing to transport
		}
		rev := make(topology.Path, len(paths[i]))
		for j, node := range paths[i] {
			rev[len(paths[i])-1-j] = node
		}
		fl := &refTflow{
			fwd:      paths[i],
			rev:      rev,
			total:    int((f.Bytes + int64(cfg.Link.MTU) - 1) / int64(cfg.Link.MTU)),
			cwnd:     cfg.InitCwnd,
			ssthresh: cfg.MaxCwnd,
			rto:      cfg.RTOSec,
			start:    f.StartSec,
			buffer:   make(map[int]bool),
		}
		run.flows = append(run.flows, fl)
		k := len(run.flows) - 1
		run.h = append(run.h, refTevent{t: f.StartSec, key: int64(k), flow: k, gen: startGen})
	}
	heap.Init(&run.h)

	for run.h.Len() > 0 {
		run.events++
		if run.events > cfg.MaxEvents {
			return TransportResult{}, fmt.Errorf("packetsim: transport exceeded %d events", cfg.MaxEvents)
		}
		ev := heap.Pop(&run.h).(refTevent)
		run.now = ev.t
		if ev.pkt == nil {
			if ev.gen == startGen {
				run.pump(ev.flow)
			} else {
				run.onTimer(ev.flow, ev.gen)
			}
			continue
		}
		run.onArrival(ev)
	}

	return run.results(), nil
}

func (r *refTransportRun) pump(flow int) {
	f := r.flows[flow]
	for !f.done && f.inflight < int(f.cwnd) && f.nextSend < f.total {
		r.sendData(flow, f.nextSend, false)
		f.nextSend++
		f.inflight++
	}
	if !f.done && f.acked < f.total {
		r.armTimer(flow)
	}
}

func (r *refTransportRun) armTimer(flow int) {
	f := r.flows[flow]
	f.timerGen++
	heap.Push(&r.h, refTevent{t: r.now + f.rto, key: keyTimerBase + f.timerGen*keyFlowStride + int64(flow), flow: flow, gen: f.timerGen})
}

func (r *refTransportRun) sendData(flow, seq int, rtx bool) {
	if rtx {
		r.retransmit++
	}
	f := r.flows[flow]
	key := pktKey(f.dataJn, 0, int32(flow))
	f.dataJn++
	r.transmit(&refTpkt{flow: flow, seq: seq, key: key}, f.fwd, 0, r.cfg.Link.MTU)
}

func (r *refTransportRun) transmit(p *refTpkt, path topology.Path, idx, bytes int) {
	u, v := path[idx], path[idx+1]
	g := r.net.Graph()
	e := g.EdgeBetween(u, v)
	res := 2 * e
	if u > v {
		res++
	}
	txTime := float64(bytes) / r.cfg.Link.LinkBandwidthBps
	backlog := (r.linkFree[res] - r.now) / txTime
	if backlog > float64(r.cfg.Link.QueueLimitPackets) {
		return // drop-tail: the transport's loss recovery will handle it
	}
	if r.cfg.ECN && !p.isAck && backlog > float64(r.cfg.ECNThresholdPackets) && !p.ce {
		p.ce = true
		r.ecnMarks++
	}
	start := math.Max(r.now, r.linkFree[res])
	done := start + txTime
	r.linkFree[res] = done
	heap.Push(&r.h, refTevent{t: done + r.cfg.Link.LinkDelaySec, key: p.key, pkt: p, idx: idx + 1})
}

func (r *refTransportRun) onArrival(ev refTevent) {
	p := ev.pkt
	f := r.flows[p.flow]
	path := f.fwd
	bytes := r.cfg.Link.MTU
	if p.isAck {
		path = f.rev
		bytes = r.cfg.AckBytes
	}
	if ev.idx < len(path)-1 {
		r.transmit(p, path, ev.idx, bytes)
		return
	}
	if p.isAck {
		r.onAck(p.flow, p.seq, p.ce)
		return
	}
	r.onData(p.flow, p.seq, p.ce)
}

func (r *refTransportRun) onData(flow, seq int, ce bool) {
	f := r.flows[flow]
	if seq >= f.rcvNext {
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
	r.transmit(&refTpkt{flow: flow, seq: f.rcvNext, isAck: true, ce: echo, key: key}, f.rev, 0, r.cfg.AckBytes)
}

func (r *refTransportRun) onAck(flow, ackNo int, ce bool) {
	f := r.flows[flow]
	if f.done {
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
		f.inflight -= newly
		if f.inflight < 0 {
			f.inflight = 0
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
			f.finish = r.now
			f.timerGen++
			return
		}
		r.armTimer(flow)
	case ackNo == f.acked:
		f.dupAcks++
		if f.dupAcks == r.cfg.DupAckThreshold {
			f.ssthresh = math.Max(f.cwnd/2, 2)
			f.cwnd = f.ssthresh
			f.dupAcks = 0
			if f.inflight > 0 {
				f.inflight--
			}
			r.sendData(flow, f.acked, true)
		}
	}
	r.pump(flow)
}

func (r *refTransportRun) onTimer(flow int, gen int64) {
	f := r.flows[flow]
	if f.done || gen != f.timerGen {
		return
	}
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = 1
	f.inflight = 1
	f.dupAcks = 0
	f.rto = math.Min(f.rto*2, 64*r.cfg.RTOSec)
	r.sendData(flow, f.acked, true)
	r.armTimer(flow)
}

func (r *refTransportRun) results() TransportResult {
	var res TransportResult
	res.Retransmits = r.retransmit
	res.ECNMarks = r.ecnMarks
	var fcts []float64
	var payload int64
	for _, f := range r.flows {
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
	return res
}
