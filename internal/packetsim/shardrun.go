// The datagram packet engine, partitioned by topology shard and driven by the
// conservative window loop in shard.go. Each shard owns the nodes
// topology.ShardNodes assigns it, the directed link resources whose
// transmitter it owns, and its own event queue; packets hop between shards as
// barrier-exchanged handoffs. Run is the one-shard case.

package packetsim

import (
	"math"

	"repro/internal/eventq"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// pktShard is one shard of the packet engine: its event queue plus the run
// tallies it accumulates locally and the merge step folds together.
type pktShard struct {
	q   eventq.Batched[simEvent]
	win windowShard[simEvent]
	fs  *faultState

	delivered, dropped, droppedFault int
	makespan                         float64
	latencies                        []float64
}

// RunSharded simulates the workload across opts.Shards topology shards; Run
// is the one-shard case. The result is byte-identical for every shard count
// and GOMAXPROCS because every event is keyed by content, not push order:
// each hop of a packet's journey carries the packet id, so same-time events
// pop in packet-id order on whichever shard owns them, and the mean latency
// is summed over the sorted samples (mergeLatencies).
//
// Trace events from concurrent shards interleave nondeterministically (their
// multiset is still fixed); run with ShardOpts{Workers: 1} for a
// deterministic trace order.
func RunSharded(t topology.Topology, flows []traffic.Flow, cfg Config, opts ShardOpts) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	plan, err := planFor(t, flows)
	if err != nil {
		return Result{}, err
	}
	net := t.Network()
	numShards, workers := opts.normalized(net.Graph().NumNodes())
	nodeShard := topology.ShardNodes(t, numShards)
	// resShard[r] is the shard that owns the receiver of directed resource
	// r (2e for the hop U->V of edge e when U < V, 2e+1 the other way), so
	// a hop finds its next owner from the resource it already holds. Reading
	// the next node from the flow's path instead costs a cache miss per
	// forwarded packet, since every path is its own allocation.
	var resShard []int32
	if numShards > 1 {
		g := net.Graph()
		resShard = make([]int32, plan.numRes)
		for e := range g.NumEdges() {
			ed := g.Edge(e)
			resShard[2*e] = nodeShard[max(ed.U, ed.V)]
			resShard[2*e+1] = nodeShard[min(ed.U, ed.V)]
		}
	}

	txTime := float64(cfg.MTU) / cfg.LinkBandwidthBps
	gap := float64(cfg.MTU) / cfg.FlowRateBps
	// Lookahead: a cross-shard hop costs at least one transmit time plus the
	// propagation delay, so events generated inside a window land at least
	// this far past its start on any other shard.
	lookahead := txTime + cfg.LinkDelaySec

	shardsArr := make([]*pktShard, numShards)
	winArr := make([]*windowShard[simEvent], numShards)
	for s := range shardsArr {
		ps := &pktShard{}
		ps.win.q = &ps.q
		ps.win.out = make([][]handoff[simEvent], numShards)
		shardsArr[s] = ps
		winArr[s] = &ps.win
	}

	// Injections are shard-local: each flow's pending-injection event lives on
	// its source node's shard. Keys are the packet ids base[i]+pn — constant
	// across a packet's whole journey, and a strict tie-break because a
	// journey has exactly one live event at any time.
	packets := make([]int32, len(flows))
	base := make([]int64, len(flows))
	var totalPackets int64
	for i, f := range flows {
		base[i] = totalPackets
		if len(plan.paths[i]) < 2 {
			continue // src == dst
		}
		packets[i] = int32((f.Bytes + int64(cfg.MTU) - 1) / int64(cfg.MTU))
		totalPackets += int64(packets[i])
		if packets[i] > 0 {
			src := int(nodeShard[plan.paths[i][0]])
			shardsArr[src].q.Push(f.StartSec, base[i], simEvent{flow: int32(i), pn: 0, idx: 0})
		}
	}
	// An even share of the offered packets per shard: at one shard the
	// latency samples never regrow.
	for _, ps := range shardsArr {
		ps.latencies = make([]float64, 0, totalPackets/int64(numShards))
	}

	// Fault plans replicate: every shard pops every transition at its exact
	// simulated time (negative keys sort before any packet at the same time),
	// so all per-shard failure views agree at every instant.
	var faultStates []*faultState
	if cfg.Faults != nil {
		faultStates, err = newShardFaultStates(cfg.Faults, net, numShards,
			cfg.Timeline != nil, cfg.Metrics, cfg.Trace)
		if err != nil {
			return Result{}, err
		}
		for s, ps := range shardsArr {
			for i, fe := range cfg.Faults.Events {
				ps.q.Push(fe.TimeSec, int64(i)-int64(len(cfg.Faults.Events)),
					simEvent{flow: -1, pn: int32(i)})
			}
			ps.fs = faultStates[s]
		}
	}

	var (
		cDelivered = cfg.Metrics.Counter(MetricDelivered)
		cDropped   = cfg.Metrics.Counter(MetricDroppedTail)
		cFault     = cfg.Metrics.Counter(MetricDroppedFault)
		hQueue     = cfg.Metrics.Histogram(MetricQueueDepth)
		hHops      = cfg.Metrics.Histogram(MetricHops)
		hLatency   = cfg.Metrics.Histogram(MetricLatencyNs)
		tracer     = cfg.Trace
		st         = newSeriesTracks(cfg.Series)
	)

	// linkFree is shared, but each element is touched only by the owner shard
	// of its transmitter node, so access is disjoint by construction.
	linkFree := make([]float64, plan.numRes)

	drain := func(s int, end float64) {
		ps := shardsArr[s]
		q, w := &ps.q, &ps.win
		fs := ps.fs
		for q.Len() > 0 {
			if t, _, _ := q.Peek(); t >= end {
				return
			}
			now, _, ev := q.Pop()
			w.processed++
			if ev.flow < 0 {
				fs.apply(now, int(ev.pn))
				continue
			}
			fi := int(ev.flow)
			path := plan.paths[fi]
			if ev.idx == 0 && ev.pn+1 < packets[fi] {
				// The packet just left its source: queue the flow's next
				// injection (always local — same source node).
				pn := ev.pn + 1
				q.Push(flows[fi].StartSec+float64(pn)*gap, base[fi]+int64(pn),
					simEvent{flow: ev.flow, pn: pn, idx: 0})
			}
			idx := int(ev.idx)
			pid := base[fi] + int64(ev.pn)
			if idx == len(path)-1 {
				sentAt := flows[fi].StartSec + float64(ev.pn)*gap
				ps.delivered++
				lat := now - sentAt
				ps.latencies = append(ps.latencies, lat)
				if now > ps.makespan {
					ps.makespan = now
				}
				cDelivered.Inc()
				hHops.Observe(int64(len(path) - 1))
				hLatency.Observe(int64(lat * 1e9))
				if st.armed {
					st.goodput.Add(int64(now*1e9), int64(cfg.MTU))
				}
				if fs != nil {
					fs.cur.Delivered++
					fs.cur.DeliveredBytes += int64(cfg.MTU)
				}
				if tracer != nil {
					tracer.Record(obs.Event{TimeNs: int64(now * 1e9), Kind: "deliver",
						ID: pid, Node: path[idx], Hop: idx})
				}
				continue
			}
			r := plan.flowRes(fi)[idx]
			if fs != nil && !fs.hopAlive(path[idx], path[idx+1], r) {
				ps.droppedFault++
				cFault.Inc()
				fs.cur.DroppedFault++
				if st.armed {
					st.dropFault.Add(int64(now*1e9), 1)
				}
				if tracer != nil {
					tracer.Record(obs.Event{TimeNs: int64(now * 1e9), Kind: "drop",
						ID: pid, Node: path[idx], Hop: idx, Detail: DropCauseFault})
				}
				continue
			}
			backlog := (linkFree[r] - now) / txTime
			if hQueue != nil {
				hQueue.Observe(int64(math.Max(backlog, 0)))
			}
			if st.armed {
				st.queue.Add(int64(now*1e9), int64(math.Max(backlog, 0)))
			}
			if backlog > float64(cfg.QueueLimitPackets) {
				ps.dropped++
				cDropped.Inc()
				if fs != nil {
					fs.cur.DroppedTail++
				}
				if st.armed {
					st.dropTail.Add(int64(now*1e9), 1)
				}
				if tracer != nil {
					tracer.Record(obs.Event{TimeNs: int64(now * 1e9), Kind: "drop",
						ID: pid, Node: path[idx], Hop: idx, Detail: DropCauseTail})
				}
				continue
			}
			if tracer != nil {
				tracer.Record(obs.Event{TimeNs: int64(now * 1e9), Kind: "hop",
					ID: pid, Node: path[idx], Hop: idx})
			}
			start := math.Max(now, linkFree[r])
			done := start + txTime
			linkFree[r] = done
			// At one shard every hop is local: skip the owner lookup, a
			// measurable share of the one-shard run's forwarding cost.
			dst := s
			if numShards > 1 {
				dst = int(resShard[r])
			}
			next := simEvent{flow: ev.flow, pn: ev.pn, idx: ev.idx + 1}
			if dst == s {
				q.Push(done+cfg.LinkDelaySec, pid, next)
			} else {
				w.send(dst, done+cfg.LinkDelaySec, pid, next)
			}
		}
	}

	driver := newShardDriver(numShards, workers, cfg.Metrics, cfg.Trace, opts.Profile)
	if err := runWindows(driver, winArr, lookahead, drain, 0); err != nil {
		return Result{}, err
	}

	// Merge: integer tallies sum; the makespan is a max; the latency stats
	// come from the sorted concatenation, so every number is independent of
	// how work was spread across shards.
	var res Result
	parts := make([][]float64, numShards)
	for s, ps := range shardsArr {
		res.Delivered += ps.delivered
		res.Dropped += ps.dropped
		res.DroppedFault += ps.droppedFault
		if ps.makespan > res.MakespanSec {
			res.MakespanSec = ps.makespan
		}
		parts[s] = ps.latencies
	}
	res.AvgLatencySec, res.P99LatencySec = mergeLatencies(parts)
	if res.MakespanSec > 0 {
		res.ThroughputBps = float64(int64(res.Delivered)*int64(cfg.MTU)) / res.MakespanSec
	}
	if faultStates != nil {
		if cfg.Timeline != nil {
			if err := finishShardTimelines(cfg.Timeline, faultStates, res.MakespanSec); err != nil {
				return Result{}, err
			}
		} else {
			for _, fs := range faultStates {
				fs.finish(res.MakespanSec)
			}
		}
	}
	return res, nil
}
