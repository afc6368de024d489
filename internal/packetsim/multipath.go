// Proactive multipath failover for the transport engine. Structures
// implementing topology.MultipathRouter expose multiple internally
// vertex-disjoint paths per server pair; this file compiles them into the
// engine's flat link-resource form up front (cached on the routePlan, so
// sweeps pay once per workload) and defines the per-flow scoreboard the
// event loop consults: on a fast-failover signal — a fault-epoch transition
// touching the active path, or duplicate ACKs while it is dead — the flow
// switches to the next healthy precompiled path immediately instead of
// waiting for RTO. Failed paths enter exponential-backoff probation and are
// re-probed (tevProbe events) until repair; RTO plus RouteAvoiding remains
// the last resort when the whole scoreboard is dead. The scoreboard lives
// with the sender, on its source node's shard.

package packetsim

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/topology"
)

// DefaultMultipathPaths is the per-flow path-set cap used when
// TransportConfig.Multipath is set and MultipathPaths is 0.
const DefaultMultipathPaths = 4

// Multipath instrument names registered on TransportConfig.Link.Metrics.
// Per-path goodput counters are named by pathGoodputMetric.
const (
	MetricFailovers    = "transport_failovers"
	MetricPathSwitches = "transport_path_switches"
	MetricProbeSuccess = "transport_probe_success"
	MetricProbeFailure = "transport_probe_failure"
)

// pathGoodputMetric names the per-path goodput counter for scoreboard index
// j of a k-path configuration; index k is the off-scoreboard RouteAvoiding
// fallback.
func pathGoodputMetric(j, k int) string {
	if j >= k {
		return "transport_path_goodput_bytes_fallback"
	}
	return "transport_path_goodput_bytes_" + strconv.Itoa(j)
}

// pathAlt is one precompiled path alternative: the node path and its per-hop
// directed link resources (the same flat form routePlan uses).
type pathAlt struct {
	fwd topology.Path
	res []int32
}

// multipathPlan holds every flow's disjoint path set. alts[flow][0] aliases
// the routePlan primary exactly, which is what keeps the armed-but-idle
// configuration byte-identical to the single-path engine; local flows have a
// nil set. Immutable once built and shared across concurrent runs.
type multipathPlan struct {
	alts [][]pathAlt
}

// multipathFor returns the plan's path sets capped at k alternatives per
// flow, compiling them on first use. Cached per k alongside the routes, so
// the sweep shape — one workload re-run across many load points — pays the
// ParallelPaths cost once.
func (p *routePlan) multipathFor(t topology.Topology, k int) (*multipathPlan, error) {
	p.mpMu.Lock()
	defer p.mpMu.Unlock()
	if mp, ok := p.mpByK[k]; ok {
		return mp, nil
	}
	mp, err := compileMultipath(t, p, k)
	if err != nil {
		return nil, err
	}
	if p.mpByK == nil {
		p.mpByK = make(map[int]*multipathPlan)
	}
	p.mpByK[k] = mp
	return mp, nil
}

// compileMultipath builds the per-flow path sets (pairPaths per flow).
// Structures without a MultipathRouter get singleton sets — the scoreboard
// then degenerates to the RouteAvoiding-only behaviour.
func compileMultipath(t topology.Topology, plan *routePlan, k int) (*multipathPlan, error) {
	mrouter, _ := t.(topology.MultipathRouter)
	g := t.Network().Graph()
	mp := &multipathPlan{alts: make([][]pathAlt, len(plan.paths))}
	for i, primary := range plan.paths {
		if len(primary) < 2 {
			continue // local flow: never transported
		}
		alts, err := pairPaths(mrouter, g, pathAlt{fwd: primary, res: plan.flowRes(i)}, k)
		if err != nil {
			return nil, fmt.Errorf("packetsim: flow %d multipath: %w", i, err)
		}
		mp.alts[i] = alts
	}
	return mp, nil
}

// pairPaths builds one server pair's scoreboard: the primary first (kept as
// given, not recompiled), then up to k-1 of the structure's parallel paths
// between its endpoints, skipping the primary's duplicate. mrouter may be
// nil, which leaves the primary alone.
func pairPaths(mrouter topology.MultipathRouter, g *graph.Graph, primary pathAlt, k int) ([]pathAlt, error) {
	alts := []pathAlt{primary}
	if mrouter == nil {
		return alts, nil
	}
	p0 := primary.fwd
	for _, p := range mrouter.ParallelPaths(p0[0], p0[len(p0)-1]) {
		if len(alts) >= k {
			break
		}
		if len(p) < 2 || samePath(p, p0) {
			continue
		}
		res, err := appendPathRes(make([]int32, 0, len(p)-1), g, p)
		if err != nil {
			return nil, err
		}
		alts = append(alts, pathAlt{fwd: p, res: res})
	}
	return alts, nil
}

// samePath reports whether two node paths are identical.
func samePath(a, b topology.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pickPath returns the lowest-indexed scoreboard path that is alive and not
// in probation; with none, the lowest-indexed alive one (an untested path
// beats RouteAvoiding); -1 when the whole scoreboard is dead. Index order
// makes the choice deterministic and biases flows back toward the primary.
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
// ride it out.
func (r *stRun) switchPath(sh *stShard, flow, j int) {
	f := &r.flows[flow]
	f.curIdx = j
	f.curID = f.altBase + int32(j)
	sh.pathSwitches++
	r.cSwitch.Inc()
	if r.tracer != nil {
		r.tracer.Record(obs.Event{TimeNs: int64(sh.now * 1e9), Kind: "path_switch",
			ID: int64(flow), Node: f.alts[j].fwd[0], Hop: j})
	}
}

// probation benches scoreboard path j after a failure: a probe event (local:
// probes live on the sender's shard) re-tests it after the path's current
// backoff, which doubles (capped at 64 RTO) until a probe finds it alive.
func (r *stRun) probation(sh *stShard, flow, j int) {
	f := &r.flows[flow]
	if j < 0 || f.probing[j] {
		return
	}
	f.probing[j] = true
	r.pushProbe(sh, flow, j)
}

// pushProbe queues the next probe of path j under a fresh generation and
// doubles the path's backoff.
func (r *stRun) pushProbe(sh *stShard, flow, j int) {
	f := &r.flows[flow]
	f.probeGen[j]++
	key := keyProbeBase + (int64(f.probeGen[j])*int64(r.mpK+1)+int64(j))*keyFlowStride + int64(flow)
	sh.q.Push(sh.now+f.backoff[j], key,
		stevent{flow: int32(flow), seq: int32(j), gen: f.probeGen[j], kind: tevProbe})
	f.backoff[j] = math.Min(f.backoff[j]*2, 64*r.cfg.RTOSec)
}

// onProbe re-tests benched path j against the live failure view. Success
// clears probation, resets the backoff, and — when j is preferred over the
// active path (lower index, or the flow is off-scoreboard) — reverts the
// flow to it. Failure extends probation with the doubled backoff.
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
	r.pushProbe(sh, flow, j)
}

// failover is the fast-signal recovery path (fault-epoch notification or
// duplicate ACKs on a dead path): recover a route via the scoreboard — or
// RouteAvoiding as last resort — and restart the pipe immediately instead
// of waiting for RTO. Every path has its own id, so "did reroute change
// anything" is an id comparison. A flow that cannot switch (nothing alive)
// is left for the RTO/probe machinery.
func (r *stRun) failover(sh *stShard, flow int) {
	f := &r.flows[flow]
	if f.done || f.aborted {
		return
	}
	old := f.curID
	r.reroute(sh, flow)
	if f.curID == old {
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
			ID: int64(flow), Node: r.path(f.curID).fwd[0], Hop: f.curIdx})
	}
	if f.started {
		r.restartPipe(sh, flow)
	}
}

// restartPipe restarts the sender on a freshly activated path: halve the
// window (a failover is one loss event, not a full RTO collapse), write off
// what was in flight, resend the oldest unacked packet, and refill the
// window. pump re-arms the retransmission timer.
func (r *stRun) restartPipe(sh *stShard, flow int) {
	f := &r.flows[flow]
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = f.ssthresh
	f.dupAcks = 0
	f.inflight = 1
	r.sendData(sh, flow, f.acked, true)
	r.pump(sh, flow)
}

// onFaultEvent is the proactive trigger: after every fault-plan transition,
// multipath flows whose active path now touches a dead component fail over
// immediately. Repairs ride the same scan — they bump the epoch, and benched
// paths come back via their scheduled probes. Every shard applies every
// transition but scans only the flows whose sender it owns, in ascending
// flow order, and a failover's first hop leaves on the sender's own links,
// so same-time failovers on different shards never contend.
func (r *stRun) onFaultEvent(sh *stShard) {
	if r.mpK == 0 {
		return
	}
	for i := range r.flows {
		f := &r.flows[i]
		if int(f.srcShard) != sh.id || f.done || f.aborted || f.alts == nil {
			continue
		}
		if !r.path(f.curID).fwd.Alive(r.net, sh.fs.view) {
			r.failover(sh, i)
		}
	}
}
