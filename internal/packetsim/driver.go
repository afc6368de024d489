// Closed-loop driving of the transport engine. RunTransport takes a fixed
// workload known up front; layers that react to completions — retrying RPCs,
// dependency chains, anything with a control loop — need to inject flows and
// schedule their own callbacks *while* the event loop runs. TransportEngine
// wraps the same transportRun state behind three calls: InjectFlow adds a
// flow mid-run (routed on demand, route cached per server pair), Schedule
// registers a timer callback riding the event queue (tevWake), and Run
// drains to completion. Combined with TransportConfig.OnFlowDone this gives
// a deterministic single-threaded reactor: callbacks fire in event order and
// everything they inject lands on the same totally-ordered queue.

package packetsim

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// engineRoute is one cached per-server-pair route: the healthy primary and,
// when multipath is armed, the precompiled scoreboard alternatives. Shared
// read-only by every flow injected for the pair (per-flow probation state
// lives on the tflow).
type engineRoute struct {
	fwd  topology.Path
	res  []int32
	alts []pathAlt
}

// TransportEngine is the closed-loop variant of RunTransport. Construct
// with a validated config, inject at least one flow or schedule a wake,
// then Run. Not safe for concurrent use: all calls — including those made
// from OnFlowDone and Schedule callbacks — must come from the single
// goroutine driving Run.
type TransportEngine struct {
	t      topology.Topology
	run    *transportRun
	routes map[int64]*engineRoute
	ran    bool
}

// NewTransportEngine validates cfg and builds an idle engine on t. The
// fault plan's transition events (if any) are queued immediately, so a
// subsequent Run with no injected flows still plays the plan out.
func NewTransportEngine(t topology.Topology, cfg TransportConfig) (*TransportEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	run, err := newTransportRun(t, cfg, 2*t.Network().Graph().NumEdges())
	if err != nil {
		return nil, err
	}
	return &TransportEngine{t: t, run: run, routes: make(map[int64]*engineRoute)}, nil
}

// Now returns the current simulation time (0 before Run).
func (e *TransportEngine) Now() float64 { return e.run.now }

// Schedule registers fn to fire at atSec simulation time. Callbacks run at
// a safe point in the event loop and may inject flows or schedule further
// wakes; same-time wakes fire in registration order.
func (e *TransportEngine) Schedule(atSec float64, fn func(nowSec float64)) error {
	if fn == nil {
		return fmt.Errorf("packetsim: Schedule requires a callback")
	}
	if math.IsNaN(atSec) || math.IsInf(atSec, 0) {
		return fmt.Errorf("packetsim: wake at %g is not a finite time", atSec)
	}
	if atSec < e.run.now {
		return fmt.Errorf("packetsim: wake at %g is before now %g", atSec, e.run.now)
	}
	r := e.run
	var slot int32
	if n := len(r.wakeFree); n > 0 {
		slot = r.wakeFree[n-1]
		r.wakeFree = r.wakeFree[:n-1]
		r.wakes[slot] = fn
	} else {
		slot = int32(len(r.wakes))
		r.wakes = append(r.wakes, fn)
	}
	r.push(atSec, tevent{kind: tevWake, seq: slot})
	return nil
}

// InjectFlow adds a flow of bytes from server src to server dst (indices
// into Network.Servers()) opening at startSec, and returns its flow id —
// the id OnFlowDone reports back. Routes compile on first use per server
// pair against the healthy topology (exactly like RunTransport's pre-run
// compile; flows injected mid-fault reroute on RTO like any other). A local
// flow (src == dst) has nothing to transport: it completes at startSec and
// the OnFlowDone hook still fires, so closed-loop callers need no special
// case for co-located endpoints.
func (e *TransportEngine) InjectFlow(src, dst int, bytes int64, startSec float64) (int, error) {
	r := e.run
	if n := r.net.NumServers(); src < 0 || src >= n || dst < 0 || dst >= n {
		return 0, fmt.Errorf("packetsim: inject endpoints %d->%d out of range", src, dst)
	}
	if bytes <= 0 {
		return 0, fmt.Errorf("packetsim: inject needs positive bytes, got %d", bytes)
	}
	if math.IsNaN(startSec) || math.IsInf(startSec, 0) {
		return 0, fmt.Errorf("packetsim: inject at %g is not a finite time", startSec)
	}
	if startSec < r.now {
		return 0, fmt.Errorf("packetsim: inject at %g is before now %g", startSec, r.now)
	}
	id := len(r.flows)
	if src == dst {
		r.flows = append(r.flows, tflow{fwd: topology.Path{r.net.Server(src)}, start: startSec})
		err := e.Schedule(startSec, func(now float64) {
			f := &r.flows[id]
			f.started, f.done, f.finish = true, true, now
			r.cDone.Inc()
			if r.fs != nil {
				r.fs.cur.CompletedFlows++
			}
			if r.cfg.OnFlowDone != nil {
				r.doneq = append(r.doneq, flowDone{flow: int32(id), at: now, completed: true})
			}
		})
		return id, err
	}
	rt, err := e.routeFor(src, dst)
	if err != nil {
		return 0, err
	}
	r.flows = append(r.flows, tflow{
		fwd:      rt.fwd,
		res:      rt.res,
		total:    int((bytes + int64(r.cfg.Link.MTU) - 1) / int64(r.cfg.Link.MTU)),
		cwnd:     r.cfg.InitCwnd,
		ssthresh: r.cfg.MaxCwnd,
		rto:      r.cfg.RTOSec,
		start:    startSec,
	})
	if rt.alts != nil {
		f := &r.flows[id]
		f.alts = rt.alts
		f.probing = make([]bool, len(f.alts))
		f.probeGen = make([]int32, len(f.alts))
		f.backoff = make([]float64, len(f.alts))
		for j := range f.backoff {
			f.backoff[j] = r.cfg.RTOSec
		}
	}
	r.push(startSec, tevent{flow: int32(id), kind: tevStart})
	return id, nil
}

// routeFor compiles (or returns the cached) route for a server pair,
// including the multipath scoreboard when the layer is armed.
func (e *TransportEngine) routeFor(src, dst int) (*engineRoute, error) {
	key := int64(src)<<32 | int64(dst)
	if rt, ok := e.routes[key]; ok {
		return rt, nil
	}
	r := e.run
	u, v := r.net.Server(src), r.net.Server(dst)
	p, err := e.t.Route(u, v)
	if err != nil {
		return nil, fmt.Errorf("packetsim: route %d->%d: %w", src, dst, err)
	}
	if len(p) < 2 {
		return nil, fmt.Errorf("packetsim: route %d->%d too short", src, dst)
	}
	res, err := appendPathRes(make([]int32, 0, len(p)-1), r.g, p)
	if err != nil {
		return nil, fmt.Errorf("packetsim: route %d->%d: %w", src, dst, err)
	}
	rt := &engineRoute{fwd: p, res: res}
	if r.mpK > 0 {
		alts := []pathAlt{{fwd: p, res: res}}
		if mrouter, ok := e.t.(topology.MultipathRouter); ok {
			for _, ap := range mrouter.ParallelPaths(u, v) {
				if len(alts) >= r.mpK {
					break
				}
				if len(ap) < 2 || samePath(ap, p) {
					continue
				}
				ares, err := appendPathRes(make([]int32, 0, len(ap)-1), r.g, ap)
				if err != nil {
					return nil, fmt.Errorf("packetsim: route %d->%d multipath: %w", src, dst, err)
				}
				alts = append(alts, pathAlt{fwd: ap, res: ares})
			}
		}
		rt.alts = alts
	}
	e.routes[key] = rt
	return rt, nil
}

// Run drains the event queue — injected flows, scheduled wakes, fault
// transitions, and everything callbacks add along the way — and returns the
// aggregate result. Single-shot: a second call is an error.
func (e *TransportEngine) Run() (TransportResult, error) {
	if e.ran {
		return TransportResult{}, fmt.Errorf("packetsim: TransportEngine.Run called twice")
	}
	e.ran = true
	if err := e.run.drain(); err != nil {
		return TransportResult{}, err
	}
	return e.run.results(), nil
}
