// Closed-loop driving of the transport engine. RunTransport takes a fixed
// workload known up front; layers that react to completions — retrying RPCs,
// dependency chains, anything with a control loop — need to inject flows and
// schedule their own callbacks *while* the event loop runs. TransportEngine
// drives a one-shard run of the transport engine behind three calls:
// InjectFlow adds a flow mid-run (routed on demand, route cached per server
// pair), Schedule registers a timer callback riding the event queue (wake
// events), and Run drains to completion. Combined with
// TransportConfig.OnFlowDone this gives a deterministic single-threaded
// reactor: callbacks fire in event order and everything they inject lands on
// the same totally-ordered queue.

package packetsim

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// engineRoute is one cached per-server-pair route: the id of its healthy
// primary among the run's static paths and, when multipath is armed, the
// size of its scoreboard, which follows the primary there. Shared by every
// flow injected for the pair (per-flow probation state lives on the
// stflow).
type engineRoute struct {
	prim  int32
	nAlts int
}

// TransportEngine is the closed-loop variant of RunTransport. Construct
// with a validated config, inject at least one flow or schedule a wake,
// then Run. Not safe for concurrent use: all calls — including those made
// from OnFlowDone and Schedule callbacks — must come from the single
// goroutine driving Run.
type TransportEngine struct {
	t       topology.Topology
	run     *stRun
	mrouter topology.MultipathRouter
	routes  map[int64]engineRoute
	ran     bool
}

// NewTransportEngine validates cfg and builds an idle engine on t. The
// fault plan's transition events (if any) are queued immediately, so a
// subsequent Run with no injected flows still plays the plan out.
func NewTransportEngine(t topology.Topology, cfg TransportConfig) (*TransportEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	run, err := newStRun(t, cfg, 1)
	if err != nil {
		return nil, err
	}
	mrouter, _ := t.(topology.MultipathRouter)
	return &TransportEngine{t: t, run: run, mrouter: mrouter, routes: make(map[int64]engineRoute)}, nil
}

// Now returns the current simulation time (0 before Run).
func (e *TransportEngine) Now() float64 { return e.run.shards[0].now }

// Schedule registers fn to fire at atSec simulation time. Callbacks run at
// a safe point in the event loop and may inject flows or schedule further
// wakes; same-time wakes fire in registration order, after every other
// event at that time.
func (e *TransportEngine) Schedule(atSec float64, fn func(nowSec float64)) error {
	if fn == nil {
		return fmt.Errorf("packetsim: Schedule requires a callback")
	}
	if math.IsNaN(atSec) || math.IsInf(atSec, 0) {
		return fmt.Errorf("packetsim: wake at %g is not a finite time", atSec)
	}
	if now := e.Now(); atSec < now {
		return fmt.Errorf("packetsim: wake at %g is before now %g", atSec, now)
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
	r.wakeOrd++
	r.shards[0].q.Push(atSec, keyWakeBase+r.wakeOrd, stevent{kind: tevWake, seq: slot})
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
	if now := e.Now(); startSec < now {
		return 0, fmt.Errorf("packetsim: inject at %g is before now %g", startSec, now)
	}
	if src == dst {
		id := len(r.flows)
		r.flows = append(r.flows, stflow{start: startSec})
		err := e.Schedule(startSec, func(now float64) {
			f := &r.flows[id]
			f.started, f.done, f.finish = true, true, now
			r.cDone.Inc()
			if fs := r.shards[0].fs; fs != nil {
				fs.cur.CompletedFlows++
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
	return r.addFlow(rt.prim, rt.nAlts, bytes, startSec), nil
}

// routeFor compiles (or returns the cached) route for a server pair,
// including the multipath scoreboard when the layer is armed.
func (e *TransportEngine) routeFor(src, dst int) (engineRoute, error) {
	key := int64(src)<<32 | int64(dst)
	if rt, ok := e.routes[key]; ok {
		return rt, nil
	}
	r := e.run
	p, err := e.t.Route(r.net.Server(src), r.net.Server(dst))
	if err != nil {
		return engineRoute{}, fmt.Errorf("packetsim: route %d->%d: %w", src, dst, err)
	}
	if len(p) < 2 {
		return engineRoute{}, fmt.Errorf("packetsim: route %d->%d too short", src, dst)
	}
	res, err := appendPathRes(make([]int32, 0, len(p)-1), r.g, p)
	if err != nil {
		return engineRoute{}, fmt.Errorf("packetsim: route %d->%d: %w", src, dst, err)
	}
	rt := engineRoute{prim: int32(len(r.paths))}
	if r.mpK > 0 {
		alts, err := pairPaths(e.mrouter, r.g, pathAlt{fwd: p, res: res}, r.mpK)
		if err != nil {
			return engineRoute{}, fmt.Errorf("packetsim: route %d->%d multipath: %w", src, dst, err)
		}
		r.paths = append(r.paths, alts...)
		rt.nAlts = len(alts)
	} else {
		r.paths = append(r.paths, pathAlt{fwd: p, res: res})
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
	return e.run.run(1, nil)
}
