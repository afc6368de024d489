// The service-layer runtime: requests arrive open-loop at the root service
// and recurse down the call graph, every RPC leg a real transport flow on
// the DCN via the closed-loop TransportEngine. The cascade mechanics follow
// production RPC stacks:
//
//   - Deadline propagation: a call issued at time t against a context with
//     absolute deadline D times out at min(t + timeout, D), and the callee
//     execution it spawns inherits that instant as its own deadline. No
//     work outlives the root request's budget.
//   - No cancellation on timeout: a caller that gives up does not reach
//     into the network — its request may still arrive and the callee will
//     do the work (bounded by the propagated deadline) and send a response
//     nobody reads. This orphaned work is the amplification mechanism that
//     makes retry storms metastable, and the WastedResponses tally measures
//     it.
//   - A failed execution sends no response; the caller discovers the
//     failure by timeout. Error-propagation shortcuts would dampen the
//     storm the layer exists to study.
//
// Everything runs on the one-shard transport engine's totally ordered event
// queue (packetsim.TransportEngine) — arrivals, timeouts, backoff timers,
// and hedges are wakes; attempt completions are OnFlowDone callbacks — so
// runs are byte-deterministic for a given (topology, graph, config, seed).

package svc

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/packetsim"
	"repro/internal/topology"
)

// Config parameterizes a service-layer run.
type Config struct {
	// Policy is the retry-mitigation strategy (see Policy).
	Policy Policy
	// DeadlineSec is the end-to-end budget of every root request.
	DeadlineSec float64
	// RatePerSec is the open-loop arrival rate; Requests is how many arrive.
	RatePerSec float64
	Requests   int
	// Seed drives placement, replica choice, and backoff jitter.
	Seed int64

	// Transport configures the underlying engine (links, faults, multipath).
	// OnFlowDone must be nil — the runtime owns the completion hook.
	Transport packetsim.TransportConfig

	// Metrics receives per-service and aggregate counters; Series receives
	// the per-service tracks (svc_ok_<name>, svc_timeout_<name>,
	// svc_retry_<name>) plus the offered/completed request tracks. Both are
	// optional and nil-safe, and deliberately separate from the transport's
	// Link.Metrics/Link.Series so a run record can carry service-level
	// telemetry alone.
	Metrics *obs.Registry
	Series  *obs.Series

	// Policy knobs; zero values take the defaults.
	BackoffBaseFrac float64 // first backoff as a fraction of the edge timeout (default 0.25)
	ThrottleTokens  float64 // token-bucket capacity per edge (default 10)
	ThrottleRatio   float64 // tokens refunded per success (default 0.1)
	HedgeDelayFrac  float64 // hedge launch point as a fraction of the timeout (default 0.5)
}

// Aggregate instrument names registered on Config.Metrics. Per-service
// counters are named by ServiceMetric.
const (
	MetricRequests         = "svc_requests"
	MetricCompleted        = "svc_completed"
	MetricDeadlineExceeded = "svc_deadline_exceeded"
	MetricAborted          = "svc_aborted"
	MetricRetries          = "svc_retries"
	MetricHedges           = "svc_hedges"
	MetricRetriesDenied    = "svc_retries_denied"
)

// Series track names written to Config.Series. Per-service tracks are named
// by ServiceMetric with the ok/timeout/retry kinds.
const (
	SeriesOffered   = "svc_offered_req"
	SeriesCompleted = "svc_done_req"
)

// ServiceMetric names the per-service instrument (and series track) of one
// outcome kind: "ok", "timeout", or "retry", attributed to the callee.
func ServiceMetric(kind, service string) string {
	return "svc_" + kind + "_" + service
}

// EdgeStats counts per-edge call outcomes (indexed like Graph.Calls).
type EdgeStats struct {
	// Calls counts logical calls; Attempts the RPC legs they issued.
	Calls, Attempts int
	// Successes/Timeouts/Cancelled partition terminated attempts; Retries
	// and Hedges count the extra attempts by trigger; Denied counts retries
	// the throttle refused.
	Successes, Timeouts, Cancelled int
	Retries, Hedges, Denied        int
}

// ServiceStats counts per-service execution activity.
type ServiceStats struct {
	// Executions counts replica activations (one per delivered request
	// attempt); Issued counts those that beat their deadline and did work —
	// issued their downstream calls, or completed directly for a leaf.
	Executions, Issued int
}

// Result summarizes a run. The conservation invariants the property tests
// pin: Requests == Completed + DeadlineExceeded + Aborted; LegsStarted ==
// LegsSucceeded + LegsTimedOut + LegsCancelled; per edge, Calls ==
// Issued(From) * Fanout.
type Result struct {
	Requests, Completed, DeadlineExceeded, Aborted  int
	LegsStarted, LegsSucceeded                      int
	LegsTimedOut, LegsCancelled                     int
	Retries, Hedges, RetriesDenied, WastedResponses int
	// MaxRequestLegs is the largest number of attempts any single request
	// fanned out into — the quantity Analyze's TotalAttemptsBound bounds.
	MaxRequestLegs int
	// Latency stats cover completed requests only.
	MeanLatencySec, P99LatencySec float64
	// OfferedRps and GoodputRps are request rates over the arrival horizon
	// (Requests / RatePerSec).
	OfferedRps, GoodputRps float64
	HorizonSec             float64
	Edges                  []EdgeStats
	Services               []ServiceStats
	Transport              packetsim.TransportResult
}

// Defaults for the policy knobs.
const (
	defaultBackoffBaseFrac = 0.25
	defaultThrottleTokens  = 10
	defaultThrottleRatio   = 0.1
	defaultHedgeDelayFrac  = 0.5
)

// Request, attempt terminal states.
const (
	reqPending = iota
	reqCompleted
	reqDeadline
	reqAborted
)

const (
	attInflight = iota
	attSucceeded
	attTimedOut
	attCancelled
)

type reqState struct {
	arrival  float64
	deadline float64
	doneAt   float64
	legs     int32
	state    uint8
}

// execState is one replica activation: the root execution of a request, or
// the callee side of a delivered attempt.
type execState struct {
	svc      int32
	server   int32 // server index hosting the replica
	req      int32
	attempt  int32 // delivering attempt; -1 for the root execution
	pending  int32 // outstanding child calls
	deadline float64
	issued   bool
	failed   bool
}

// callState is one logical call (an edge instance under one execution),
// spanning all its attempts.
type callState struct {
	edge   int32
	exec   int32 // caller execution
	req    int32
	base   int32 // replica cursor base; attempt seq rotates from here
	atts   []int32
	done   bool
	failed bool
}

type attemptState struct {
	call     int32
	server   int32 // callee server index
	deadline float64
	state    uint8
}

// flowRef maps a transport flow id back to its attempt and direction.
type flowRef struct {
	att  int32
	resp bool
}

type runner struct {
	g   *Graph
	cfg Config
	eng *packetsim.TransportEngine
	rng *rand.Rand

	idx    map[string]int
	out    [][]int
	hosts  [][]int32 // per service: replica -> server index
	rrCall []int32   // per edge: replica cursor

	reqs     []reqState
	execs    []execState
	calls    []callState
	attempts []attemptState
	flows    map[int]flowRef

	tokens []float64 // per edge (throttle)

	res     Result
	lats    []float64
	err     error
	backoff float64 // BackoffBaseFrac after defaulting
	hedgeAt float64
	tokCap  float64
	tokAdd  float64

	// Hoisted nil-safe instruments.
	cReq, cDone, cDeadline, cAborted *obs.Counter
	cRetries, cHedges, cDenied       *obs.Counter
	cSvcOK, cSvcTimeout, cSvcRetry   []*obs.Counter
	tOffered, tDone                  *obs.Track
	tSvcOK, tSvcTimeout, tSvcRetry   []*obs.Track
}

// Validate checks the run parameters (the graph validates separately).
func (c *Config) Validate() error {
	if !(c.DeadlineSec > 0) || math.IsInf(c.DeadlineSec, 0) {
		return fmt.Errorf("svc: deadline must be positive, got %g", c.DeadlineSec)
	}
	if !(c.RatePerSec > 0) || math.IsInf(c.RatePerSec, 0) {
		return fmt.Errorf("svc: arrival rate must be positive, got %g", c.RatePerSec)
	}
	if c.Requests < 1 {
		return fmt.Errorf("svc: need >= 1 requests, got %d", c.Requests)
	}
	switch c.Policy {
	case PolicyNone, PolicyFixed, PolicyThrottle, PolicyHedge:
	default:
		return fmt.Errorf("svc: unknown policy %d", c.Policy)
	}
	if c.Transport.OnFlowDone != nil {
		return fmt.Errorf("svc: Transport.OnFlowDone is owned by the service runtime")
	}
	for _, v := range []float64{c.BackoffBaseFrac, c.ThrottleTokens, c.ThrottleRatio, c.HedgeDelayFrac} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("svc: policy knobs must be non-negative")
		}
	}
	return nil
}

// Run executes the graph's workload on topology t and returns the
// aggregate result. The graph is validated, replicas are placed with
// Place(cfg.Seed), and cfg.Requests arrive at the root at 1/cfg.RatePerSec
// spacing starting at time 0.
func Run(t topology.Topology, g *Graph, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	numServers := t.Network().NumServers()
	place, err := Place(g, numServers, cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := &runner{
		g:       g,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
		idx:     g.index(),
		flows:   make(map[int]flowRef),
		rrCall:  make([]int32, len(g.Calls)),
		tokens:  make([]float64, len(g.Calls)),
		backoff: cfg.BackoffBaseFrac,
		hedgeAt: cfg.HedgeDelayFrac,
		tokCap:  cfg.ThrottleTokens,
		tokAdd:  cfg.ThrottleRatio,
	}
	r.out = g.outEdges(r.idx)
	if r.backoff == 0 {
		r.backoff = defaultBackoffBaseFrac
	}
	if r.hedgeAt == 0 {
		r.hedgeAt = defaultHedgeDelayFrac
	}
	if r.tokCap == 0 {
		r.tokCap = defaultThrottleTokens
	}
	if r.tokAdd == 0 {
		r.tokAdd = defaultThrottleRatio
	}
	r.hosts = make([][]int32, len(g.Services))
	for i, s := range g.Services {
		hs := place.Servers[s.Name]
		r.hosts[i] = make([]int32, len(hs))
		for j, h := range hs {
			r.hosts[i][j] = int32(h)
		}
	}
	for e := range r.tokens {
		r.tokens[e] = r.tokCap // buckets start full
	}
	r.res.Edges = make([]EdgeStats, len(g.Calls))
	r.res.Services = make([]ServiceStats, len(g.Services))
	r.hoistInstruments()

	tcfg := cfg.Transport
	tcfg.OnFlowDone = r.onFlowDone
	if r.eng, err = packetsim.NewTransportEngine(t, tcfg); err != nil {
		return nil, err
	}
	// Arrivals chain: each schedules the next, keeping the queue shallow.
	if err := r.eng.Schedule(0, func(now float64) { r.arrive(0, now) }); err != nil {
		return nil, err
	}
	tres, err := r.eng.Run()
	if err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	r.res.Transport = tres
	r.finish()
	return &r.res, nil
}

func (r *runner) hoistInstruments() {
	m, s := r.cfg.Metrics, r.cfg.Series
	r.cReq = m.Counter(MetricRequests)
	r.cDone = m.Counter(MetricCompleted)
	r.cDeadline = m.Counter(MetricDeadlineExceeded)
	r.cAborted = m.Counter(MetricAborted)
	r.cRetries = m.Counter(MetricRetries)
	r.cHedges = m.Counter(MetricHedges)
	r.cDenied = m.Counter(MetricRetriesDenied)
	r.tOffered = s.Track(SeriesOffered)
	r.tDone = s.Track(SeriesCompleted)
	n := len(r.g.Services)
	r.cSvcOK = make([]*obs.Counter, n)
	r.cSvcTimeout = make([]*obs.Counter, n)
	r.cSvcRetry = make([]*obs.Counter, n)
	r.tSvcOK = make([]*obs.Track, n)
	r.tSvcTimeout = make([]*obs.Track, n)
	r.tSvcRetry = make([]*obs.Track, n)
	for i, svc := range r.g.Services {
		r.cSvcOK[i] = m.Counter(ServiceMetric("ok", svc.Name))
		r.cSvcTimeout[i] = m.Counter(ServiceMetric("timeout", svc.Name))
		r.cSvcRetry[i] = m.Counter(ServiceMetric("retry", svc.Name))
		r.tSvcOK[i] = s.Track(ServiceMetric("ok", svc.Name))
		r.tSvcTimeout[i] = s.Track(ServiceMetric("timeout", svc.Name))
		r.tSvcRetry[i] = s.Track(ServiceMetric("retry", svc.Name))
	}
}

// arrive admits root request i at time now and chains the next arrival.
func (r *runner) arrive(i int, now float64) {
	if i+1 < r.cfg.Requests {
		next := i + 1
		if err := r.eng.Schedule(float64(next)/r.cfg.RatePerSec, func(t float64) { r.arrive(next, t) }); err != nil {
			r.fail(err)
		}
	}
	req := int32(len(r.reqs))
	r.reqs = append(r.reqs, reqState{arrival: now, deadline: now + r.cfg.DeadlineSec})
	r.res.Requests++
	r.cReq.Inc()
	r.tOffered.Add(int64(now*1e9), 1)
	if err := r.eng.Schedule(r.reqs[req].deadline, func(t float64) { r.onReqDeadline(req, t) }); err != nil {
		r.fail(err)
		return
	}
	root := int32(r.idx[r.g.Root])
	server := r.hosts[root][int(req)%len(r.hosts[root])]
	r.spawnExec(root, server, req, -1, r.reqs[req].deadline, now)
}

// fail records the first internal error; the engine still drains, and Run
// surfaces it.
func (r *runner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// spawnExec activates a replica of service s: after its work time it either
// issues its downstream calls or, for a leaf, completes.
func (r *runner) spawnExec(s, server, req, attempt int32, deadline, now float64) {
	e := int32(len(r.execs))
	r.execs = append(r.execs, execState{svc: s, server: server, req: req, attempt: attempt, deadline: deadline})
	r.res.Services[s].Executions++
	work := r.g.Services[s].WorkSec
	if work > 0 {
		if err := r.eng.Schedule(now+work, func(t float64) { r.runExec(e, t) }); err != nil {
			r.fail(err)
		}
		return
	}
	r.runExec(e, now)
}

// runExec does an execution's work instant: past-deadline executions fail
// (the caller has already given up and the budget is spent), leaves
// complete, interior services issue Fanout calls per out-edge.
func (r *runner) runExec(e int32, now float64) {
	ex := &r.execs[e]
	if now >= ex.deadline {
		r.failExec(e, now)
		return
	}
	r.res.Services[ex.svc].Issued++
	ex.issued = true
	edges := r.out[ex.svc]
	if len(edges) == 0 {
		r.completeExec(e, now)
		return
	}
	total := 0
	for _, edge := range edges {
		total += r.g.Calls[edge].Fanout
	}
	ex.pending = int32(total)
	for _, edge := range edges {
		for k := 0; k < r.g.Calls[edge].Fanout; k++ {
			r.startCall(int32(edge), e, now)
		}
	}
}

// startCall opens one logical call and launches its first attempt.
func (r *runner) startCall(edge, exec int32, now float64) {
	c := int32(len(r.calls))
	to := int32(r.idx[r.g.Calls[edge].To])
	r.calls = append(r.calls, callState{
		edge: edge,
		exec: exec,
		req:  r.execs[exec].req,
		base: r.rrCall[edge],
	})
	r.rrCall[edge]++
	r.res.Edges[edge].Calls++
	r.startAttempt(c, to, now, false)
}

// startAttempt launches attempt number len(call.atts) of call c: a request
// flow to the chosen replica, a timeout timer at the propagated deadline,
// and — for the hedge policy's first attempt — the hedge trigger.
func (r *runner) startAttempt(c, to int32, now float64, isHedge bool) {
	call := &r.calls[c]
	edge := &r.g.Calls[call.edge]
	seq := len(call.atts)
	replica := (int(call.base) + seq) % len(r.hosts[to])
	server := r.hosts[to][replica]
	deadline := math.Min(now+edge.TimeoutSec, r.execs[call.exec].deadline)
	a := int32(len(r.attempts))
	r.attempts = append(r.attempts, attemptState{call: c, server: server, deadline: deadline})
	call.atts = append(call.atts, a)
	r.res.Edges[call.edge].Attempts++
	r.res.LegsStarted++
	r.reqs[call.req].legs++
	if seq > 0 {
		if isHedge {
			r.res.Hedges++
			r.res.Edges[call.edge].Hedges++
			r.cHedges.Inc()
		} else {
			r.res.Retries++
			r.res.Edges[call.edge].Retries++
			r.cRetries.Inc()
			r.cSvcRetry[to].Inc()
			r.tSvcRetry[to].Add(int64(now*1e9), 1)
		}
	}
	caller := r.execs[call.exec].server
	flow, err := r.eng.InjectFlow(int(caller), int(server), edge.RequestBytes, now)
	if err != nil {
		r.fail(err)
		return
	}
	r.flows[flow] = flowRef{att: a}
	if err := r.eng.Schedule(deadline, func(t float64) { r.onAttemptTimeout(a, t) }); err != nil {
		r.fail(err)
	}
	if r.cfg.Policy == PolicyHedge && seq == 0 && edge.MaxRetries > 0 {
		hedge := now + r.hedgeAt*edge.TimeoutSec
		if hedge < deadline {
			if err := r.eng.Schedule(hedge, func(t float64) { r.onHedge(c, to, t) }); err != nil {
				r.fail(err)
			}
		}
	}
}

// onHedge launches the hedged attempt if the call is still waiting on its
// lone first attempt and budget remains.
func (r *runner) onHedge(c, to int32, now float64) {
	call := &r.calls[c]
	if call.done || call.failed || len(call.atts) != 1 {
		return
	}
	if r.attempts[call.atts[0]].state != attInflight {
		return
	}
	if len(call.atts) >= 1+r.g.Calls[call.edge].MaxRetries {
		return // budget already spent; the hedge would overdraw it
	}
	r.startAttempt(c, to, now, true)
}

// onFlowDone is the transport completion hook: request flows spawn callee
// executions (whether or not the caller still cares — network delivery is
// not cancellation-aware), response flows complete attempts.
func (r *runner) onFlowDone(flow int, atSec float64, completed bool) {
	ref, ok := r.flows[flow]
	if !ok {
		return
	}
	delete(r.flows, flow)
	if !completed {
		// The transport gave up on the flow (MaxFlowTimeouts); the attempt
		// resolves through its own timeout timer.
		return
	}
	att := &r.attempts[ref.att]
	call := &r.calls[att.call]
	if !ref.resp {
		// Request delivered: activate the callee replica with the attempt's
		// deadline (deadline propagation down the tree).
		to := int32(r.idx[r.g.Calls[call.edge].To])
		r.spawnExec(to, att.server, call.req, ref.att, att.deadline, atSec)
		return
	}
	if att.state != attInflight {
		r.res.WastedResponses++ // the caller had already moved on
		return
	}
	att.state = attSucceeded
	r.res.LegsSucceeded++
	r.res.Edges[call.edge].Successes++
	to := int32(r.idx[r.g.Calls[call.edge].To])
	r.cSvcOK[to].Inc()
	r.tSvcOK[to].Add(int64(atSec*1e9), 1)
	r.completeCall(att.call, atSec)
}

// completeCall settles a call on its first successful attempt: cancel any
// hedged sibling, refund the throttle, and notify the caller execution.
func (r *runner) completeCall(c int32, now float64) {
	call := &r.calls[c]
	call.done = true
	for _, a := range call.atts {
		if r.attempts[a].state == attInflight {
			r.attempts[a].state = attCancelled
			r.res.LegsCancelled++
			r.res.Edges[call.edge].Cancelled++
		}
	}
	if r.cfg.Policy == PolicyThrottle {
		r.tokens[call.edge] = math.Min(r.tokens[call.edge]+r.tokAdd, r.tokCap)
	}
	e := call.exec
	r.execs[e].pending--
	if r.execs[e].pending == 0 && r.execs[e].issued && !r.execs[e].failed {
		r.completeExec(e, now)
	}
}

// onAttemptTimeout fires at an attempt's propagated deadline: mark it, and
// if it was the call's last hope decide between retry and failure.
func (r *runner) onAttemptTimeout(a int32, now float64) {
	att := &r.attempts[a]
	if att.state != attInflight {
		return // resolved before the timer
	}
	att.state = attTimedOut
	call := &r.calls[att.call]
	r.res.LegsTimedOut++
	r.res.Edges[call.edge].Timeouts++
	to := int32(r.idx[r.g.Calls[call.edge].To])
	r.cSvcTimeout[to].Inc()
	r.tSvcTimeout[to].Add(int64(now*1e9), 1)
	if call.done || call.failed {
		return // orphaned sibling of a settled call
	}
	for _, sib := range call.atts {
		if r.attempts[sib].state == attInflight {
			return // a hedged sibling is still racing
		}
	}
	r.retryOrFail(att.call, to, now)
}

// retryOrFail applies the policy at a call's timeout: schedule the next
// attempt inside the remaining budget, or fail the call.
func (r *runner) retryOrFail(c, to int32, now float64) {
	call := &r.calls[c]
	edge := &r.g.Calls[call.edge]
	budget := r.execs[call.exec].deadline
	var at float64
	switch r.cfg.Policy {
	case PolicyNone:
		at = now // immediate, unbudgeted: the deadline is the only limit
	default:
		if len(call.atts) >= 1+edge.MaxRetries {
			r.failCall(c, now)
			return
		}
		base := r.backoff * edge.TimeoutSec
		backoff := base * math.Pow(2, float64(len(call.atts)-1))
		if backoff > 2*edge.TimeoutSec {
			backoff = 2 * edge.TimeoutSec
		}
		at = now + backoff*(0.5+0.5*r.rng.Float64())
	}
	if at >= budget {
		r.failCall(c, now)
		return
	}
	if r.cfg.Policy == PolicyThrottle {
		if r.tokens[call.edge] < 1 {
			r.res.RetriesDenied++
			r.res.Edges[call.edge].Denied++
			r.cDenied.Inc()
			r.failCall(c, now)
			return
		}
		r.tokens[call.edge]--
	}
	if err := r.eng.Schedule(at, func(t float64) {
		if r.calls[c].done || r.calls[c].failed {
			return
		}
		r.startAttempt(c, to, t, false)
	}); err != nil {
		r.fail(err)
	}
}

// failCall marks a call permanently failed and fails its caller execution:
// the execution will never respond, so its own caller discovers the failure
// by timeout (or, at the root, the request aborts immediately).
func (r *runner) failCall(c int32, now float64) {
	call := &r.calls[c]
	call.failed = true
	e := call.exec
	if !r.execs[e].failed {
		r.failExec(e, now)
	}
}

// failExec marks an execution failed. Root executions abort their request;
// everything else just goes silent.
func (r *runner) failExec(e int32, now float64) {
	ex := &r.execs[e]
	ex.failed = true
	if ex.attempt >= 0 {
		return
	}
	req := &r.reqs[ex.req]
	if req.state != reqPending {
		return
	}
	req.state = reqAborted
	req.doneAt = now
	r.res.Aborted++
	r.cAborted.Inc()
}

// completeExec fires when an execution's calls have all succeeded (or
// immediately for a leaf): the root completes its request, everything else
// sends its response flow back to the caller.
func (r *runner) completeExec(e int32, now float64) {
	ex := &r.execs[e]
	if ex.attempt < 0 {
		req := &r.reqs[ex.req]
		if req.state != reqPending {
			return // deadline beat us; the work was wasted
		}
		req.state = reqCompleted
		req.doneAt = now
		r.res.Completed++
		r.cDone.Inc()
		r.tDone.Add(int64(now*1e9), 1)
		r.lats = append(r.lats, now-req.arrival)
		return
	}
	att := &r.attempts[ex.attempt]
	caller := r.execs[r.calls[att.call].exec].server
	edge := &r.g.Calls[r.calls[att.call].edge]
	flow, err := r.eng.InjectFlow(int(ex.server), int(caller), edge.ResponseBytes, now)
	if err != nil {
		r.fail(err)
		return
	}
	r.flows[flow] = flowRef{att: ex.attempt, resp: true}
}

// onReqDeadline expires a still-pending request. Its outstanding calls run
// on as orphans, bounded by their own propagated deadlines.
func (r *runner) onReqDeadline(req int32, now float64) {
	rq := &r.reqs[req]
	if rq.state != reqPending {
		return
	}
	rq.state = reqDeadline
	rq.doneAt = now
	r.res.DeadlineExceeded++
	r.cDeadline.Inc()
}

// finish derives the aggregate rates and latency stats.
func (r *runner) finish() {
	for i := range r.reqs {
		if int(r.reqs[i].legs) > r.res.MaxRequestLegs {
			r.res.MaxRequestLegs = int(r.reqs[i].legs)
		}
	}
	r.res.HorizonSec = float64(r.cfg.Requests) / r.cfg.RatePerSec
	r.res.OfferedRps = float64(r.res.Requests) / r.res.HorizonSec
	r.res.GoodputRps = float64(r.res.Completed) / r.res.HorizonSec
	if len(r.lats) > 0 {
		sum := 0.0
		for _, l := range r.lats {
			sum += l
		}
		r.res.MeanLatencySec = sum / float64(len(r.lats))
		sort.Float64s(r.lats)
		rank := int(math.Ceil(0.99*float64(len(r.lats)))) - 1
		if rank < 0 {
			rank = 0
		}
		r.res.P99LatencySec = r.lats[rank]
	}
}
