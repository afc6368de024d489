package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/packetsim"
	"repro/internal/surv"
	"repro/internal/svc"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// path selects the engine path a run takes.
type path int

const (
	parallel path = iota // workers = GOMAXPROCS
	serial               // the fastest serial path
)

// armed holds the obs hooks a traced run attaches to the parallel path.
// Nil means untraced.
type armed struct {
	reg  *obs.Registry
	prof *obs.ShardProfile
}

// outcome is one checked simulation call.
type outcome struct {
	digest string
	// work counts the simulated work completed, in the workload's unit.
	work int64
	// layer holds per-layer counts read from the result and, on a traced
	// run, from the armed hooks.
	layer map[string]float64
}

// timing carries an invocation's median host measurements to derive.
type timing struct {
	parS, serS float64 // median untraced run time per path
	serMallocs float64 // median heap allocations of one serial run
	work       float64 // simulated work of one run, in the workload's unit
}

// instance is one workload's generated inputs, ready to run repeatedly.
type instance interface {
	topology() topology.Topology
	// run executes one path, checks the result, and fingerprints it.
	run(p path, arm *armed) (outcome, error)
	// verify makes the once-per-invocation checks that relate the two
	// paths' first results, running extra engine calls where needed.
	verify(par, ser outcome) error
	// probe times the traced run's extra public calls.
	probe(sp *spans, layer map[string]float64) error
	// derive turns median times and traced counts into per-layer rates.
	derive(t timing, layer map[string]float64)
}

// workload is one named benchmark input family.
type workload struct {
	name string
	// unit names what work_per_s counts.
	unit   string
	params any
	// calls names the public call of each path, indexed by path.
	calls [2]string
	// setup builds the topology and generates every input from seed,
	// recording each layer's set-up time in layer.
	setup func(seed int64, sp *spans, layer map[string]float64) (instance, error)
}

// workloads are the benchmark's named workloads. README.md gives the
// reason for each choice and the expected per-layer movements.
var workloads = []workload{
	permutationWorkload("permutation-10k", permParams{Topo: core.Config{N: 16, K: 2, P: 2}, FlowBytes: 16 << 10}),
	servingWorkload("emu-rpc-100k", servingParams{Topo: core.Config{N: 32, K: 2, P: 2}, Requests: 16384, Fanout: 4, RetryBudget: 1}),
	stormWorkload("svc-storm", stormParams{Topo: core.Config{N: 4, K: 1, P: 2}, TargetLegs: 60000, MaxCells: 64,
		DeadlineSec: 60e-3, RatePerSec: 4000, Requests: 200, OutageFrac: 0.08, OutageAtSec: 2e-3}),
	churnWorkload("surv-churn-10k", churnParams{Topo: core.Config{N: 16, K: 2, P: 2}, HorizonDays: 60, Trials: 4,
		SwitchMTBFDays: 2 * 365, SwitchMTTRHours: 24, LinkMTBFDays: 4 * 365, LinkMTTRHours: 4}),
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// routeProbe times Route over a seeded permutation of the servers — for
// permutation-10k, exactly the workload's pairs — and returns the mean ns
// per call.
func routeProbe(sp *spans, t topology.Topology, seed int64) (float64, error) {
	servers := t.Network().Servers()
	flows := traffic.Permutation(len(servers), rand.New(rand.NewSource(seed)))
	d, err := timeCall(sp, "core.Route", func() error {
		for _, f := range flows {
			if _, err := t.Route(servers[f.Src], servers[f.Dst]); err != nil {
				return fmt.Errorf("core: route %d->%d: %w", f.Src, f.Dst, err)
			}
		}
		return nil
	})
	return d * 1e9 / float64(len(flows)), err
}

func buildTopology(sp *spans, cfg core.Config, layer map[string]float64) (*core.ABCCC, error) {
	var t *core.ABCCC
	var err error
	layer["core.build_s"], err = timeCall(sp, "core.Build", func() (err error) {
		t, err = core.Build(cfg)
		return err
	})
	return t, err
}

// ---- permutation-10k: bare packet forwarding --------------------------------

type permParams struct {
	Topo      core.Config
	FlowBytes int64
}

// permutationFlows is the workload's traffic: a seeded permutation in which
// every server sends one flow of the given size.
func permutationFlows(servers int, bytes, seed int64) []traffic.Flow {
	flows := traffic.Permutation(servers, rand.New(rand.NewSource(seed)))
	for i := range flows {
		flows[i].Bytes = bytes
	}
	return flows
}

func permutationWorkload(name string, p permParams) workload {
	return workload{name: name, unit: "delivered packets", params: p,
		calls: [2]string{"packetsim.RunSharded", "packetsim.Run"},
		setup: func(seed int64, sp *spans, layer map[string]float64) (instance, error) {
			t, err := buildTopology(sp, p.Topo, layer)
			if err != nil {
				return nil, err
			}
			in := &permRun{t: t, cfg: packetsim.Default()}
			layer["traffic.gen_s"], _ = timeCall(sp, "traffic.Permutation", func() error {
				in.flows = permutationFlows(t.Network().NumServers(), p.FlowBytes, seed)
				return nil
			})
			for _, f := range in.flows {
				in.offered += int((f.Bytes + int64(in.cfg.MTU) - 1) / int64(in.cfg.MTU))
			}
			return in, nil
		}}
}

type permRun struct {
	t       *core.ABCCC
	cfg     packetsim.Config
	flows   []traffic.Flow
	offered int
}

func (r *permRun) topology() topology.Topology { return r.t }

func (r *permRun) run(p path, arm *armed) (outcome, error) {
	if p == serial {
		res, err := packetsim.Run(r.t, r.flows, r.cfg)
		return r.outcome(res, err)
	}
	g := runtime.GOMAXPROCS(0)
	return r.sharded(packetsim.ShardOpts{Shards: g, Workers: g}, arm)
}

func (r *permRun) sharded(opts packetsim.ShardOpts, arm *armed) (outcome, error) {
	cfg := r.cfg
	if arm != nil {
		cfg.Metrics, opts.Profile = arm.reg, arm.prof
	}
	o, err := r.outcome(packetsim.RunSharded(r.t, r.flows, cfg, opts))
	if err == nil && arm != nil {
		o.layer["packetsim.events"] = float64(arm.reg.Histogram(packetsim.MetricShardWindowEvents).Snapshot().Sum)
		o.layer["packetsim.windows"] = float64(arm.reg.Counter(packetsim.MetricShardWindows).Value())
		o.layer["packetsim.handoffs"] = float64(arm.reg.Counter(packetsim.MetricShardHandoffs).Value())
		var busy, wait int64
		for _, s := range arm.prof.Summary() {
			busy += s.BusyNs
			wait += s.WaitNs
		}
		o.layer["packetsim.busy_s"] = float64(busy) / 1e9
		o.layer["packetsim.wait_s"] = float64(wait) / 1e9
		o.layer["packetsim.imbalance"] = arm.prof.ImbalanceIndex()
	}
	return o, err
}

func (r *permRun) outcome(res packetsim.Result, err error) (outcome, error) {
	if err != nil {
		return outcome{}, err
	}
	if err := checkPackets(r.offered, res); err != nil {
		return outcome{}, err
	}
	return outcome{digest: digest(res), work: int64(res.Delivered), layer: map[string]float64{}}, nil
}

// verify checks the engine's documented contract: the sharded result is
// byte-identical to the one-shard result.
func (r *permRun) verify(par, _ outcome) error {
	one, err := r.sharded(packetsim.ShardOpts{Shards: 1}, nil)
	if err != nil {
		return err
	}
	return checkSame("packetsim: sharded vs one shard", par, one)
}

func (r *permRun) probe(sp *spans, layer map[string]float64) error {
	var err error
	layer["packetsim.shard1_s"], err = timeCall(sp, "packetsim.RunSharded(Shards:1)", func() error {
		_, err := r.sharded(packetsim.ShardOpts{Shards: 1}, nil)
		return err
	})
	return err
}

func (r *permRun) derive(t timing, layer map[string]float64) {
	layer["packetsim.ns_per_pkt"] = t.serS * 1e9 / t.work
	layer["packetsim.ns_per_event"] = t.parS * 1e9 / layer["packetsim.events"]
	layer["packetsim.allocs"] = t.serMallocs
}

// ---- emu-rpc-100k: serving on the BSP actor emulator ------------------------

type servingParams struct {
	Topo                          core.Config
	Requests, Fanout, RetryBudget int
}

// servingLoad is the workload's serving input; the emulator draws request
// endpoints from its seed.
func servingLoad(p servingParams, seed int64) emu.Workload {
	return emu.Workload{Kind: emu.RPCFanout, Requests: p.Requests, Fanout: p.Fanout,
		RetryBudget: p.RetryBudget, Seed: seed}
}

func servingWorkload(name string, p servingParams) workload {
	return workload{name: name, unit: "messages handled", params: p,
		calls: [2]string{"emu.RunWorkload", "emu.RunWorkload(WithWorkers(1))"},
		setup: func(seed int64, sp *spans, layer map[string]float64) (instance, error) {
			t, err := buildTopology(sp, p.Topo, layer)
			if err != nil {
				return nil, err
			}
			return &servingRun{t: t, w: servingLoad(p, seed)}, nil
		}}
}

type servingRun struct {
	t *core.ABCCC
	w emu.Workload
}

func (r *servingRun) topology() topology.Topology { return r.t }

func (r *servingRun) run(p path, arm *armed) (outcome, error) {
	workers := runtime.GOMAXPROCS(0)
	if p == serial {
		workers = 1
	}
	opts := []emu.Option{emu.WithWorkers(workers)}
	if arm != nil {
		opts = append(opts, emu.WithMetrics(arm.reg))
	}
	st, err := emu.RunWorkload(r.t, r.w, opts...)
	if err != nil {
		return outcome{}, err
	}
	if err := checkServing(r.w.Requests, st); err != nil {
		return outcome{}, err
	}
	o := outcome{digest: digest(st), work: int64(st.Messages), layer: map[string]float64{
		"emu.messages":  float64(st.Messages),
		"emu.rounds":    float64(st.Rounds),
		"emu.completed": float64(st.Completed),
		"emu.timed_out": float64(st.TimedOut),
	}}
	if arm != nil {
		o.layer["emu.handoffs"] = float64(arm.reg.Counter(emu.MetricHandoffs).Value())
		o.layer["emu.backpressure_retries"] = float64(arm.reg.Counter(emu.MetricRetries).Value())
	}
	return o, nil
}

func (r *servingRun) verify(par, ser outcome) error {
	return checkSame("emu: N workers vs 1 worker", par, ser)
}

// probe times the discovery sweep alone: a run with no flows.
func (r *servingRun) probe(sp *spans, layer map[string]float64) error {
	var err error
	layer["emu.boot_s"], err = timeCall(sp, "emu.RunSharded(no flows)", func() error {
		st, err := emu.RunSharded(r.t, nil)
		if err == nil && !st.Accounted() {
			err = fmt.Errorf("emu: boot sweep stats do not balance: %+v", st)
		}
		return err
	})
	return err
}

func (r *servingRun) derive(t timing, layer map[string]float64) {
	layer["emu.ns_per_round"] = t.parS * 1e9 / layer["emu.rounds"]
}

// ---- svc-storm: F30's retry storm ------------------------------------------

// stormParams describe a run of F30 storm cells — the 3-tier graph under
// unbudgeted retries, each cell with its own seeded placement and switch
// outage — repeated until TargetLegs request legs have started. One cell's
// cost depends on where its outage lands relative to its replicas; running
// to a fixed amount of work makes a run's host time comparable across seeds.
type stormParams struct {
	Topo                    core.Config
	TargetLegs, MaxCells    int
	DeadlineSec, RatePerSec float64
	Requests                int // per cell
	OutageFrac, OutageAtSec float64
}

// stormCells generates MaxCells cells' inputs from seed: a placement seed
// and the switches that fail at OutageAtSec and stay down, drawn from one
// per-cell seed as F30 does.
func stormCells(net *topology.Network, p stormParams, seed int64) ([]svc.Config, error) {
	rng := rand.New(rand.NewSource(seed))
	cells := make([]svc.Config, p.MaxCells)
	for i := range cells {
		cellSeed := rng.Int63()
		plan, err := failure.Downs(net, failure.Switches, p.OutageFrac, p.OutageAtSec, rand.New(rand.NewSource(cellSeed)))
		if err != nil {
			return nil, err
		}
		cells[i] = svc.Config{
			Policy:      svc.PolicyNone,
			DeadlineSec: p.DeadlineSec,
			RatePerSec:  p.RatePerSec,
			Requests:    p.Requests,
			Seed:        cellSeed,
			Transport:   packetsim.DefaultTransport(),
		}
		cells[i].Transport.Faults = plan
	}
	return cells, nil
}

func stormWorkload(name string, p stormParams) workload {
	return workload{name: name, unit: "request legs started", params: p,
		calls: [2]string{"svc.Run", "svc.Run(GOMAXPROCS=1)"},
		setup: func(seed int64, sp *spans, layer map[string]float64) (instance, error) {
			t, err := buildTopology(sp, p.Topo, layer)
			if err != nil {
				return nil, err
			}
			r := &stormRun{t: t, g: svc.ThreeTier(), requests: p.Requests, target: p.TargetLegs}
			if layer["failure.plan_s"], err = timeCall(sp, "failure.Downs", func() (err error) {
				r.cells, err = stormCells(t.Network(), p, seed)
				return err
			}); err != nil {
				return nil, err
			}
			for _, c := range r.cells {
				layer["failure.plan_events"] += float64(len(c.Transport.Faults.Events))
			}
			var rep *svc.Report
			if layer["svc.analyze_s"], err = timeCall(sp, "svc.AnalyzeUnbudgeted", func() (err error) {
				rep, err = svc.AnalyzeUnbudgeted(r.g, p.DeadlineSec)
				return err
			}); err != nil {
				return nil, err
			}
			r.bound = rep.TotalAttemptsBound
			return r, nil
		}}
}

type stormRun struct {
	t        *core.ABCCC
	g        *svc.Graph
	cells    []svc.Config
	requests int
	target   int
	bound    int64
}

func (r *stormRun) topology() topology.Topology { return r.t }

// run calls svc.Run on cell after cell until the target legs have started.
// svc.Run is serial: the serial path is the same calls with GOMAXPROCS 1,
// so only the runtime (GC) can use a second CPU.
func (r *stormRun) run(p path, arm *armed) (outcome, error) {
	if p == serial {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	var results []svc.Result
	var legs, ok int
	layer := map[string]float64{}
	for i := 0; legs < r.target; i++ {
		if i == len(r.cells) {
			return outcome{}, fmt.Errorf("svc: %d cells started %d legs, short of %d", i, legs, r.target)
		}
		cfg := r.cells[i]
		if arm != nil {
			cfg.Metrics = arm.reg
		}
		res, err := svc.Run(r.t, r.g, cfg)
		if err != nil {
			return outcome{}, err
		}
		if err := checkService(r.requests, r.bound, res); err != nil {
			return outcome{}, fmt.Errorf("cell %d: %w", i, err)
		}
		results = append(results, *res)
		legs += res.LegsStarted
		ok += res.LegsSucceeded
		layer["svc.retries"] += float64(res.Retries)
		layer["svc.wasted"] += float64(res.WastedResponses)
		layer["svc.flows"] += float64(res.Transport.CompletedFlows)
		layer["svc.retransmits"] += float64(res.Transport.Retransmits)
		layer["svc.reroutes"] += float64(res.Transport.Reroutes)
		layer["svc.dropped_fault"] += float64(res.Transport.DroppedFault)
	}
	layer["svc.legs"] = float64(legs)
	if legs > 0 {
		layer["svc.leg_yield"] = float64(ok) / float64(legs)
	}
	return outcome{digest: digest(results), work: int64(legs), layer: layer}, nil
}

func (r *stormRun) verify(par, ser outcome) error {
	return checkSame("svc: GOMAXPROCS N vs 1", par, ser)
}

func (r *stormRun) probe(*spans, map[string]float64) error { return nil }

func (r *stormRun) derive(t timing, layer map[string]float64) {
	layer["svc.ns_per_leg"] = t.parS * 1e9 / t.work
}

// ---- surv-churn-10k: lifetime replay over graph.DynConn ---------------------

type churnParams struct {
	Topo                            core.Config
	HorizonDays                     float64
	Trials                          int
	SwitchMTBFDays, SwitchMTTRHours float64
	LinkMTBFDays, LinkMTTRHours     float64
}

const day = 86400.0

func (p churnParams) trialConfig(seed int64, workers int) surv.TrialConfig {
	return surv.TrialConfig{
		Classes: []failure.ClassRate{
			{Kind: failure.Switches, MTBFSec: p.SwitchMTBFDays * day, MTTRSec: p.SwitchMTTRHours * 3600},
			{Kind: failure.Links, MTBFSec: p.LinkMTBFDays * day, MTTRSec: p.LinkMTTRHours * 3600},
		},
		Churn:      true,
		HorizonSec: p.HorizonDays * day,
		Trials:     p.Trials,
		Seed:       seed,
		Workers:    workers,
	}
}

// churnPlans generates every trial's fault plan exactly as surv.RunTrials
// does: trial i draws from seed+i.
func churnPlans(net *topology.Network, cfg surv.TrialConfig) ([]*failure.FaultPlan, error) {
	plans := make([]*failure.FaultPlan, cfg.Trials)
	for i := range plans {
		var err error
		plans[i], err = failure.Schedule(net, failure.ScheduleConfig{HorizonSec: cfg.HorizonSec, Classes: cfg.Classes},
			rand.New(rand.NewSource(cfg.Seed+int64(i))))
		if err != nil {
			return nil, err
		}
	}
	return plans, nil
}

func churnWorkload(name string, p churnParams) workload {
	return workload{name: name, unit: "fault and repair events replayed", params: p,
		calls: [2]string{"surv.RunTrials", "surv.RunTrials(Workers:1)"},
		setup: func(seed int64, sp *spans, layer map[string]float64) (instance, error) {
			t, err := buildTopology(sp, p.Topo, layer)
			if err != nil {
				return nil, err
			}
			r := &churnRun{t: t, p: p, seed: seed}
			if layer["failure.plan_s"], err = timeCall(sp, "failure.Schedule", func() (err error) {
				r.plans, err = churnPlans(t.Network(), p.trialConfig(seed, 1))
				return err
			}); err != nil {
				return nil, err
			}
			n := 0
			for _, plan := range r.plans {
				n += len(plan.Events)
				for _, e := range plan.Events {
					if e.TimeSec < p.HorizonDays*day {
						r.events++
					}
				}
			}
			layer["failure.plan_events"] = float64(n)
			return r, nil
		}}
}

type churnRun struct {
	t      *core.ABCCC
	p      churnParams
	seed   int64
	plans  []*failure.FaultPlan
	events int // plan events inside the horizon
}

func (r *churnRun) topology() topology.Topology { return r.t }

func (r *churnRun) run(p path, _ *armed) (outcome, error) {
	workers := runtime.GOMAXPROCS(0)
	if p == serial {
		workers = 1
	}
	st, err := surv.RunTrials(r.t.Network(), r.p.trialConfig(r.seed, workers))
	if err != nil {
		return outcome{}, err
	}
	if err := checkLifetimes(r.events, st); err != nil {
		return outcome{}, err
	}
	return outcome{digest: survDigest(st), work: int64(r.events),
		layer: map[string]float64{"surv.events": float64(r.events)}}, nil
}

func (r *churnRun) verify(par, ser outcome) error {
	return checkSame("surv: N workers vs 1 worker", par, ser)
}

// probe replays trial 0's plan on graph.DynConn alone, as surv.Lifetime
// applies it; the rest of a trial's time is surv's own bookkeeping.
func (r *churnRun) probe(sp *spans, layer map[string]float64) error {
	net := r.t.Network()
	weight := make([]int64, net.Graph().NumNodes())
	for _, s := range net.Servers() {
		weight[s] = 1
	}
	horizon := r.p.HorizonDays * day
	layer["graph.dynconn_s"], _ = timeCall(sp, "graph.DynConn", func() error {
		d := graph.NewDynConn(net.Graph(), weight)
		for _, e := range r.plans[0].Events {
			if e.TimeSec >= horizon {
				break
			}
			switch {
			case e.Kind == failure.Links && e.Up:
				d.RepairEdge(e.Index)
			case e.Kind == failure.Links:
				d.FailEdge(e.Index)
			case e.Up:
				d.RepairNode(e.Index)
			default:
				d.FailNode(e.Index)
			}
		}
		return nil
	})
	return nil
}

func (r *churnRun) derive(t timing, layer map[string]float64) {
	layer["surv.ns_per_event"] = t.serS * 1e9 / t.work
}
