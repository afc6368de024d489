// Command simulate runs flow-level or packet-level simulations of a
// workload on a chosen data-center structure.
//
// Usage:
//
//	simulate -topo abccc -n 4 -k 1 -p 3 -pattern permutation -sim flow
//	simulate -topo bcube -n 4 -k 2 -pattern shuffle -sim packet
//	simulate -topo fattree -k 4 -pattern alltoall -sim flow
//	simulate -topo abccc -n 8 -k 2 -sim emu -workload rpc -requests 1024
//	simulate -topo abccc -sim svc -graph 3tier -policy throttle -faults switches -mtbf 5ms
//	simulate -topo abccc -sim surv -trials 32 -horizon 30y -classes "switches=5y,links=10y"
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bccc"
	"repro/internal/bcube"
	"repro/internal/core"
	"repro/internal/dcell"
	"repro/internal/emu"
	"repro/internal/failure"
	"repro/internal/fattree"
	"repro/internal/flowsim"
	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/packetsim"
	"repro/internal/surv"
	"repro/internal/svc"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		topo    = fs.String("topo", "abccc", "structure: abccc|bccc|bcube|dcell|fattree|hypercube")
		n       = fs.Int("n", 4, "switch radix (abccc/bccc/bcube/dcell)")
		k       = fs.Int("k", 1, "order (or fat-tree port count)")
		p       = fs.Int("p", 2, "NIC ports per server (abccc)")
		pattern = fs.String("pattern", "permutation", "workload: permutation|alltoall|uniform|incast|shuffle|hotspot")
		sim     = fs.String("sim", "flow", "simulator: flow|packet|transport|emu (sharded actor emulator)|svc (service dependency graph)|surv (connectivity-level lifetime trials)")
		seed    = fs.Int64("seed", 1, "workload seed")
		count   = fs.Int("count", 0, "flow count for uniform/hotspot (default: one per server)")
		load    = fs.String("load", "", "replay a JSONL workload trace instead of -pattern")
		save    = fs.String("save", "", "write the generated workload as a JSONL trace")
		metrics = fs.Bool("metrics", false, "print an instrumentation summary (counters, drop causes, histograms) after the run")
		trace   = fs.String("trace", "", "write a JSONL event trace (per-packet hops, drops, deliveries) to this file")
		pprofFl = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) during the run")
		faults  = fs.String("faults", "", "inject live failures into these component classes (comma list of servers,switches,links; packet/transport sims only)")
		mtbf    = fs.Duration("mtbf", 500*time.Microsecond, "mean time between failure onsets for -faults")
		mttr    = fs.Duration("mttr", 1*time.Millisecond, "mean down-for-duration repair window for -faults")
		mpath   = fs.Bool("multipath", false, "proactive multipath failover over precompiled disjoint paths (transport sim with -faults only)")
		paths   = fs.Int("paths", 0, "per-flow path-set cap for -multipath (default 4)")
		shards  = fs.Int("shards", 0, "run the sharded parallel engine over this many topology shards (packet/transport sims; results are identical for every value)")
		workers = fs.Int("workers", 0, "goroutines driving -shards (default min(shards, GOMAXPROCS))")
		series  = fs.String("series", "", "write sim-time-windowed telemetry (goodput, drop causes, queue depth) as run-record JSONL to this file (packet/transport sims; render with obsreport)")
		serWin  = fs.Duration("series-window", time.Millisecond, "window width for -series")
		profSh  = fs.Bool("profile-shards", false, "record per-shard busy/wait runtime windows into the -series run record (requires -shards and -series)")
		emuWl   = fs.String("workload", "rpc", "with -sim emu, serving workload: rpc|incast|shuffle, or flows to inject the -pattern workload one-shot")
		reqs    = fs.Int("requests", 256, "with -sim emu/svc, request count (rpc/svc) or wave count (incast)")
		fanout  = fs.Int("fanout", 4, "with -sim emu, RPC fan-out degree / incast fan-in")
		retries = fs.Int("retries", 1, "with -sim emu, retry budget after a missed deadline")
		graphFl = fs.String("graph", "3tier", "with -sim svc, service graph: 3tier|chain|diamond or a JSON graph file")
		policy  = fs.String("policy", "fixed", "with -sim svc, retry mitigation policy: none|fixed|throttle|hedge")
		rate    = fs.Float64("rate", 2000, "with -sim svc, root request arrival rate per second")
		deadln  = fs.Duration("deadline", 50*time.Millisecond, "with -sim svc, end-to-end request deadline")
		trials  = fs.Int("trials", 16, "with -sim surv, number of independent seeded lifetime trials")
		horizon = fs.String("horizon", "30y", "with -sim surv, trial horizon: a Go duration, or y/d units (30y, 90d)")
		classes = fs.String("classes", "switches=5y,links=10y", "with -sim surv, per-class lifetimes kind=MTBF[:MTTR], comma-separated (MTTR needed with -churn)")
		churn   = fs.Bool("churn", false, "with -sim surv, repairable Poisson churn instead of no-repair wear-out")
		thresh  = fs.Float64("threshold", 0.99, "with -sim surv, report mean first time reachability drops below this fraction (0 disables)")
	)
	fs.SetOutput(w)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if (*mpath || *paths != 0) && *sim != "transport" && *sim != "svc" {
		return fmt.Errorf("-multipath/-paths require -sim transport or svc")
	}
	if *paths != 0 && !*mpath {
		return fmt.Errorf("-paths requires -multipath")
	}
	if *mpath && *faults == "" {
		return fmt.Errorf("-multipath requires -faults (the proactive layer only arms under a fault plan)")
	}
	if *shards < 0 || *workers < 0 {
		return fmt.Errorf("-shards and -workers must be non-negative, got %d and %d", *shards, *workers)
	}
	if (*shards != 0 || *workers != 0) && (*sim == "flow" || *sim == "svc" || *sim == "surv") {
		return fmt.Errorf("-shards/-workers require -sim packet, transport or emu (the service layer runs on the serial engine; surv parallelizes over trials by itself)")
	}
	if *workers != 0 && *shards == 0 {
		return fmt.Errorf("-workers requires -shards")
	}
	if *shards != 0 && *trace != "" && *workers != 1 {
		return fmt.Errorf("-trace with -shards needs -workers 1 (parallel drains interleave trace records nondeterministically)")
	}
	if *series != "" && *sim == "flow" {
		return fmt.Errorf("-series requires -sim packet, transport, emu, svc or surv (the flow model has no notion of time)")
	}
	if *sim == "svc" && *trace != "" {
		return fmt.Errorf("-trace records per-packet hops; -sim svc reports at the service layer (use -series)")
	}
	if *sim == "svc" && (*load != "" || *save != "") {
		return fmt.Errorf("-load/-save apply to flow workloads; -sim svc derives its traffic from the call graph")
	}
	if *sim == "surv" && (*trace != "" || *metrics) {
		return fmt.Errorf("-trace/-metrics record packet-level telemetry; -sim surv replays at connectivity level (use -series)")
	}
	if *sim == "surv" && (*load != "" || *save != "") {
		return fmt.Errorf("-load/-save apply to flow workloads; -sim surv has no flows")
	}
	if *sim == "surv" && *faults != "" {
		return fmt.Errorf("-faults drives the packet simulators; -sim surv draws its own schedule from -classes/-churn")
	}
	if *faults != "" && *sim == "emu" {
		return fmt.Errorf("-faults drives the packet simulators' event queues; the emulator takes static dead devices instead")
	}
	if *series != "" && *serWin <= 0 {
		return fmt.Errorf("-series-window must be positive, got %v", *serWin)
	}
	if *profSh && (*shards == 0 || *series == "") {
		return fmt.Errorf("-profile-shards requires -shards and -series (the profile rides in the run record)")
	}

	t, err := buildTopology(*topo, *n, *k, *p)
	if err != nil {
		return err
	}
	servers := t.Network().NumServers()
	rng := rand.New(rand.NewSource(*seed))
	var flows []traffic.Flow
	if *sim == "svc" {
		// The service layer derives its traffic from the call graph; there is
		// no flow workload to build. -pattern becomes the run label.
		*pattern = fmt.Sprintf("svc:%s/%s", *graphFl, *policy)
	} else if *sim == "surv" {
		// Lifetime trials replay component schedules, not flows.
		mode := "wearout"
		if *churn {
			mode = "churn"
		}
		*pattern = fmt.Sprintf("surv:%s/%s", mode, *horizon)
	} else if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		defer f.Close()
		if flows, err = traffic.ReadTrace(f, servers); err != nil {
			return err
		}
		*pattern = "trace:" + *load
	} else if flows, err = buildWorkload(*pattern, servers, *count, rng); err != nil {
		return err
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := traffic.WriteTrace(f, flows); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *sim == "svc" || *sim == "surv" {
		fmt.Fprintf(w, "%s: %d servers (%s)\n", t.Network().Name(), servers, *pattern)
	} else {
		fmt.Fprintf(w, "%s: %d servers, %d flows (%s)\n",
			t.Network().Name(), servers, len(flows), *pattern)
	}

	// Observability: a nil registry/tracer disables instrumentation inside
	// the simulators; -pprof serves profiles for the duration of the run.
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if *trace != "" {
		tracer = obs.NewTracer(0)
	}
	var ser *obs.Series
	// The surv case writes its own run record (its time axis is the trial
	// horizon, not the packet clock), so the shared series stays unarmed.
	if *series != "" && *sim != "surv" {
		width := serWin.Nanoseconds()
		if *sim == "emu" {
			width = 1 // the emulator's time axis is rounds: one window per round
		}
		ser = obs.NewSeries(width)
	}
	var prof *obs.ShardProfile
	if *profSh {
		prof = obs.NewShardProfile()
	}
	if *pprofFl != "" {
		addr, stop, err := obs.StartPprof(*pprofFl)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer stop()
		fmt.Fprintf(w, "pprof: serving on http://%s/debug/pprof/\n", addr)
	}

	// Live fault injection: a seeded Poisson schedule of down/up events for
	// the requested component classes, fed through the packet simulators'
	// event queues. The schedule draws from the workload RNG after the flows
	// are built, so -faults never perturbs the workload itself.
	var plan *failure.FaultPlan
	var timeline *packetsim.Timeline
	if *faults != "" {
		if *sim == "flow" {
			return fmt.Errorf("-faults requires -sim packet or transport (the flow model has no notion of time)")
		}
		var kinds []failure.Kind
		for _, name := range strings.Split(*faults, ",") {
			kind, err := failure.ParseKind(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			kinds = append(kinds, kind)
		}
		// The horizon tracks MTBF so the schedule always holds a meaningful
		// number of failure onsets, whatever time scale the user picked.
		scfg := failure.ScheduleConfig{
			Kinds:      kinds,
			MTBFSec:    mtbf.Seconds(),
			MTTRSec:    mttr.Seconds(),
			HorizonSec: 20 * mtbf.Seconds(),
		}
		if plan, err = failure.Schedule(t.Network(), scfg, rng); err != nil {
			return err
		}
		timeline = &packetsim.Timeline{}
		fmt.Fprintf(w, "faults: %d scheduled events (%s; MTBF %v, MTTR %v, horizon %v)\n",
			plan.Len(), *faults, *mtbf, *mttr, 20**mtbf)
	}

	switch *sim {
	case "flow":
		paths, err := flowsim.RoutePaths(t, flows)
		if err != nil {
			return err
		}
		asg, err := flowsim.MaxMinFairCapacityObserved(t.Network(), paths, flowsim.DefaultCapacity, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "max-min fair: bottleneck rate %.4f, sum %.2f, ABT %.2f (per server %.4f)\n",
			asg.MinRate(), asg.SumRate(), asg.ABT(), asg.ABT()/float64(servers))
	case "packet":
		cfg := packetsim.Default()
		cfg.Metrics = reg
		cfg.Trace = tracer
		cfg.Faults = plan
		cfg.Timeline = timeline
		cfg.Series = ser
		// Without -shards this is the one-shard engine, i.e. packetsim.Run.
		res, err := packetsim.RunSharded(t, flows, cfg, packetsim.ShardOpts{Shards: *shards, Workers: *workers, Profile: prof})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "packet sim: delivered %d, dropped %d+%d fault (%.2f%%), avg latency %.1fus, p99 %.1fus, throughput %.2f Gb/s\n",
			res.Delivered, res.Dropped, res.DroppedFault, 100*res.DropRate(),
			res.AvgLatencySec*1e6, res.P99LatencySec*1e6, res.ThroughputBps*8/1e9)
	case "transport":
		cfg := packetsim.DefaultTransport()
		cfg.Link.Metrics = reg
		cfg.Link.Trace = tracer
		cfg.Faults = plan
		cfg.Timeline = timeline
		cfg.Link.Series = ser
		cfg.Multipath = *mpath
		cfg.MultipathPaths = *paths
		var res packetsim.TransportResult
		if *shards != 0 {
			res, err = packetsim.RunTransportSharded(t, flows, cfg, packetsim.ShardOpts{Shards: *shards, Workers: *workers, Profile: prof})
		} else {
			res, err = packetsim.RunTransport(t, flows, cfg)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "transport sim: %d/%d flows completed (%d failed), %d retransmits, %d reroutes, mean FCT %.2fms, makespan %.2fms, goodput %.2f Gb/s\n",
			res.CompletedFlows, len(flows), res.FailedFlows, res.Retransmits, res.Reroutes,
			res.MeanFCTSec*1e3, res.MakespanSec*1e3, res.GoodputBps*8/1e9)
		if *mpath {
			fmt.Fprintf(w, "multipath: %d failovers, %d path switches, probes %d ok / %d failed\n",
				res.Failovers, res.PathSwitches, res.ProbeSuccesses, res.ProbeFailures)
		}
	case "svc":
		g, err := loadServiceGraph(*graphFl)
		if err != nil {
			return err
		}
		pol, err := svc.ParsePolicy(*policy)
		if err != nil {
			return err
		}
		var rep *svc.Report
		if pol == svc.PolicyNone {
			rep, err = svc.AnalyzeUnbudgeted(g, deadln.Seconds())
		} else {
			rep, err = svc.Analyze(g)
		}
		if err != nil {
			return err
		}
		writeAnalysis(w, g, rep)
		cfg := svc.Config{
			Policy:      pol,
			DeadlineSec: deadln.Seconds(),
			RatePerSec:  *rate,
			Requests:    *reqs,
			Seed:        *seed,
			Transport:   packetsim.DefaultTransport(),
			Metrics:     reg,
			Series:      ser,
		}
		cfg.Transport.Faults = plan
		cfg.Transport.Timeline = timeline
		cfg.Transport.Multipath = *mpath
		cfg.Transport.MultipathPaths = *paths
		res, err := svc.Run(t, g, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "svc run: %d/%d completed (%d deadline exceeded, %d aborted), goodput %.0f of %.0f offered rps, mean %.2fms, p99 %.2fms\n",
			res.Completed, res.Requests, res.DeadlineExceeded, res.Aborted,
			res.GoodputRps, res.OfferedRps, res.MeanLatencySec*1e3, res.P99LatencySec*1e3)
		fmt.Fprintf(w, "svc legs: %d started (%d ok, %d timed out, %d cancelled), %d retries (%d denied), %d hedges, %d wasted responses\n",
			res.LegsStarted, res.LegsSucceeded, res.LegsTimedOut, res.LegsCancelled,
			res.Retries, res.RetriesDenied, res.Hedges, res.WastedResponses)
		fmt.Fprintf(w, "svc worst request: %d legs (static bound %d)\n",
			res.MaxRequestLegs, rep.TotalAttemptsBound)
		if *mpath {
			fmt.Fprintf(w, "multipath: %d failovers, %d path switches, probes %d ok / %d failed\n",
				res.Transport.Failovers, res.Transport.PathSwitches,
				res.Transport.ProbeSuccesses, res.Transport.ProbeFailures)
		}
	case "surv":
		horizonSec, err := parseSpan(*horizon)
		if err != nil {
			return fmt.Errorf("-horizon: %w", err)
		}
		classRates, err := parseClassSpec(*classes)
		if err != nil {
			return fmt.Errorf("-classes: %w", err)
		}
		var thresholds []float64
		if *thresh > 0 {
			thresholds = []float64{*thresh}
		}
		st, err := surv.RunTrials(t.Network(), surv.TrialConfig{
			Classes:    classRates,
			Churn:      *churn,
			HorizonSec: horizonSec,
			Trials:     *trials,
			Seed:       *seed,
			Thresholds: thresholds,
		})
		if err != nil {
			return err
		}
		m := st.MTTF
		fmt.Fprintf(w, "surv: %d trials over %s (%s), %d partitioned, %d censored at horizon\n",
			*trials, *horizon, *classes, m.N, m.Censored)
		fmt.Fprintf(w, "MTTF to first partition: mean %s, %.0f%% CI [%s, %s]\n",
			fmtSpan(m.Mean), m.Level*100, fmtSpan(m.Lo), fmtSpan(m.Hi))
		if len(st.Below) > 0 {
			b := st.Below[0]
			fmt.Fprintf(w, "first time below %.4g reachability: mean %s (%d/%d trials crossed)\n",
				*thresh, fmtSpan(b.Mean), b.N, b.N+b.Censored)
		}
		if len(st.MeanCurve) > 0 {
			last := st.MeanCurve[len(st.MeanCurve)-1]
			fmt.Fprintf(w, "mean end state: reachable pairs %.4f, largest component %.4f of servers\n",
				last.ReachableFrac, last.LargestFrac)
		}
		if *series != "" {
			if err := writeSurvSeries(*series, w, t.Network(), classRates, *churn, horizonSec,
				thresholds, *seed, *pattern); err != nil {
				return err
			}
		}
	case "emu":
		fw, ok := t.(emu.Forwarder)
		if !ok {
			return fmt.Errorf("-sim emu needs a structure with hop-by-hop forwarding (%q has none)", *topo)
		}
		opts := []emu.Option{emu.WithMetrics(reg), emu.WithTrace(tracer), emu.WithSeries(ser)}
		if *shards != 0 {
			opts = append(opts, emu.WithShards(*shards))
		}
		if *workers != 0 {
			opts = append(opts, emu.WithWorkers(*workers))
		}
		if *emuWl == "flows" {
			stats, err := emu.RunSharded(fw, flows, opts...)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "emu: %d messages in %d rounds; injected %d, delivered %d, dropped failed/ttl/overflow %d/%d/%d, max hops %d, accounted=%v\n",
				stats.Messages, stats.Rounds, stats.Injected, stats.Delivered,
				stats.DroppedFailed, stats.DroppedTTL, stats.DroppedOverflow,
				stats.MaxHops, stats.Accounted())
			break
		}
		var wl emu.Workload
		switch *emuWl {
		case "rpc":
			wl = emu.Workload{Kind: emu.RPCFanout, Requests: *reqs, Fanout: *fanout, RetryBudget: *retries, Seed: *seed}
		case "incast":
			wl = emu.Workload{Kind: emu.IncastWave, Requests: *reqs, Fanout: *fanout, RetryBudget: *retries, Seed: *seed}
		case "shuffle":
			part := servers / 4
			if part < 1 {
				part = 1
			}
			wl = emu.Workload{Kind: emu.StorageShuffle, Mappers: part, Reducers: part, Seed: *seed}
		default:
			return fmt.Errorf("unknown -workload %q (have rpc, incast, shuffle, flows)", *emuWl)
		}
		ws, err := emu.RunWorkload(fw, wl, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "emu %s: %d requests, %d completed, %d timed out, %d retries, p50/p99 latency %d/%d rounds\n",
			*emuWl, ws.Requests, ws.Completed, ws.TimedOut, ws.RetriesSent,
			reqQuantile(ws.LatencyHistogram, ws.Completed, 0.50),
			reqQuantile(ws.LatencyHistogram, ws.Completed, 0.99))
		fmt.Fprintf(w, "emu: %d messages in %d rounds; injected %d, delivered %d, dropped failed/ttl/overflow %d/%d/%d, accounted=%v\n",
			ws.Messages, ws.Rounds, ws.Injected, ws.Delivered,
			ws.DroppedFailed, ws.DroppedTTL, ws.DroppedOverflow, ws.Accounted())
	default:
		return fmt.Errorf("unknown simulator %q", *sim)
	}
	if timeline != nil {
		writeTimeline(w, timeline)
	}

	if ser != nil {
		engine := *sim
		if *shards != 0 {
			engine += "-sharded"
		}
		workload := fmt.Sprintf("%s, %d flows, seed %d", *pattern, len(flows), *seed)
		windowNs := serWin.Nanoseconds()
		if *sim == "emu" {
			// The emulator's series axis is rounds, one window per round.
			windowNs = 1
			if *emuWl != "flows" {
				workload = fmt.Sprintf("%s, %d requests, seed %d", *emuWl, *reqs, *seed)
			}
		}
		if *sim == "svc" {
			workload = fmt.Sprintf("%s graph, %s policy, %d requests, seed %d", *graphFl, *policy, *reqs, *seed)
		}
		meta := obs.RunMeta{
			Label:          fmt.Sprintf("%s/%s", t.Network().Name(), *pattern),
			Engine:         engine,
			Topology:       t.Network().Name(),
			Workload:       workload,
			Shards:         *shards,
			Workers:        *workers,
			SeriesWindowNs: windowNs,
			Series:         true,
			Profile:        prof != nil,
		}
		f, err := os.Create(*series)
		if err != nil {
			return err
		}
		if err := obs.WriteRun(f, meta, nil, ser, prof); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "series: wrote %d points to %s (render with obsreport)\n", len(ser.Points()), *series)
	}
	if tracer != nil {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: wrote %d events to %s (%d overwritten by ring wraparound)\n",
			len(tracer.Events()), *trace, tracer.Dropped())
	}
	if reg != nil {
		fmt.Fprintln(w, "\ninstrumentation summary:")
		if err := obs.WriteSummary(w, reg); err != nil {
			return err
		}
	}
	return nil
}

// reqQuantile is the nearest-rank quantile of a completed-request latency
// histogram in rounds (0 when the workload tracks no request latency).
func reqQuantile(hist []int, total int, q float64) int {
	if total == 0 || len(hist) == 0 {
		return 0
	}
	rank := int(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for r, c := range hist {
		seen += c
		if seen >= rank {
			return r
		}
	}
	return len(hist) - 1
}

// loadServiceGraph resolves -graph: a built-in name first, then a JSON file.
func loadServiceGraph(name string) (*svc.Graph, error) {
	if g, err := svc.Builtin(name); err == nil {
		return g, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("-graph %q is neither a built-in (3tier|chain|diamond) nor a readable file: %w", name, err)
	}
	defer f.Close()
	return svc.ReadGraph(f)
}

// writeAnalysis prints the static retry-amplification report of a service
// graph: one line per root-to-leaf path, then the whole-graph attempt bound
// the run must stay under.
func writeAnalysis(w io.Writer, g *svc.Graph, rep *svc.Report) {
	fmt.Fprintf(w, "service graph: %d services, %d call edges, root %s; static analysis (%d root-to-leaf paths):\n",
		len(g.Services), len(g.Calls), g.Root, len(rep.Paths))
	for _, p := range rep.Paths {
		fmt.Fprintf(w, "  %-40s  amplification %4d  worst latency %7.1fms\n",
			strings.Join(p.Services, " -> "), p.Amplification, p.WorstLatencySec*1e3)
	}
	fmt.Fprintf(w, "  per-request attempt bound: %d legs\n", rep.TotalAttemptsBound)
}

// writeTimeline prints the per-epoch availability series of a fault run.
func writeTimeline(w io.Writer, tl *packetsim.Timeline) {
	fmt.Fprintf(w, "fault timeline (%d epochs):\n", len(tl.Epochs))
	for i, e := range tl.Epochs {
		fmt.Fprintf(w, "  epoch %2d  %8.3f-%8.3fms  goodput %7.3f Gb/s  avail %.4f  drops fault/stale/tail %d/%d/%d  reroutes %d  failovers %d\n",
			i, e.StartSec*1e3, e.EndSec*1e3, e.GoodputBps()*8/1e9, e.Availability(),
			e.DroppedFault, e.DroppedStale, e.DroppedTail, e.Reroutes, e.Failovers)
	}
}

// parseSpan parses a lifetime span: y (365-day years) and d suffixes for the
// survivability time scales, any Go duration otherwise.
func parseSpan(s string) (float64, error) {
	for suffix, sec := range map[string]float64{"y": 365 * 86400, "d": 86400} {
		if strings.HasSuffix(s, suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("bad span %q", s)
			}
			return v * sec, nil
		}
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad span %q (want a Go duration or y/d units)", s)
	}
	return d.Seconds(), nil
}

// parseClassSpec parses the -classes grammar: kind=MTBF[:MTTR], comma
// separated, with spans in parseSpan units.
func parseClassSpec(spec string) ([]failure.ClassRate, error) {
	var out []failure.ClassRate
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad class %q (want kind=MTBF[:MTTR])", part)
		}
		kind, err := failure.ParseKind(strings.TrimSpace(kv[0]))
		if err != nil {
			return nil, err
		}
		cr := failure.ClassRate{Kind: kind}
		times := strings.SplitN(kv[1], ":", 2)
		if cr.MTBFSec, err = parseSpan(strings.TrimSpace(times[0])); err != nil {
			return nil, err
		}
		if len(times) == 2 {
			if cr.MTTRSec, err = parseSpan(strings.TrimSpace(times[1])); err != nil {
				return nil, err
			}
		}
		out = append(out, cr)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-classes is empty")
	}
	return out, nil
}

// fmtSpan renders a seconds quantity on the survivability time scales:
// years down to half a year, days down to a day, seconds below.
func fmtSpan(sec float64) string {
	switch {
	case math.IsNaN(sec):
		return "-"
	case sec >= 0.5*365*86400:
		return fmt.Sprintf("%.2fy", sec/(365*86400))
	case sec >= 86400:
		return fmt.Sprintf("%.1fd", sec/86400)
	default:
		return fmt.Sprintf("%.3gs", sec)
	}
}

// writeSurvSeries replays one extra seeded lifetime with the series layer
// armed and writes the run record: the -series path for -sim surv.
func writeSurvSeries(path string, w io.Writer, net *topology.Network, classRates []failure.ClassRate,
	churn bool, horizonSec float64, thresholds []float64, seed int64, label string) error {
	rng := rand.New(rand.NewSource(seed))
	var plan *failure.FaultPlan
	var err error
	if churn {
		plan, err = failure.Schedule(net, failure.ScheduleConfig{
			HorizonSec: horizonSec, Classes: classRates}, rng)
	} else {
		plan, err = failure.Wearout(net, classRates, horizonSec, rng)
	}
	if err != nil {
		return err
	}
	windowNs := int64(horizonSec / 64 * 1e9)
	if windowNs < 1 {
		windowNs = 1
	}
	ser := obs.NewSeries(windowNs)
	if _, err := surv.Lifetime(net, plan, surv.Config{
		HorizonSec: horizonSec,
		Thresholds: thresholds,
		Series:     ser,
	}); err != nil {
		return err
	}
	meta := obs.RunMeta{
		Label:          fmt.Sprintf("%s/%s", net.Name(), label),
		Engine:         "surv",
		Topology:       net.Name(),
		Workload:       fmt.Sprintf("%s, seed %d", label, seed),
		SeriesWindowNs: windowNs,
		Series:         true,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteRun(f, meta, nil, ser, nil); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "series: wrote %d points to %s (render with obsreport)\n", len(ser.Points()), path)
	return nil
}

func buildTopology(name string, n, k, p int) (topology.Topology, error) {
	switch name {
	case "abccc":
		return core.Build(core.Config{N: n, K: k, P: p})
	case "bccc":
		return bccc.Build(bccc.Config{N: n, K: k})
	case "bcube":
		return bcube.Build(bcube.Config{N: n, K: k})
	case "dcell":
		return dcell.Build(dcell.Config{N: n, K: k})
	case "fattree":
		return fattree.Build(fattree.Config{K: k})
	case "hypercube":
		return hypercube.Build(hypercube.Config{D: k})
	default:
		return nil, fmt.Errorf("unknown structure %q", name)
	}
}

func buildWorkload(pattern string, servers, count int, rng *rand.Rand) ([]traffic.Flow, error) {
	if count <= 0 {
		count = servers
	}
	switch pattern {
	case "permutation":
		return traffic.Permutation(servers, rng), nil
	case "alltoall":
		return traffic.AllToAll(servers), nil
	case "uniform":
		return traffic.Uniform(servers, count, rng), nil
	case "incast":
		fanin := servers / 4
		if fanin < 1 {
			fanin = 1
		}
		return traffic.Incast(servers, 0, fanin, rng)
	case "shuffle":
		part := servers / 4
		if part < 1 {
			part = 1
		}
		return traffic.Shuffle(servers, part, part, rng)
	case "hotspot":
		spots := servers / 8
		if spots < 1 {
			spots = 1
		}
		return traffic.Hotspot(servers, spots, count, rng)
	default:
		return nil, fmt.Errorf("unknown pattern %q", pattern)
	}
}
