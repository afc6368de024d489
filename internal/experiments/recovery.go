package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/bcube"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fattree"
	"repro/internal/obs"
	"repro/internal/packetsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Recovery-timeline scenario parameters: a quarter of the switches fail
// together at 2 ms and all come back at 6 ms, while a half-shuffle of
// transport flows is in progress. The series window width divides both fault
// times exactly, so whole 1 ms windows aggregate into fault epochs — the
// invariant TestRecoverySeriesMatchesTimeline pins.
const (
	recoveryBurstAtSec      = 2e-3
	recoveryRepairSec       = 6e-3
	recoveryFlowBytes       = 256 << 10
	recoverySeed            = 26
	recoverySeriesWindowSec = 1e-3
)

// recoverySubjects are the structures the recovery figure compares. All three
// implement topology.FaultRouter, so timed-out flows recompile routes around
// the dead switches.
func recoverySubjects() []struct {
	name string
	t    topology.Topology
} {
	return []struct {
		name string
		t    topology.Topology
	}{
		{"ABCCC(4,1,2)", core.MustBuild(core.Config{N: 4, K: 1, P: 2})},
		{"BCube(4,1)", bcube.MustBuild(bcube.Config{N: 4, K: 1})},
		{"FatTree(4)", fattree.MustBuild(fattree.Config{K: 4})},
	}
}

// recoveryScenario builds the scenario inputs for one structure: the seeded
// half-shuffle of flowBytes-sized flows and the burst-and-repair fault plan.
func recoveryScenario(t topology.Topology, flowBytes int64) ([]traffic.Flow, *failure.FaultPlan, error) {
	net := t.Network()
	n := net.NumServers()
	rng := rand.New(rand.NewSource(recoverySeed))
	flows, err := traffic.Shuffle(n, n/2, n/2, rng)
	if err != nil {
		return nil, nil, err
	}
	for i := range flows {
		flows[i].Bytes = flowBytes
	}
	nKill := len(net.Switches()) / 4
	if nKill < 1 {
		nKill = 1
	}
	plan, err := failure.Burst(net, failure.Switches, nKill, recoveryBurstAtSec, recoveryRepairSec, rng)
	if err != nil {
		return nil, nil, err
	}
	return flows, plan, nil
}

// runRecovery executes the scenario on one structure and returns the result
// together with its per-epoch timeline (pre-fault, outage, post-repair) and
// the 1 ms time-series curves of the same run.
func runRecovery(t topology.Topology) (packetsim.TransportResult, *packetsim.Timeline, *obs.Series, error) {
	flows, plan, err := recoveryScenario(t, recoveryFlowBytes)
	if err != nil {
		return packetsim.TransportResult{}, nil, nil, err
	}
	cfg := packetsim.DefaultTransport()
	cfg.Faults = plan
	cfg.Timeline = &packetsim.Timeline{}
	cfg.Link.Series = obs.NewSeries(int64(recoverySeriesWindowSec * 1e9))
	res, err := packetsim.RunTransport(t, flows, cfg)
	return res, cfg.Timeline, cfg.Link.Series, err
}

// seriesWindow is one series window of an experiment's curves, folded across
// the transport engine's tracks.
type seriesWindow struct {
	goodputBytes int64
	dropFault    int64
	dropTail     int64
	rtx          int64
	reroutes     int64
	failovers    int64
}

// foldSeriesWindows folds a run's series points into dense per-window rows:
// windows with no activity appear as zeros, so the curves keep a contiguous
// time axis from 0 to the last active window.
func foldSeriesWindows(s *obs.Series) []seriesWindow {
	pts := s.Points()
	max := int64(-1)
	for _, pt := range pts {
		if pt.Window > max {
			max = pt.Window
		}
	}
	rows := make([]seriesWindow, max+1)
	for _, pt := range pts {
		r := &rows[pt.Window]
		switch pt.Track {
		case packetsim.SeriesGoodputBytes:
			r.goodputBytes += pt.Sum
		case packetsim.SeriesDropFault:
			r.dropFault += pt.Sum
		case packetsim.SeriesDropTail:
			r.dropTail += pt.Sum
		case packetsim.SeriesRetransmits:
			r.rtx += pt.Sum
		case packetsim.SeriesReroutes:
			r.reroutes += pt.Sum
		case packetsim.SeriesFailovers:
			r.failovers += pt.Sum
		}
	}
	return rows
}

// F26RecoveryTimeline regenerates the recovery figure: goodput and
// availability per fault epoch as a switch burst hits mid-run and is later
// repaired, followed by the same runs resolved into 1 ms series windows. The
// outage epoch shows the goodput dip and the fault-drop burst; the
// post-repair epoch shows the recovery; the windowed section shows when
// within each epoch the dip bottoms out and the reroute/retransmit bursts
// fire.
func F26RecoveryTimeline(w io.Writer) error {
	subjects := recoverySubjects()
	type out struct {
		res    packetsim.TransportResult
		tl     *packetsim.Timeline
		series *obs.Series
	}
	outs := make([]out, len(subjects))
	// The pool runs the simulations; formatting stays serial because the
	// rows-per-subject count varies with each timeline's epoch count.
	if _, err := sweepRows(len(subjects), func(i int) (string, error) {
		res, tl, series, err := runRecovery(subjects[i].t)
		outs[i] = out{res, tl, series}
		return "", err
	}); err != nil {
		return err
	}

	tw := table(w)
	fmt.Fprintln(tw, "structure\tepoch\twindow(ms)\tgoodput(Gb/s)\tavail\tdrops fault/tail\treroutes\trtx\tflows done")
	labels := []string{"pre-fault", "outage", "post-repair"}
	for i, sub := range subjects {
		for j, e := range outs[i].tl.Epochs {
			label := fmt.Sprintf("epoch %d", j)
			if j < len(labels) {
				label = labels[j]
			}
			fmt.Fprintf(tw, "%s\t%s\t%.2f-%.2f\t%.3f\t%.4f\t%d/%d\t%d\t%d\t%d\n",
				sub.name, label, e.StartSec*1e3, e.EndSec*1e3,
				e.GoodputBps()*8/1e9, e.Availability(),
				e.DroppedFault, e.DroppedTail,
				e.Reroutes, e.Retransmits, e.CompletedFlows)
		}
		res := outs[i].res
		fmt.Fprintf(tw, "%s\ttotal\t0.00-%.2f\t%.3f\t\t%d/-\t%d\t%d\t%d (%d failed)\n",
			sub.name, res.MakespanSec*1e3, res.GoodputBps*8/1e9,
			res.DroppedFault, res.Reroutes, res.Retransmits,
			res.CompletedFlows, res.FailedFlows)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(w, "\ntime series (%.0f ms windows):\n", recoverySeriesWindowSec*1e3)
	tw = table(w)
	fmt.Fprintln(tw, "structure\twindow(ms)\tgoodput(Gb/s)\tdrops fault/tail\treroutes\trtx")
	for i, sub := range subjects {
		for win, r := range foldSeriesWindows(outs[i].series) {
			fmt.Fprintf(tw, "%s\t%d-%d\t%.3f\t%d/%d\t%d\t%d\n",
				sub.name, win, win+1,
				float64(r.goodputBytes)/recoverySeriesWindowSec*8/1e9,
				r.dropFault, r.dropTail, r.reroutes, r.rtx)
		}
	}
	return tw.Flush()
}

// recoverySmokeFlowBytes is the flow size WriteRecoveryRun uses: the full
// 256 KB figure run profiles tens of thousands of conservative shard windows
// (a ~35 MB record), so the committed fixture and CI smoke trace run the same
// scenario — same burst, repair, seed, and topology — at smoke scale.
const recoverySmokeFlowBytes = 8 << 10

// WriteRecoveryRun executes the F26 scenario (at smoke-scale flow sizes) on
// the ABCCC subject with the sharded transport engine and every telemetry
// layer armed — trace, series, and the shard runtime profiler — and writes
// the combined run-record JSONL to w. cmd/obsreport's committed fixture and
// the CI smoke trace both come from here, so the format the report tool is
// tested against is exactly what the engine emits. Workers is pinned to 1 for
// a deterministic trace order.
func WriteRecoveryRun(w io.Writer) error {
	const shards, workers = 4, 1
	sub := recoverySubjects()[0]
	flows, plan, err := recoveryScenario(sub.t, recoverySmokeFlowBytes)
	if err != nil {
		return err
	}
	cfg := packetsim.DefaultTransport()
	cfg.Faults = plan
	cfg.Link.Series = obs.NewSeries(int64(recoverySeriesWindowSec * 1e9))
	cfg.Link.Trace = obs.NewTracer(1024)
	prof := obs.NewShardProfile()
	if _, err := packetsim.RunTransportSharded(sub.t, flows, cfg,
		packetsim.ShardOpts{Shards: shards, Workers: workers, Profile: prof}); err != nil {
		return err
	}
	meta := obs.RunMeta{
		Label:          "F26/" + sub.name,
		Engine:         "transport-sharded",
		Topology:       sub.name,
		Workload:       fmt.Sprintf("half-shuffle, %d B flows, seed %d", recoverySmokeFlowBytes, recoverySeed),
		Shards:         shards,
		Workers:        workers,
		SeriesWindowNs: int64(recoverySeriesWindowSec * 1e9),
		Trace:          true,
		Series:         true,
		Profile:        true,
	}
	return obs.WriteRun(w, meta, cfg.Link.Trace, cfg.Link.Series, prof)
}
