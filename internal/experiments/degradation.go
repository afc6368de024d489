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

// degradationSubject is one structure in the graceful-degradation sweep.
type degradationSubject struct {
	name string
	t    topology.Topology
}

// degradationSubjects mirrors the recovery-figure lineup: ABCCC and BCube
// both expose disjoint parallel paths; fat-tree is the single-NIC control.
func degradationSubjects() []degradationSubject {
	return []degradationSubject{
		{"ABCCC(4,1,2)", core.MustBuild(core.Config{N: 4, K: 1, P: 2})},
		{"BCube(4,1)", bcube.MustBuild(bcube.Config{N: 4, K: 1})},
		{"FatTree(4)", fattree.MustBuild(fattree.Config{K: 4})},
	}
}

// Graceful-degradation scenario parameters: a fraction of the switches die
// at 1 ms into a half-shuffle and never recover; the sweep reuses the
// fault-tolerance failure rates (0% .. 20%). The series window divides the
// fault time exactly, so the outage start lands on a window boundary.
const (
	degradationFaultAtSec      = 1e-3
	degradationFlowBytes       = 64 << 10
	degradationSeed            = 27
	degradationSeriesWindowSec = 5e-4
)

// degradationPoint runs the scenario on one structure at one failure rate,
// reactive-only or with the proactive multipath layer. Flows and the fault
// plan are seeded per (structure, rate) so the two modes face the identical
// outage, and the sweep is byte-deterministic. A non-nil series collects the
// run's windowed curves (telemetry never changes the result — pinned by
// TestSeriesArmedKeepsResultsIdentical in packetsim).
func degradationPoint(sub degradationSubject, rate float64, multipath bool, series *obs.Series) (packetsim.TransportResult, error) {
	net := sub.t.Network()
	n := net.NumServers()
	rng := rand.New(rand.NewSource(degradationSeed + int64(1000*rate)))
	flows, err := traffic.Shuffle(n, n/2, n/2, rng)
	if err != nil {
		return packetsim.TransportResult{}, err
	}
	for i := range flows {
		flows[i].Bytes = degradationFlowBytes
	}
	plan, err := failure.Downs(net, failure.Switches, rate, degradationFaultAtSec, rng)
	if err != nil {
		return packetsim.TransportResult{}, err
	}
	cfg := packetsim.DefaultTransport()
	cfg.Faults = plan
	cfg.Multipath = multipath
	cfg.Link.Series = series
	// Dead switches never recover: stranded flows must abort, not grind
	// through the full RTO backoff ladder.
	cfg.MaxFlowTimeouts = 8
	return packetsim.RunTransport(sub.t, flows, cfg)
}

// F27GracefulDegradation regenerates the graceful-degradation figure: goodput
// and flow completion as permanent switch failures sweep 0-20%, with the
// reactive-only transport (RTO + RouteAvoiding) side by side against the
// proactive multipath layer on every structure. The "% of healthy" columns
// are each mode's goodput relative to its own zero-failure baseline — the
// degradation curve the title promises. Fat-tree rides along as the
// single-NIC control: with no disjoint paths to precompile, its multipath
// column can only match its reactive one.
func F27GracefulDegradation(w io.Writer) error {
	subjects := degradationSubjects()
	type point struct {
		reactive, mp packetsim.TransportResult
		// Series are armed only at the sweep's worst failure rate; the
		// time-resolved section below compares the two modes there.
		reactiveSeries, mpSeries *obs.Series
	}
	points := make([]point, len(subjects)*len(failureRates))
	worst := len(failureRates) - 1
	seriesWindowNs := int64(degradationSeriesWindowSec * 1e9)
	if _, err := sweepRows(len(points), func(i int) (string, error) {
		sub := subjects[i/len(failureRates)]
		rate := failureRates[i%len(failureRates)]
		p := &points[i]
		if i%len(failureRates) == worst {
			p.reactiveSeries = obs.NewSeries(seriesWindowNs)
			p.mpSeries = obs.NewSeries(seriesWindowNs)
		}
		reactive, err := degradationPoint(sub, rate, false, p.reactiveSeries)
		if err != nil {
			return "", err
		}
		mp, err := degradationPoint(sub, rate, true, p.mpSeries)
		if err != nil {
			return "", err
		}
		p.reactive, p.mp = reactive, mp
		return "", nil
	}); err != nil {
		return err
	}

	tw := table(w)
	fmt.Fprintln(tw, "structure\tfail rate\tmode\tgoodput(Gb/s)\t% of healthy\tflows done/failed\tfailovers\tfault drops")
	for si, sub := range subjects {
		base := points[si*len(failureRates)]
		for ri, rate := range failureRates {
			p := points[si*len(failureRates)+ri]
			row := func(mode string, res, healthy packetsim.TransportResult, failovers string) {
				pct := 0.0
				if healthy.GoodputBps > 0 {
					pct = res.GoodputBps / healthy.GoodputBps * 100
				}
				fmt.Fprintf(tw, "%s\t%.0f%%\t%s\t%.3f\t%.1f%%\t%d/%d\t%s\t%d\n",
					sub.name, rate*100, mode, res.GoodputBps*8/1e9, pct,
					res.CompletedFlows, res.FailedFlows, failovers,
					res.DroppedFault)
			}
			row("reactive", p.reactive, base.reactive, "-")
			row("multipath", p.mp, base.mp, fmt.Sprintf("%d", p.mp.Failovers))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Time-resolved view of the worst point: the same goodput collapse the
	// sweep table reports, now as per-window curves showing the multipath
	// layer's failover burst absorbing the outage while the reactive mode
	// bleeds fault drops.
	fmt.Fprintf(w, "\ntime series at %.0f%% failures (%.1f ms windows):\n",
		failureRates[len(failureRates)-1]*100, degradationSeriesWindowSec*1e3)
	tw = table(w)
	fmt.Fprintln(tw, "structure\twindow\tgoodput r/m(Gb/s)\tdrops fault r/m\tfailovers(m)")
	for si, sub := range subjects {
		p := points[si*len(failureRates)+worst]
		rw, mw := foldSeriesWindows(p.reactiveSeries), foldSeriesWindows(p.mpSeries)
		n := len(rw)
		if len(mw) > n {
			n = len(mw)
		}
		gbps := func(rows []seriesWindow, i int) float64 {
			if i >= len(rows) {
				return 0
			}
			return float64(rows[i].goodputBytes) / degradationSeriesWindowSec * 8 / 1e9
		}
		cell := func(rows []seriesWindow, i int) seriesWindow {
			if i >= len(rows) {
				return seriesWindow{}
			}
			return rows[i]
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(tw, "%s\t%d\t%.3f/%.3f\t%d/%d\t%d\n",
				sub.name, i, gbps(rw, i), gbps(mw, i),
				cell(rw, i).dropFault, cell(mw, i).dropFault, cell(mw, i).failovers)
		}
	}
	return tw.Flush()
}
