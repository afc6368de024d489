package packetsim

import (
	"math/rand"
	"testing"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// primarySwitch returns the last switch on the structure's default route for
// the flow — the component whose death blackholes the primary path. Killing
// the far end (rather than the first hop) keeps pre-fault ACKs flowing back,
// so a reactive sender keeps pumping data into the hole until its RTO while
// a proactive one switches away instantly — the difference under test.
func primarySwitch(t *testing.T, tp topology.Topology, src, dst int) int {
	t.Helper()
	p, err := tp.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	sw := -1
	for _, id := range p {
		if tp.Network().Kind(id) == topology.Switch {
			sw = id
		}
	}
	if sw < 0 {
		t.Fatalf("route %v crosses no switch", p)
	}
	return sw
}

// TestMultipathFailoverBeatsRTOOnly is the acceptance test for the proactive
// layer: one flow, one mid-flow switch death on its primary path, repaired
// 5 ms later. The victim is deep in the path, where ABCCC's greedy
// RouteAvoiding has a documented miss — the reactive baseline can only sit
// out the outage on RTO backoff (retransmitting into the hole), while the
// multipath run fails over to a precompiled disjoint path at the fault
// instant. It must therefore lose measurably fewer packets and finish
// sooner. Both runs are deterministic.
func TestMultipathFailoverBeatsRTOOnly(t *testing.T) {
	tp := faultTopo(t)
	flows := []traffic.Flow{{Src: 0, Dst: 21, Bytes: 256 << 10}}
	sw := primarySwitch(t, tp, tp.Network().Server(0), tp.Network().Server(21))
	plan := &failure.FaultPlan{Events: []failure.FaultEvent{
		{TimeSec: 1e-3, Kind: failure.Switches, Index: sw},
		{TimeSec: 6e-3, Kind: failure.Switches, Index: sw, Up: true},
	}}

	run := func(multipath bool) TransportResult {
		cfg := DefaultTransport()
		cfg.MaxCwnd = 16 // keep the lost in-flight window small in both modes
		cfg.Faults = plan
		cfg.Multipath = multipath
		res, err := RunTransport(tp, flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CompletedFlows != 1 {
			t.Fatalf("multipath=%v: flow did not complete: %+v", multipath, res)
		}
		return res
	}

	reactive := run(false)
	mp := run(true)

	if mp.Failovers == 0 {
		t.Error("no fast failover despite a fault on the primary path")
	}
	if mp.PathSwitches == 0 {
		t.Error("no scoreboard path switch recorded")
	}
	if reactive.Failovers != 0 || reactive.PathSwitches != 0 {
		t.Errorf("reactive run reports multipath activity: %+v", reactive)
	}
	lostMP := mp.DroppedFault
	lostReactive := reactive.DroppedFault
	if lostMP >= lostReactive {
		t.Errorf("multipath lost %d packets, reactive lost %d — failover saved nothing",
			lostMP, lostReactive)
	}
	if mp.MakespanSec >= reactive.MakespanSec {
		t.Errorf("multipath makespan %v not below reactive %v — no faster recovery",
			mp.MakespanSec, reactive.MakespanSec)
	}

	if again := run(true); again != mp {
		t.Errorf("same plan, different multipath results:\n %+v\n %+v", mp, again)
	}
}

// TestMultipathTimelineFailovers pins the per-epoch surfacing: failovers land
// in the epoch stats, epochs stay contiguous, and the sums match the result.
func TestMultipathTimelineFailovers(t *testing.T) {
	tp := faultTopo(t)
	flows := faultFlows(t, tp, 41, 64<<10)
	net := tp.Network()
	plan, err := failure.Burst(net, failure.Switches, len(net.Switches())/4, 5e-4, 4e-3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTransport()
	cfg.Faults = plan
	cfg.Multipath = true
	cfg.Timeline = &Timeline{}
	res, err := RunTransport(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 {
		t.Fatal("burst killed a quarter of the switches but no flow failed over")
	}
	checkTimeline(t, cfg.Timeline)
	var sum int64
	for _, e := range cfg.Timeline.Epochs {
		sum += e.Failovers
	}
	if sum != int64(res.Failovers) {
		t.Errorf("timeline failover sum %d != result %d", sum, res.Failovers)
	}
}

// TestMultipathProbeRevert pins the probation machinery: after the outage is
// repaired, backed-off probes must find the benched primary alive again and
// revert flows to it.
func TestMultipathProbeRevert(t *testing.T) {
	tp := faultTopo(t)
	flows := []traffic.Flow{{Src: 0, Dst: 21, Bytes: 1 << 20}}
	sw := primarySwitch(t, tp, tp.Network().Server(0), tp.Network().Server(21))
	plan := &failure.FaultPlan{Events: []failure.FaultEvent{
		{TimeSec: 1e-3, Kind: failure.Switches, Index: sw},
		{TimeSec: 45e-4, Kind: failure.Switches, Index: sw, Up: true},
	}}
	cfg := DefaultTransport()
	cfg.Faults = plan
	cfg.Multipath = true
	reg := obs.NewRegistry()
	cfg.Link.Metrics = reg
	res, err := RunTransport(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFlows != 1 {
		t.Fatalf("flow did not complete: %+v", res)
	}
	if res.ProbeFailures == 0 {
		t.Error("probes during the outage should have failed at least once")
	}
	if res.ProbeSuccesses == 0 {
		t.Error("no probe succeeded after the repair; flow never offered its primary back")
	}
	if res.PathSwitches < 2 {
		t.Errorf("PathSwitches = %d, want >= 2 (failover away plus revert)", res.PathSwitches)
	}
	if got := reg.Counter(MetricProbeSuccess).Value(); got != int64(res.ProbeSuccesses) {
		t.Errorf("probe-success counter %d != result %d", got, res.ProbeSuccesses)
	}
	if got := reg.Counter(MetricFailovers).Value(); got != int64(res.Failovers) {
		t.Errorf("failover counter %d != result %d", got, res.Failovers)
	}
	// Per-path goodput: with a mid-run outage both the primary and at least
	// one alternative must have carried acknowledged bytes.
	if reg.Counter(pathGoodputMetric(0, DefaultMultipathPaths)).Value() == 0 {
		t.Error("primary path carried no goodput")
	}
	var altBytes int64
	for j := 1; j <= DefaultMultipathPaths; j++ {
		altBytes += reg.Counter(pathGoodputMetric(j, DefaultMultipathPaths)).Value()
	}
	if altBytes == 0 {
		t.Error("no alternative path carried goodput during the outage")
	}
}

// multipathConservation mirrors transportConservation with the proactive
// layer armed: the packet-journey ledger must hold through failovers, path
// switches, probes, and reverts.
func multipathConservation(t *testing.T, tp topology.Topology, flows []traffic.Flow, plan *failure.FaultPlan) TransportResult {
	t.Helper()
	cfg := DefaultTransport()
	cfg.Faults = plan
	cfg.Multipath = true
	cfg.MaxFlowTimeouts = 8
	reg := obs.NewRegistry()
	cfg.Link.Metrics = reg
	res, err := RunTransport(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sent := reg.Counter(MetricDataSent).Value() + reg.Counter(MetricAckSent).Value()
	arrived := reg.Counter(MetricDataArrived).Value() + reg.Counter(MetricAckArrived).Value()
	dropped := reg.Counter(MetricTransportDrops).Value() +
		reg.Counter(MetricTransportFaultDrops).Value()
	if sent != arrived+dropped {
		t.Errorf("conservation: sent %d != arrived %d + dropped %d", sent, arrived, dropped)
	}
	return res
}

// TestMultipathConservationUnderRandomFaults churns servers, switches and
// links while the scoreboard is live: conservation and determinism must
// survive arbitrary schedules, exactly like the single-path property test.
func TestMultipathConservationUnderRandomFaults(t *testing.T) {
	tp := faultTopo(t)
	net := tp.Network()
	for seed := int64(1); seed <= 5; seed++ {
		flows := faultFlows(t, tp, seed+40, 16<<10)
		plan, err := failure.Schedule(net, failure.ScheduleConfig{
			Kinds:      []failure.Kind{failure.Servers, failure.Switches, failure.Links},
			MTBFSec:    3e-4,
			MTTRSec:    8e-4,
			HorizonSec: 6e-3,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		first := multipathConservation(t, tp, flows, plan)
		second := multipathConservation(t, tp, flows, plan)
		if first != second {
			t.Errorf("seed %d: same plan, different results:\n %+v\n %+v", seed, first, second)
		}
	}
}

// TestMultipathConfigValidation rejects a negative path cap.
func TestMultipathConfigValidation(t *testing.T) {
	cfg := DefaultTransport()
	cfg.MultipathPaths = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative MultipathPaths accepted")
	}
}
