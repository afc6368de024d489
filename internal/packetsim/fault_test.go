package packetsim

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// faultTopo builds the ABCCC instance the fault tests run on.
func faultTopo(t testing.TB) *core.ABCCC {
	t.Helper()
	return core.MustBuild(core.Config{N: 4, K: 1, P: 2})
}

// faultFlows builds a deterministic shuffle workload with every flow sized.
func faultFlows(t testing.TB, tp topology.Topology, seed int64, bytes int64) []traffic.Flow {
	t.Helper()
	n := tp.Network().NumServers()
	flows, err := traffic.Shuffle(n, n/2, n/2, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return sized(flows, bytes)
}

// injectedPackets is the packet-engine offered load: every non-local flow
// injects ceil(Bytes/MTU) packets regardless of faults.
func injectedPackets(flows []traffic.Flow, mtu int) int {
	total := 0
	for _, f := range flows {
		if f.Src == f.Dst {
			continue
		}
		total += int((f.Bytes + int64(mtu) - 1) / int64(mtu))
	}
	return total
}

// checkTimeline asserts the structural invariants of a fault timeline:
// epochs start at 0, tile the run contiguously, and never run backwards.
func checkTimeline(t *testing.T, tl *Timeline) {
	t.Helper()
	if len(tl.Epochs) == 0 {
		t.Fatal("timeline has no epochs")
	}
	if tl.Epochs[0].StartSec != 0 {
		t.Errorf("first epoch starts at %v, want 0", tl.Epochs[0].StartSec)
	}
	for i, e := range tl.Epochs {
		if e.EndSec < e.StartSec {
			t.Errorf("epoch %d runs backwards: [%v, %v)", i, e.StartSec, e.EndSec)
		}
		if i > 0 && e.StartSec != tl.Epochs[i-1].EndSec {
			t.Errorf("epoch %d starts at %v, previous ended at %v", i, e.StartSec, tl.Epochs[i-1].EndSec)
		}
	}
}

// TestRunFaultDropsAndConservation kills one quarter of the switches forever
// mid-run: the packet engine must drop across the holes, keep delivering on
// surviving paths, and account for every injected packet.
func TestRunFaultDropsAndConservation(t *testing.T) {
	tp := faultTopo(t)
	flows := faultFlows(t, tp, 17, 64<<10)
	net := tp.Network()
	nKill := len(net.Switches()) / 4
	plan, err := failure.Burst(net, failure.Switches, nKill, 1e-4, 1.0, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}

	cfg := Default()
	cfg.Faults = plan
	cfg.Timeline = &Timeline{}
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if res.DroppedFault == 0 {
		t.Error("killing a quarter of the switches dropped nothing")
	}
	if res.Delivered == 0 {
		t.Error("nothing delivered despite surviving paths")
	}
	injected := injectedPackets(flows, cfg.MTU)
	if got := res.Delivered + res.Dropped + res.DroppedFault; got != injected {
		t.Errorf("conservation: delivered+dropped = %d, injected = %d", got, injected)
	}
	if got := reg.Counter(MetricDroppedFault).Value(); got != int64(res.DroppedFault) {
		t.Errorf("fault counter %d != result %d", got, res.DroppedFault)
	}
	if got := reg.Counter(MetricFaultEvents).Value(); got != int64(plan.Len()) {
		t.Errorf("applied %d fault events, plan has %d", got, plan.Len())
	}

	checkTimeline(t, cfg.Timeline)
	var sumDel, sumTail, sumFault int64
	for _, e := range cfg.Timeline.Epochs {
		sumDel += e.Delivered
		sumTail += e.DroppedTail
		sumFault += e.DroppedFault
	}
	if sumDel != int64(res.Delivered) || sumTail != int64(res.Dropped) || sumFault != int64(res.DroppedFault) {
		t.Errorf("timeline sums (%d, %d, %d) != result (%d, %d, %d)",
			sumDel, sumTail, sumFault, res.Delivered, res.Dropped, res.DroppedFault)
	}
}

// TestRunRepairWindow pins the down-then-up cycle: a link burst with a repair
// inside the run window must show fault drops during the outage and
// deliveries resuming afterwards, visible as distinct timeline epochs.
func TestRunRepairWindow(t *testing.T) {
	tp := faultTopo(t)
	net := tp.Network()
	// Slow injection stretches the run well past the repair at 2 ms.
	cfg := Default()
	cfg.FlowRateBps = cfg.LinkBandwidthBps / 50
	flows := faultFlows(t, tp, 23, 128<<10)

	nKill := net.Graph().NumEdges() / 3
	plan, err := failure.Burst(net, failure.Links, nKill, 5e-4, 2e-3, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	cfg.Timeline = &Timeline{}
	res, err := Run(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedFault == 0 {
		t.Fatal("outage dropped nothing")
	}
	checkTimeline(t, cfg.Timeline)
	if len(cfg.Timeline.Epochs) != 3 {
		t.Fatalf("down+up burst should carve 3 epochs, got %d", len(cfg.Timeline.Epochs))
	}
	pre, during, post := cfg.Timeline.Epochs[0], cfg.Timeline.Epochs[1], cfg.Timeline.Epochs[2]
	if pre.DroppedFault != 0 {
		t.Errorf("fault drops before the burst: %d", pre.DroppedFault)
	}
	if during.DroppedFault == 0 {
		t.Error("no fault drops during the outage epoch")
	}
	if post.DroppedFault != 0 {
		t.Errorf("fault drops after repair: %d", post.DroppedFault)
	}
	if post.Delivered == 0 {
		t.Error("no deliveries after repair")
	}
	if during.Availability() >= pre.Availability() {
		t.Errorf("outage availability %v not below pre-fault %v",
			during.Availability(), pre.Availability())
	}
}

// TestTransportReroutesAroundFailures kills a quarter of the switches for a
// 3 ms window: flows whose routes die recompile around the holes via the
// structure's RouteAvoiding; flows the greedy router misses (it has a
// documented miss rate) keep backing off until the repair restores their
// path. Either way every flow must complete — failures cost time, not data.
func TestTransportReroutesAroundFailures(t *testing.T) {
	tp := faultTopo(t)
	flows := faultFlows(t, tp, 31, 32<<10)
	net := tp.Network()
	nKill := len(net.Switches()) / 4
	plan, err := failure.Burst(net, failure.Switches, nKill, 1e-4, 3e-3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultTransport()
	cfg.Faults = plan
	cfg.Timeline = &Timeline{}
	res, err := RunTransport(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reroutes == 0 {
		t.Error("no flow rerouted around the dead switches")
	}
	if res.DroppedFault == 0 {
		t.Error("no packet hit a dead component")
	}
	if res.FailedFlows != 0 {
		t.Errorf("%d flows failed despite reroute + repair", res.FailedFlows)
	}
	if res.CompletedFlows != len(flows) {
		t.Errorf("completed %d of %d flows", res.CompletedFlows, len(flows))
	}

	checkTimeline(t, cfg.Timeline)
	var sumRtx, sumRr, sumDone int64
	for _, e := range cfg.Timeline.Epochs {
		sumRtx += e.Retransmits
		sumRr += e.Reroutes
		sumDone += e.CompletedFlows
	}
	if sumRtx != int64(res.Retransmits) || sumRr != int64(res.Reroutes) || sumDone != int64(res.CompletedFlows) {
		t.Errorf("timeline sums (rtx %d, rr %d, done %d) != result (%d, %d, %d)",
			sumRtx, sumRr, sumDone, res.Retransmits, res.Reroutes, res.CompletedFlows)
	}
}

// TestTransportAbortsStrandedFlow kills a destination server permanently:
// its flow can never finish and must give up after MaxFlowTimeouts, letting
// the run terminate.
func TestTransportAbortsStrandedFlow(t *testing.T) {
	tp := faultTopo(t)
	net := tp.Network()
	flows := []traffic.Flow{
		{Src: 0, Dst: 5, Bytes: 64 << 10},
		{Src: 1, Dst: 6, Bytes: 64 << 10},
	}
	victim := net.Servers()[5]
	plan := &failure.FaultPlan{Events: []failure.FaultEvent{
		{TimeSec: 1e-5, Kind: failure.Servers, Index: victim},
	}}

	cfg := DefaultTransport()
	cfg.Faults = plan
	cfg.MaxFlowTimeouts = 5 // give up fast; the default just takes longer
	res, err := RunTransport(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedFlows != 1 {
		t.Errorf("FailedFlows = %d, want 1 (dead destination)", res.FailedFlows)
	}
	if res.CompletedFlows != 1 {
		t.Errorf("CompletedFlows = %d, want 1 (untouched flow)", res.CompletedFlows)
	}
}

// TestMaxEventsStopsEveryShardCount pins the MaxEvents brake at every shard
// count. A flow to a server that dies at 10 µs, with the give-up cap off,
// retransmits forever, so the run must stop with the overrun error. One
// shard drains the whole run in a single window, so the brake has to act
// inside the drain, not only at window barriers. Each run has a deadline,
// so a missing brake fails the test instead of hanging it.
func TestMaxEventsStopsEveryShardCount(t *testing.T) {
	tp := faultTopo(t)
	net := tp.Network()
	flows := []traffic.Flow{{Src: 0, Dst: 5, Bytes: 64 << 10}}
	cfg := DefaultTransport()
	cfg.Faults = &failure.FaultPlan{Events: []failure.FaultEvent{
		{TimeSec: 1e-5, Kind: failure.Servers, Index: net.Servers()[5]},
	}}
	cfg.MaxFlowTimeouts = 0
	cfg.MaxEvents = 1000
	for _, s := range []int{1, 2, 4} {
		done := make(chan error, 1)
		go func() {
			_, err := RunTransportSharded(tp, flows, cfg, ShardOpts{Shards: s})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "exceeded") {
				t.Errorf("shards=%d: err = %v, want the MaxEvents overrun", s, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("shards=%d: still running after 10s; MaxEvents did not stop it", s)
		}
	}
}

// transportConservation runs one fault schedule and checks the packet-journey
// ledger: every data and ACK packet that entered the network is accounted for
// by exactly one terminal outcome.
func transportConservation(t *testing.T, tp topology.Topology, flows []traffic.Flow, plan *failure.FaultPlan) TransportResult {
	t.Helper()
	cfg := DefaultTransport()
	cfg.Faults = plan
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
	if got := reg.Counter(MetricTransportFaultDrops).Value(); got != int64(res.DroppedFault) {
		t.Errorf("fault-drop counter %d != result %d", got, res.DroppedFault)
	}
	return res
}

// TestTransportConservationUnderRandomFaults is the property test: across
// arbitrary seeded fault schedules — servers, switches and links churning
// down and up — no packet is ever double-counted or lost without a cause.
func TestTransportConservationUnderRandomFaults(t *testing.T) {
	tp := faultTopo(t)
	net := tp.Network()
	for seed := int64(1); seed <= 5; seed++ {
		flows := faultFlows(t, tp, seed, 16<<10)
		plan, err := failure.Schedule(net, failure.ScheduleConfig{
			Kinds:      []failure.Kind{failure.Servers, failure.Switches, failure.Links},
			MTBFSec:    3e-4,
			MTTRSec:    8e-4,
			HorizonSec: 6e-3,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		first := transportConservation(t, tp, flows, plan)
		second := transportConservation(t, tp, flows, plan)
		if first != second {
			t.Errorf("seed %d: same plan, different results:\n %+v\n %+v", seed, first, second)
		}
	}
}

// TestRunConservationUnderRandomFaults is the packet-engine counterpart:
// injected == delivered + droptail + fault for arbitrary schedules.
func TestRunConservationUnderRandomFaults(t *testing.T) {
	tp := faultTopo(t)
	net := tp.Network()
	for seed := int64(1); seed <= 5; seed++ {
		flows := faultFlows(t, tp, seed+100, 32<<10)
		plan, err := failure.Schedule(net, failure.ScheduleConfig{
			Kinds:      []failure.Kind{failure.Switches, failure.Links},
			MTBFSec:    2e-4,
			MTTRSec:    5e-4,
			HorizonSec: 4e-3,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Default()
		cfg.Faults = plan
		res, err := Run(tp, flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		injected := injectedPackets(flows, cfg.MTU)
		if got := res.Delivered + res.Dropped + res.DroppedFault; got != injected {
			t.Errorf("seed %d: delivered+dropped = %d, injected = %d", seed, got, injected)
		}
		again, err := Run(tp, flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res != again {
			t.Errorf("seed %d: same plan, different results", seed)
		}
	}
}

// TestFaultTraceEvents checks the trace stream carries the fault lifecycle:
// fault, repair, fault-cause drops, reroutes.
func TestFaultTraceEvents(t *testing.T) {
	tp := faultTopo(t)
	flows := faultFlows(t, tp, 31, 32<<10)
	net := tp.Network()
	plan, err := failure.Burst(net, failure.Switches, len(net.Switches())/4, 1e-4, 3e-3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTransport()
	cfg.Faults = plan
	cfg.Link.Trace = obs.NewTracer(1 << 16)
	if _, err := RunTransport(tp, flows, cfg); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	drops := make(map[string]int)
	for _, ev := range cfg.Link.Trace.Events() {
		kinds[ev.Kind]++
		if ev.Kind == "drop" {
			drops[ev.Detail]++
		}
	}
	for _, want := range []string{"fault", "repair", "reroute"} {
		if kinds[want] == 0 {
			t.Errorf("no %q trace events recorded", want)
		}
	}
	if drops[DropCauseFault] == 0 {
		t.Error("no fault-cause drop events recorded")
	}
}

// TestRunRejectsInvalidPlan: a plan naming a bogus component must fail fast,
// not corrupt the run.
func TestRunRejectsInvalidPlan(t *testing.T) {
	tp := faultTopo(t)
	flows := faultFlows(t, tp, 7, 16<<10)
	bad := &failure.FaultPlan{Events: []failure.FaultEvent{
		{TimeSec: 1e-3, Kind: failure.Links, Index: 1 << 30},
	}}
	cfg := Default()
	cfg.Faults = bad
	if _, err := Run(tp, flows, cfg); err == nil {
		t.Error("packet engine accepted an invalid fault plan")
	}
	tcfg := DefaultTransport()
	tcfg.Faults = bad
	if _, err := RunTransport(tp, flows, tcfg); err == nil {
		t.Error("transport engine accepted an invalid fault plan")
	}
}
