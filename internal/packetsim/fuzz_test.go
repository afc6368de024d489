package packetsim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// fuzzEnv is built once: fuzzing re-invokes the target thousands of times and
// the topology/workload never change, only the fault plan does.
var fuzzEnv struct {
	once  sync.Once
	topo  *core.ABCCC
	net   *topology.Network
	flows []traffic.Flow
}

func fuzzSetup() {
	fuzzEnv.once.Do(func() {
		fuzzEnv.topo = core.MustBuild(core.Config{N: 3, K: 1, P: 2})
		fuzzEnv.net = fuzzEnv.topo.Network()
		n := fuzzEnv.net.NumServers()
		flows, err := traffic.Shuffle(n, n/2, n/2, rand.New(rand.NewSource(77)))
		if err != nil {
			panic(err)
		}
		fuzzEnv.flows = sized(flows, 8<<10)
	})
}

// decodePlan turns arbitrary fuzz bytes into a valid fault plan: each
// 4-byte chunk becomes one event, with the raw values clamped into range so
// every input exercises the engine instead of tripping Validate. Byte 0 is
// the time (in 0.1 ms ticks), byte 1 picks the component class, byte 2 the
// component, byte 3 the direction.
func decodePlan(net *topology.Network, raw []byte) *failure.FaultPlan {
	plan := &failure.FaultPlan{}
	servers, switches := net.Servers(), net.Switches()
	edges := net.Graph().NumEdges()
	for i := 0; i+4 <= len(raw) && len(plan.Events) < 64; i += 4 {
		ev := failure.FaultEvent{
			TimeSec: float64(raw[i]) * 1e-4,
			Up:      raw[i+3]&1 == 1,
		}
		switch raw[i+1] % 3 {
		case 0:
			ev.Kind, ev.Index = failure.Servers, servers[int(raw[i+2])%len(servers)]
		case 1:
			ev.Kind, ev.Index = failure.Switches, switches[int(raw[i+2])%len(switches)]
		default:
			ev.Kind, ev.Index = failure.Links, int(raw[i+2])%edges
		}
		plan.Events = append(plan.Events, ev)
	}
	plan.Sort()
	return plan
}

// FuzzFaultPlanConservation feeds arbitrary fault schedules — including
// shapes Schedule never emits, like repairs of never-failed components,
// double failures, and events at time zero — through the packet engine and
// checks packet conservation: every injected packet is delivered or dropped
// with a cause, exactly once. `make fuzz-smoke` runs this for a few seconds
// in CI.
func FuzzFaultPlanConservation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 0, 3, 0})                             // one server down, never repaired
	f.Add([]byte{5, 1, 2, 0, 20, 1, 2, 1})                 // switch down then up
	f.Add([]byte{0, 2, 7, 0, 0, 2, 7, 0, 9, 2, 7, 1})      // double link failure at t=0
	f.Add([]byte{3, 0, 1, 1, 8, 1, 0, 0, 8, 2, 5, 0})      // repair-before-fail, same-time mixed burst
	f.Add([]byte{255, 1, 9, 0, 1, 0, 0, 0, 128, 2, 40, 1}) // late + early + mid

	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzSetup()
		plan := decodePlan(fuzzEnv.net, raw)
		cfg := Default()
		cfg.Faults = plan
		cfg.Timeline = &Timeline{}
		res, err := Run(fuzzEnv.topo, fuzzEnv.flows, cfg)
		if err != nil {
			t.Fatalf("valid decoded plan rejected: %v", err)
		}
		injected := injectedPackets(fuzzEnv.flows, cfg.MTU)
		if got := res.Delivered + res.Dropped + res.DroppedFault; got != injected {
			t.Fatalf("conservation violated: delivered %d + droptail %d + fault %d != injected %d (plan %+v)",
				res.Delivered, res.Dropped, res.DroppedFault, injected, plan.Events)
		}
		for i, e := range cfg.Timeline.Epochs {
			if e.EndSec < e.StartSec {
				t.Fatalf("epoch %d runs backwards: [%v, %v)", i, e.StartSec, e.EndSec)
			}
			if i > 0 && e.StartSec != cfg.Timeline.Epochs[i-1].EndSec {
				t.Fatalf("epoch %d not contiguous", i)
			}
		}
	})
}

// FuzzMultipathConservation drives the multipath transport through arbitrary
// fault schedules: whatever sequence of failovers, path switches, probes,
// reverts and RouteAvoiding fallbacks a plan provokes, the packet-journey
// ledger — sent == arrived + dropped, per cause, data and ACKs alike — must
// hold, and the run must terminate. `make fuzz-smoke` runs this in CI.
func FuzzMultipathConservation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 1, 3, 0})                             // one switch down, never repaired
	f.Add([]byte{5, 1, 2, 0, 20, 1, 2, 1})                 // primary dies then revives (probe revert)
	f.Add([]byte{0, 1, 1, 0, 0, 1, 4, 0, 0, 1, 7, 0})      // burst at t=0: scoreboard attrition
	f.Add([]byte{3, 0, 1, 0, 8, 2, 5, 0, 40, 0, 1, 1})     // dead endpoint + link, late repair
	f.Add([]byte{255, 1, 9, 0, 1, 0, 0, 0, 128, 2, 40, 1}) // late + early + mid

	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzSetup()
		plan := decodePlan(fuzzEnv.net, raw)
		cfg := DefaultTransport()
		cfg.Faults = plan
		cfg.Multipath = true
		cfg.MultipathPaths = 3
		cfg.MaxFlowTimeouts = 6
		reg := obs.NewRegistry()
		cfg.Link.Metrics = reg
		if _, err := RunTransport(fuzzEnv.topo, fuzzEnv.flows, cfg); err != nil {
			t.Fatalf("valid decoded plan rejected: %v", err)
		}
		sent := reg.Counter(MetricDataSent).Value() + reg.Counter(MetricAckSent).Value()
		arrived := reg.Counter(MetricDataArrived).Value() + reg.Counter(MetricAckArrived).Value()
		dropped := reg.Counter(MetricTransportDrops).Value() +
			reg.Counter(MetricTransportFaultDrops).Value()
		if sent != arrived+dropped {
			t.Fatalf("conservation violated: sent %d != arrived %d + dropped %d (plan %+v)",
				sent, arrived, dropped, plan.Events)
		}
	})
}

// FuzzShardConservation drives the sharded engines' handoff/barrier path
// through arbitrary fault schedules and shard counts. The first fuzz byte
// picks the shard count; the rest decode into a fault plan. Three properties
// must survive every input: packet conservation in the sharded packet
// engine, the journey ledger in the sharded multipath transport, and
// byte-identical results against the single-shard run of the same engine.
// `make fuzz-smoke` runs this in CI.
func FuzzShardConservation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2})                                            // two shards, no faults
	f.Add([]byte{4, 10, 1, 3, 0})                               // one switch down, never repaired
	f.Add([]byte{7, 5, 1, 2, 0, 20, 1, 2, 1})                   // prime shards, down-then-up
	f.Add([]byte{3, 0, 1, 1, 0, 0, 1, 4, 0, 0, 1, 7, 0})        // burst at t=0
	f.Add([]byte{255, 255, 1, 9, 0, 1, 0, 0, 0, 128, 2, 40, 1}) // oversized shard count

	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzSetup()
		shards := 1
		if len(raw) > 0 {
			shards = 1 + int(raw[0])%8
			raw = raw[1:]
		}
		plan := decodePlan(fuzzEnv.net, raw)

		// Packet engine: conservation plus single-shard equivalence.
		cfg := Default()
		cfg.Faults = plan
		res, err := RunSharded(fuzzEnv.topo, fuzzEnv.flows, cfg, ShardOpts{Shards: shards})
		if err != nil {
			t.Fatalf("valid decoded plan rejected: %v", err)
		}
		injected := injectedPackets(fuzzEnv.flows, cfg.MTU)
		if got := res.Delivered + res.Dropped + res.DroppedFault; got != injected {
			t.Fatalf("shards=%d conservation violated: %d != injected %d (plan %+v)",
				shards, got, injected, plan.Events)
		}
		if base, err := RunSharded(fuzzEnv.topo, fuzzEnv.flows, cfg, ShardOpts{Shards: 1}); err != nil {
			t.Fatal(err)
		} else if res != base {
			t.Fatalf("shards=%d result %+v != shards=1 %+v (plan %+v)", shards, res, base, plan.Events)
		}

		// Multipath transport: journey ledger plus single-shard equivalence.
		tcfg := DefaultTransport()
		tcfg.Faults = plan
		tcfg.Multipath = true
		tcfg.MultipathPaths = 3
		tcfg.MaxFlowTimeouts = 6
		reg := obs.NewRegistry()
		tcfg.Link.Metrics = reg
		tres, err := RunTransportSharded(fuzzEnv.topo, fuzzEnv.flows, tcfg, ShardOpts{Shards: shards})
		if err != nil {
			t.Fatalf("valid decoded plan rejected: %v", err)
		}
		sent := reg.Counter(MetricDataSent).Value() + reg.Counter(MetricAckSent).Value()
		arrived := reg.Counter(MetricDataArrived).Value() + reg.Counter(MetricAckArrived).Value()
		dropped := reg.Counter(MetricTransportDrops).Value() +
			reg.Counter(MetricTransportFaultDrops).Value()
		if sent != arrived+dropped {
			t.Fatalf("shards=%d conservation violated: sent %d != arrived %d + dropped %d (plan %+v)",
				shards, sent, arrived, dropped, plan.Events)
		}
		tcfg.Link.Metrics = nil
		if tbase, err := RunTransportSharded(fuzzEnv.topo, fuzzEnv.flows, tcfg, ShardOpts{Shards: 1}); err != nil {
			t.Fatal(err)
		} else if tres != tbase {
			t.Fatalf("shards=%d transport %+v != shards=1 %+v (plan %+v)", shards, tres, tbase, plan.Events)
		}
	})
}
