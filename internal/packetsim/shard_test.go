package packetsim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// shardCounts is the equivalence matrix's shard axis: serial, even splits,
// and a prime count that never divides the topology evenly.
var shardCounts = []int{1, 2, 4, 7}

func TestShardEquivalenceMatrix(t *testing.T) {
	tp := faultTopo(t)
	flows := faultFlows(t, tp, 17, 64<<10)

	for _, withFaults := range []bool{false, true} {
		name := "plain"
		if withFaults {
			name = "faults"
		}
		t.Run(name, func(t *testing.T) {
			var plan *failure.FaultPlan
			if withFaults {
				var err error
				plan, err = failure.Burst(tp.Network(), failure.Switches,
					len(tp.Network().Switches())/4, 1e-4, 2e-3, rand.New(rand.NewSource(5)))
				if err != nil {
					t.Fatal(err)
				}
			}
			run := func(shards int) (Result, *Timeline) {
				cfg := Default()
				var tl *Timeline
				if plan != nil {
					cfg.Faults = plan
					tl = &Timeline{}
					cfg.Timeline = tl
				}
				res, err := RunSharded(tp, flows, cfg, ShardOpts{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				return res, tl
			}
			want, wantTL := run(1)
			if want.Delivered == 0 {
				t.Fatal("oracle run delivered nothing")
			}
			injected := injectedPackets(flows, Default().MTU)
			if got := want.Delivered + want.Dropped + want.DroppedFault; got != injected {
				t.Fatalf("conservation: delivered+dropped = %d, injected = %d", got, injected)
			}
			for _, s := range shardCounts[1:] {
				got, gotTL := run(s)
				if got != want {
					t.Errorf("shards=%d result %+v\n  != shards=1 %+v", s, got, want)
				}
				if plan != nil {
					compareTimelines(t, s, gotTL, wantTL)
				}
			}
		})
	}
}

func TestTransportShardEquivalenceMatrix(t *testing.T) {
	tp := faultTopo(t)
	flows := faultFlows(t, tp, 23, 256<<10)
	plan, err := failure.Burst(tp.Network(), failure.Switches,
		len(tp.Network().Switches())/4, 1e-4, 2e-3, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"plain", "faults", "multipath"} {
		t.Run(mode, func(t *testing.T) {
			run := func(shards int) (TransportResult, *Timeline) {
				cfg := DefaultTransport()
				var tl *Timeline
				if mode != "plain" {
					cfg.Faults = plan
					tl = &Timeline{}
					cfg.Timeline = tl
				}
				if mode == "multipath" {
					cfg.Multipath = true
				}
				res, err := RunTransportSharded(tp, flows, cfg, ShardOpts{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				return res, tl
			}
			want, wantTL := run(1)
			if want.CompletedFlows == 0 {
				t.Fatal("oracle run completed no flows")
			}
			for _, s := range shardCounts[1:] {
				got, gotTL := run(s)
				if got != want {
					t.Errorf("shards=%d result %+v\n  != shards=1 %+v", s, got, want)
				}
				if wantTL != nil {
					compareTimelines(t, s, gotTL, wantTL)
				}
			}
		})
	}
}

// compareTimelines asserts two fault timelines are identical epoch for epoch.
func compareTimelines(t *testing.T, shards int, got, want *Timeline) {
	t.Helper()
	if len(got.Epochs) != len(want.Epochs) {
		t.Errorf("shards=%d: %d epochs, want %d", shards, len(got.Epochs), len(want.Epochs))
		return
	}
	for i := range want.Epochs {
		if got.Epochs[i] != want.Epochs[i] {
			t.Errorf("shards=%d epoch %d: %+v\n  != %+v", shards, i, got.Epochs[i], want.Epochs[i])
		}
	}
}

// TestShardWorkerInvariance is the concurrency property: the worker count —
// including every GOMAXPROCS the pool might see — must never leak into
// results. Runs the fault+multipath transport (the hardest path) across
// worker counts at a fixed shard count and across GOMAXPROCS values.
func TestShardWorkerInvariance(t *testing.T) {
	tp := faultTopo(t)
	flows := faultFlows(t, tp, 31, 128<<10)
	plan, err := failure.Burst(tp.Network(), failure.Switches,
		len(tp.Network().Switches())/4, 1e-4, 2e-3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) TransportResult {
		cfg := DefaultTransport()
		cfg.Faults = plan
		cfg.Multipath = true
		res, err := RunTransportSharded(tp, flows, cfg, ShardOpts{Shards: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, w := range []int{2, 3, 4, 8} {
		if got := run(w); got != want {
			t.Errorf("workers=%d result %+v\n  != workers=1 %+v", w, got, want)
		}
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	if got := run(0); got != want {
		t.Errorf("GOMAXPROCS=2 result %+v\n  != baseline %+v", got, want)
	}
}

// TestShardedMatchesSerialExactlyWithoutTies pins the strongest serial
// equivalence available for the transport engines: with a single flow there
// are no same-time ties and no reroutes, so the sharded engine's
// content-derived keys pop in exactly the serial order and the results must
// be bit-identical. (The datagram Run is RunSharded at one shard, so
// TestShardEquivalenceMatrix and TestRunMatchesReferenceEngine cover it.)
func TestShardedMatchesSerialExactlyWithoutTies(t *testing.T) {
	tp := faultTopo(t)
	n := tp.Network().NumServers()
	flows := []traffic.Flow{{Src: 0, Dst: n / 2, Bytes: 256 << 10}}

	tserial, err := RunTransport(tp, flows, DefaultTransport())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shardCounts {
		tsharded, err := RunTransportSharded(tp, flows, DefaultTransport(), ShardOpts{Shards: s})
		if err != nil {
			t.Fatal(err)
		}
		if tsharded != tserial {
			t.Errorf("transport shards=%d %+v != serial %+v", s, tsharded, tserial)
		}
	}
}

// TestShardInstruments verifies the sharded-engine gauges actually move: a
// multi-shard run must record windows, and a workload that crosses the cut
// must record handoffs with a consistent batch histogram.
func TestShardInstruments(t *testing.T) {
	tp := faultTopo(t)
	flows := faultFlows(t, tp, 17, 16<<10)
	cfg := Default()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	if _, err := RunSharded(tp, flows, cfg, ShardOpts{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if reg.Counter(MetricShardWindows).Value() == 0 {
		t.Error("no synchronization windows recorded")
	}
	handoffs := reg.Counter(MetricShardHandoffs).Value()
	if handoffs == 0 {
		t.Error("a shuffle workload crossed no shard boundary")
	}
	batch := reg.Histogram(MetricShardHandoffBatch).Snapshot()
	if batch.Sum != handoffs {
		t.Errorf("handoff batch histogram sums to %d, counter says %d", batch.Sum, handoffs)
	}
	if reg.Histogram(MetricShardWindowEvents).Snapshot().Count == 0 {
		t.Error("no per-window event counts observed")
	}
}

// TestMergedLatenciesMatchSerialQuantiles is the per-shard metrics-merge
// regression: however a latency sample set is split across shards, the
// merged mean and p99 must equal the serial engine's single-slice
// quantile()/mean computation on the same samples.
func TestMergedLatenciesMatchSerialQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 7, 100, 1001} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 1e-4
		}
		// Serial reference: the engines' own aggregation on one slice.
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		sum := 0.0
		for _, v := range sorted {
			sum += v
		}
		wantAvg := sum / float64(n)
		wantP99 := quantile(append([]float64(nil), xs...), 0.99)

		for _, k := range []int{1, 2, 4, 7} {
			parts := make([][]float64, k)
			for i, v := range xs {
				s := rng.Intn(k)
				_ = i
				parts[s] = append(parts[s], v)
			}
			avg, p99 := mergeLatencies(parts)
			if avg != wantAvg {
				t.Errorf("n=%d k=%d merged avg %g != serial %g", n, k, avg, wantAvg)
			}
			if p99 != wantP99 {
				t.Errorf("n=%d k=%d merged p99 %g != serial %g", n, k, p99, wantP99)
			}
		}
	}
	if avg, p99 := mergeLatencies(nil); avg != 0 || p99 != 0 {
		t.Errorf("empty merge = (%g, %g), want zeros", avg, p99)
	}
}

// TestShardedTransportConservation checks the packet-conservation ledger on
// a sharded fault+multipath run: every data and ACK journey launched must be
// accounted for by an arrival or a counted drop.
func TestShardedTransportConservation(t *testing.T) {
	tp := faultTopo(t)
	flows := faultFlows(t, tp, 29, 128<<10)
	plan, err := failure.Burst(tp.Network(), failure.Switches,
		len(tp.Network().Switches())/4, 1e-4, 2e-3, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTransport()
	cfg.Faults = plan
	cfg.Multipath = true
	reg := obs.NewRegistry()
	cfg.Link.Metrics = reg
	if _, err := RunTransportSharded(tp, flows, cfg, ShardOpts{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	sent := reg.Counter(MetricDataSent).Value() + reg.Counter(MetricAckSent).Value()
	arrived := reg.Counter(MetricDataArrived).Value() + reg.Counter(MetricAckArrived).Value()
	dropped := reg.Counter(MetricTransportDrops).Value() +
		reg.Counter(MetricTransportFaultDrops).Value() +
		reg.Counter(MetricTransportStaleDrops).Value()
	if sent != arrived+dropped {
		t.Errorf("conservation: sent %d != arrived %d + dropped %d", sent, arrived, dropped)
	}
	if reg.Counter(MetricTransportStaleDrops).Value() != 0 {
		t.Error("sharded engine recorded stale drops; it must not have a stale path")
	}
}
