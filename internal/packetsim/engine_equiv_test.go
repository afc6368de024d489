package packetsim

import (
	"math/rand"
	"testing"

	"repro/internal/bcube"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fattree"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The overhauled engines (eventq 4-ary heap, compiled routes, lazy
// injection) are keyed so their pop sequence matches the pre-overhaul
// engines event for event; every float operation then happens in the same
// order and the results must be bit-identical, not merely close. These
// tests pin exactly that across the workload shapes the experiments run.

// equivCases builds (topology, workload) pairs covering every experiment
// shape: synchronized starts, staggered Poisson arrivals, overload with
// drops, fan-in, heavy shuffle, size-distribution sampling, local flows,
// and empty workloads.
func equivCases(t testing.TB) []struct {
	name  string
	topo  topology.Topology
	flows []traffic.Flow
} {
	t.Helper()
	abccc := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	abccc4 := core.MustBuild(core.Config{N: 4, K: 1, P: 3})
	bc := bcube.MustBuild(bcube.Config{N: 4, K: 1})
	ft := fattree.MustBuild(fattree.Config{K: 4})

	var cases []struct {
		name  string
		topo  topology.Topology
		flows []traffic.Flow
	}
	add := func(name string, topo topology.Topology, flows []traffic.Flow) {
		cases = append(cases, struct {
			name  string
			topo  topology.Topology
			flows []traffic.Flow
		}{name, topo, flows})
	}

	for _, tp := range []struct {
		name string
		topo topology.Topology
	}{{"abccc", abccc}, {"abccc4", abccc4}, {"bcube", bc}, {"fattree", ft}} {
		n := tp.topo.Network().NumServers()
		rng := rand.New(rand.NewSource(11))
		add(tp.name+"/uniform", tp.topo, sized(traffic.Uniform(n, n, rng), 64<<10))
		shuffle, err := traffic.Shuffle(n, n/4, n/4, rng)
		if err != nil {
			t.Fatal(err)
		}
		add(tp.name+"/shuffle", tp.topo, sized(shuffle, 128<<10))
		incast, err := traffic.Incast(n, 0, n/2, rng)
		if err != nil {
			t.Fatal(err)
		}
		add(tp.name+"/incast", tp.topo, sized(incast, 96<<10))
		poisson, err := traffic.Poisson(n, 200*float64(n), 0.002, rng)
		if err != nil {
			t.Fatal(err)
		}
		add(tp.name+"/poisson", tp.topo, sized(poisson, 32<<10))
		add(tp.name+"/websearch", tp.topo,
			traffic.ApplySizes(traffic.Uniform(n, n/2, rng), traffic.WebSearch(), rng))
	}
	// Degenerate shapes on one structure.
	add("abccc/self-flows", abccc, []traffic.Flow{
		{Src: 0, Dst: 0, Bytes: 4500}, {Src: 1, Dst: 5, Bytes: 4500}, {Src: 3, Dst: 3, Bytes: 1500},
	})
	add("abccc/empty", abccc, nil)
	add("abccc/single-packet", abccc, []traffic.Flow{{Src: 0, Dst: 7, Bytes: 1}})
	return cases
}

// sized sets every flow's byte count (the generators default to 1 MB, too
// slow to sweep across this many cases).
func sized(flows []traffic.Flow, bytes int64) []traffic.Flow {
	for i := range flows {
		flows[i].Bytes = bytes
	}
	return flows
}

func TestRunMatchesReferenceEngine(t *testing.T) {
	cfgs := map[string]func() Config{
		"default": Default,
		"overload": func() Config {
			c := Default()
			c.QueueLimitPackets = 4 // force drop-path divergence opportunities
			return c
		},
		"slow-injection": func() Config {
			c := Default()
			c.FlowRateBps = c.LinkBandwidthBps / 7
			return c
		},
		// An armed but empty fault plan must not perturb a single float op:
		// the fault machinery only acts when events actually fire.
		"empty-faults": func() Config {
			c := Default()
			c.Faults = &failure.FaultPlan{}
			return c
		},
	}
	for cname, mk := range cfgs {
		for _, tc := range equivCases(t) {
			t.Run(cname+"/"+tc.name, func(t *testing.T) {
				got, err := Run(tc.topo, tc.flows, mk())
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceRun(tc.topo, tc.flows, mk())
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("engine diverged from reference:\n new %+v\n old %+v", got, want)
				}
				got, err = RunSharded(tc.topo, tc.flows, mk(), ShardOpts{Shards: 3})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("3-shard engine diverged from reference:\n new %+v\n old %+v", got, want)
				}
			})
		}
	}
}

func TestRunTransportMatchesReferenceEngine(t *testing.T) {
	cfgs := map[string]func() TransportConfig{
		"default": DefaultTransport,
		"ecn": func() TransportConfig {
			c := DefaultTransport()
			c.ECN = true
			return c
		},
		"lossy": func() TransportConfig {
			c := DefaultTransport()
			c.Link.QueueLimitPackets = 4 // exercise retransmission paths
			return c
		},
		// Armed-but-empty plan: the fault views and the timeout counter are
		// live, but with no fault events they must change nothing.
		"empty-faults": func() TransportConfig {
			c := DefaultTransport()
			c.Faults = &failure.FaultPlan{}
			return c
		},
		// Multipath without a fault plan: the layer never arms and must be
		// invisible.
		"multipath-no-faults": func() TransportConfig {
			c := DefaultTransport()
			c.Multipath = true
			c.MultipathPaths = 3
			return c
		},
		// Multipath armed (scoreboards compiled, probes and failover hooks
		// live) over an empty plan: nothing ever dies, so no scoreboard
		// action may fire and every float op must match the single-path
		// reference.
		"multipath-empty-faults": func() TransportConfig {
			c := DefaultTransport()
			c.Multipath = true
			c.Faults = &failure.FaultPlan{}
			return c
		},
	}
	for cname, mk := range cfgs {
		for _, tc := range equivCases(t) {
			t.Run(cname+"/"+tc.name, func(t *testing.T) {
				got, err := RunTransport(tc.topo, tc.flows, mk())
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceRunTransport(tc.topo, tc.flows, mk())
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("transport engine diverged from reference:\n new %+v\n old %+v", got, want)
				}
				got, err = RunTransportSharded(tc.topo, tc.flows, mk(), ShardOpts{Shards: 3})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("3-shard transport diverged from reference:\n new %+v\n old %+v", got, want)
				}
			})
		}
	}
}

// TestRouteCacheReuseAcrossLoadPoints drives the sweep shape the cache
// exists for — same topology and flows slice, Bytes mutated between runs —
// and checks results still match a cold-cache reference run.
func TestRouteCacheReuseAcrossLoadPoints(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	n := tp.Network().NumServers()
	flows := traffic.Uniform(n, n, rand.New(rand.NewSource(3)))
	for _, bytes := range []int64{16 << 10, 64 << 10, 256 << 10} {
		sized(flows, bytes)
		got, err := Run(tp, flows, Default())
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceRun(tp, flows, Default())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("bytes=%d: cached-route run diverged:\n new %+v\n old %+v", bytes, got, want)
		}
	}
}

// TestRouteCacheRecompilesOnEndpointChange rewrites Src/Dst in place in the
// same backing array — the cache must notice and recompile, not alias the
// stale plan.
func TestRouteCacheRecompilesOnEndpointChange(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	flows := []traffic.Flow{{Src: 0, Dst: 5, Bytes: 15000}}
	first, err := Run(tp, flows, Default())
	if err != nil {
		t.Fatal(err)
	}
	flows[0].Dst = 9 // same slice identity, different route
	second, err := Run(tp, flows, Default())
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRun(tp, flows, Default())
	if err != nil {
		t.Fatal(err)
	}
	if second != want {
		t.Errorf("after endpoint rewrite:\n new %+v\n old %+v", second, want)
	}
	if first == second {
		t.Error("rerouted run produced the original route's result; stale plan served")
	}
}

func TestCompileRoutesRejectsBadEndpoints(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	if _, err := RunTransport(tp, []traffic.Flow{{Src: 0, Dst: 10_000}}, DefaultTransport()); err == nil {
		t.Error("out-of-range transport flow accepted")
	}
}

// benchWorkload is the shared heavy benchmark shape: a quarter-shuffle at
// full injection rate, enough traffic to queue and drop.
func benchWorkload(b *testing.B, scale int) (topology.Topology, []traffic.Flow) {
	b.Helper()
	tp := core.MustBuild(core.Config{N: scale, K: 1, P: 2})
	n := tp.Network().NumServers()
	rng := rand.New(rand.NewSource(13))
	flows, err := traffic.Shuffle(n, n/4, n/4, rng)
	if err != nil {
		b.Fatal(err)
	}
	return tp, sized(flows, 256<<10)
}

func benchEngine(b *testing.B, run func(topology.Topology, []traffic.Flow, Config) (Result, error)) {
	tp, flows := benchWorkload(b, 4)
	cfg := Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(tp, flows, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunShuffle(b *testing.B)          { benchEngine(b, Run) }
func BenchmarkRunShuffleReference(b *testing.B) { benchEngine(b, referenceRun) }

func benchTransport(b *testing.B, run func(topology.Topology, []traffic.Flow, TransportConfig) (TransportResult, error)) {
	tp, flows := benchWorkload(b, 3)
	cfg := DefaultTransport()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(tp, flows, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportShuffleEngine(b *testing.B)    { benchTransport(b, RunTransport) }
func BenchmarkTransportShuffleReference(b *testing.B) { benchTransport(b, referenceRunTransport) }

// BenchmarkRunAllToAll exercises the lazy-injection win directly: the eager
// engine materializes every packet of every flow up front, the lazy one
// keeps one pending event per flow.
func BenchmarkRunAllToAll(b *testing.B) {
	tp := core.MustBuild(core.Config{N: 4, K: 1, P: 2})
	flows := sized(traffic.AllToAll(tp.Network().NumServers()), 64<<10)
	cfg := Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tp, flows, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
