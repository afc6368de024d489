package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// workloadPaths routes a workload on a small ABCCC instance for the
// heap-vs-reference property tests.
func workloadPaths(t testing.TB, cfg core.Config, kind string, seed int64) (*topology.Network, []topology.Path) {
	t.Helper()
	tp := core.MustBuild(cfg)
	rng := rand.New(rand.NewSource(seed))
	n := tp.Network().NumServers()
	var flows []traffic.Flow
	switch kind {
	case "permutation":
		flows = traffic.Permutation(n, rng)
	case "uniform":
		flows = traffic.Uniform(n, n, rng)
	case "alltoall":
		flows = traffic.AllToAll(n)
	default:
		t.Fatalf("unknown workload %q", kind)
	}
	paths, err := RoutePaths(tp, flows)
	if err != nil {
		t.Fatal(err)
	}
	return tp.Network(), paths
}

// TestHeapMatchesReference is the equivalence property test of the tentpole
// rewrite: on random permutation and uniform workloads (and all-to-all), the
// heap-based active-set allocator must reproduce the reference progressive
// filling rates within 1e-9.
func TestHeapMatchesReference(t *testing.T) {
	const tol = 1e-9
	cfgs := []core.Config{
		{N: 3, K: 1, P: 2},
		{N: 4, K: 1, P: 3},
		{N: 4, K: 2, P: 2},
	}
	for _, cfg := range cfgs {
		for _, kind := range []string{"permutation", "uniform", "alltoall"} {
			for seed := int64(1); seed <= 5; seed++ {
				if kind == "alltoall" && seed > 1 {
					continue // deterministic workload: one seed is enough
				}
				name := fmt.Sprintf("%v/%s/seed%d", cfg, kind, seed)
				t.Run(name, func(t *testing.T) {
					net, paths := workloadPaths(t, cfg, kind, seed)
					for _, capacity := range []float64{1.0, 2.5} {
						got, err := MaxMinFairCapacity(net, paths, capacity)
						if err != nil {
							t.Fatal(err)
						}
						want, err := referenceMaxMinFairCapacity(net, paths, capacity)
						if err != nil {
							t.Fatal(err)
						}
						if got.Flows != want.Flows {
							t.Fatalf("Flows = %d, reference %d", got.Flows, want.Flows)
						}
						if len(got.Rates) != len(want.Rates) {
							t.Fatalf("len(Rates) = %d, reference %d", len(got.Rates), len(want.Rates))
						}
						for i := range got.Rates {
							if math.Abs(got.Rates[i]-want.Rates[i]) > tol {
								t.Errorf("cap %.1f rate[%d] = %.12f, reference %.12f",
									capacity, i, got.Rates[i], want.Rates[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestHeapMatchesReferenceSyntheticChains stresses the uneven-share cascades
// (many distinct freeze levels) that a single data-center permutation rarely
// produces: random flows over a long chain of switches.
func TestHeapMatchesReferenceSyntheticChains(t *testing.T) {
	const tol = 1e-9
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := topology.NewNetwork("chain")
		const hosts = 12
		nodes := make([]int, 0, 2*hosts-1)
		for i := 0; i < hosts; i++ {
			nodes = append(nodes, net.AddServer(fmt.Sprintf("s%d", i)))
			if i < hosts-1 {
				nodes = append(nodes, net.AddSwitch(fmt.Sprintf("sw%d", i)))
			}
		}
		for i := 1; i < len(nodes); i++ {
			if err := net.Connect(nodes[i-1], nodes[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Random sub-chain flows, including reverse direction and repeats.
		paths := make([]topology.Path, 30)
		for i := range paths {
			a, b := rng.Intn(len(nodes)), rng.Intn(len(nodes))
			if a == b {
				b = (b + 2) % len(nodes)
			}
			if a > b {
				a, b = b, a
			}
			p := make(topology.Path, 0, b-a+1)
			for v := a; v <= b; v++ {
				p = append(p, nodes[v])
			}
			if rng.Intn(2) == 0 { // reverse half the flows
				for l, r := 0, len(p)-1; l < r; l, r = l+1, r-1 {
					p[l], p[r] = p[r], p[l]
				}
			}
			paths[i] = p
		}
		got, err := MaxMinFairCapacity(net, paths, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceMaxMinFairCapacity(net, paths, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Rates {
			if math.Abs(got.Rates[i]-want.Rates[i]) > tol {
				t.Errorf("seed %d rate[%d] = %.12f, reference %.12f", seed, i, got.Rates[i], want.Rates[i])
			}
		}
	}
}

func benchPermutationPaths(b *testing.B, cfg core.Config) (*topology.Network, []topology.Path) {
	b.Helper()
	net, paths := workloadPaths(b, cfg, "permutation", 1)
	return net, paths
}

// BenchmarkMaxMinHeap / BenchmarkMaxMinReference give the before/after view
// of the tentpole rewrite at the benchmark configs quoted in the PR.
func BenchmarkMaxMinHeap192(b *testing.B) {
	net, paths := benchPermutationPaths(b, core.Config{N: 4, K: 2, P: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxMinFairCapacity(net, paths, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxMinReference192(b *testing.B) {
	net, paths := benchPermutationPaths(b, core.Config{N: 4, K: 2, P: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := referenceMaxMinFairCapacity(net, paths, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxMinHeap1024(b *testing.B) {
	net, paths := benchPermutationPaths(b, core.Config{N: 8, K: 2, P: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxMinFairCapacity(net, paths, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxMinReference1024(b *testing.B) {
	net, paths := benchPermutationPaths(b, core.Config{N: 8, K: 2, P: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := referenceMaxMinFairCapacity(net, paths, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceMaxMinFairCapacity is the original O(rounds·links) progressive
// filling loop: every round rescans all 2·E directed resources to find the
// next saturating link and drains all of them. It is kept as the executable
// specification that the production heap-based MaxMinFairCapacity is tested
// against (see maxminheap.go and the equivalence tests).
func referenceMaxMinFairCapacity(net *topology.Network, paths []topology.Path, capacity float64) (Assignment, error) {
	if capacity <= 0 {
		return Assignment{}, fmt.Errorf("flowsim: capacity %f must be positive", capacity)
	}
	g := net.Graph()
	// flowEdges[i] lists the directed link resources of flow i (resource
	// 2*edge+direction); active[r] counts unfrozen flows on resource r.
	flowEdges := make([][]int, len(paths))
	active := make([]int, 2*g.NumEdges())
	for i, p := range paths {
		if len(p) < 2 {
			continue // zero-length flow (src == dst): infinite local rate, skip
		}
		edges := make([]int, 0, len(p)-1)
		for j := 1; j < len(p); j++ {
			e := g.EdgeBetween(p[j-1], p[j])
			if e == -1 {
				return Assignment{}, fmt.Errorf("flowsim: path %d hops a non-edge %s-%s",
					i, net.Label(p[j-1]), net.Label(p[j]))
			}
			r := 2 * e
			if p[j-1] > p[j] {
				r++
			}
			edges = append(edges, r)
			active[r]++
		}
		flowEdges[i] = edges
	}

	remaining := make([]float64, 2*g.NumEdges())
	for e := range remaining {
		remaining[e] = capacity
	}
	rates := make([]float64, len(paths))
	frozen := make([]bool, len(paths))
	level := 0.0 // current fill level of unfrozen flows

	for {
		// The next saturating link bounds the uniform growth of all
		// unfrozen flows.
		bump := math.Inf(1)
		for e := range remaining {
			if active[e] == 0 {
				continue
			}
			if b := remaining[e] / float64(active[e]); b < bump {
				bump = b
			}
		}
		if math.IsInf(bump, 1) {
			break // no active links left: every remaining flow is local
		}
		level += bump
		// Drain the growth from every link carrying unfrozen flows.
		for e := range remaining {
			if active[e] > 0 {
				remaining[e] -= bump * float64(active[e])
			}
		}
		// Freeze flows crossing a saturated link.
		for i, edges := range flowEdges {
			if frozen[i] || len(edges) == 0 {
				continue
			}
			for _, e := range edges {
				if remaining[e] <= 1e-12 {
					frozen[i] = true
					rates[i] = level
					break
				}
			}
			if frozen[i] {
				for _, e := range edges {
					active[e]--
				}
			}
		}
	}
	// Flows that never met a saturated link (shouldn't happen with finite
	// capacity, but guard): give them the final level.
	count := 0
	for i := range rates {
		if len(flowEdges[i]) == 0 {
			continue
		}
		count++
		if !frozen[i] {
			rates[i] = level
		}
	}
	return Assignment{Rates: rates, Flows: count}, nil
}
