package svc

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/packetsim"
)

func abccc(t *testing.T) *core.ABCCC {
	t.Helper()
	return core.MustBuild(core.Config{N: 4, K: 1, P: 2}) // 32 servers, 24 switches
}

// checkConservation asserts the invariants every run must satisfy regardless
// of policy, faults, or deadlines: requests and legs each end exactly once,
// and the call counts match the graph's fan-out structure.
func checkConservation(t *testing.T, g *Graph, res *Result) {
	t.Helper()
	if got := res.Completed + res.DeadlineExceeded + res.Aborted; got != res.Requests {
		t.Errorf("request conservation: %d completed + %d deadline + %d aborted = %d, want %d requests",
			res.Completed, res.DeadlineExceeded, res.Aborted, got, res.Requests)
	}
	if got := res.LegsSucceeded + res.LegsTimedOut + res.LegsCancelled; got != res.LegsStarted {
		t.Errorf("leg conservation: %d ok + %d timeout + %d cancelled = %d, want %d started",
			res.LegsSucceeded, res.LegsTimedOut, res.LegsCancelled, got, res.LegsStarted)
	}
	idx := g.index()
	attempts := 0
	for e, c := range g.Calls {
		es := res.Edges[e]
		issued := res.Services[idx[c.From]].Issued
		if es.Calls != issued*c.Fanout {
			t.Errorf("edge %s->%s: %d calls, want %d issued(%s) * %d fanout = %d",
				c.From, c.To, es.Calls, issued, c.From, c.Fanout, issued*c.Fanout)
		}
		if got := es.Successes + es.Timeouts + es.Cancelled; got != es.Attempts {
			t.Errorf("edge %s->%s: attempt conservation %d, want %d", c.From, c.To, got, es.Attempts)
		}
		attempts += es.Attempts
	}
	if attempts != res.LegsStarted {
		t.Errorf("edge attempts sum to %d, want LegsStarted %d", attempts, res.LegsStarted)
	}
}

// checkAnalyzerBound asserts that the static analyzer's per-request attempt
// bound dominates the measured worst request — the acceptance criterion F30
// also pins in every sweep cell.
func checkAnalyzerBound(t *testing.T, g *Graph, cfg Config, res *Result) {
	t.Helper()
	var rep *Report
	var err error
	if cfg.Policy == PolicyNone {
		rep, err = AnalyzeUnbudgeted(g, cfg.DeadlineSec)
	} else {
		rep, err = Analyze(g)
	}
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.MaxRequestLegs) > rep.TotalAttemptsBound {
		t.Errorf("policy %v: worst request issued %d legs, analyzer bound is %d",
			cfg.Policy, res.MaxRequestLegs, rep.TotalAttemptsBound)
	}
}

func TestRunHealthyAllPolicies(t *testing.T) {
	tp := abccc(t)
	g := ThreeTier()
	for _, pol := range []Policy{PolicyNone, PolicyFixed, PolicyThrottle, PolicyHedge} {
		cfg := Config{
			Policy: pol, DeadlineSec: 50e-3, RatePerSec: 2000, Requests: 100, Seed: 7,
			Transport: packetsim.DefaultTransport(),
		}
		res, err := Run(tp, g, cfg)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Requests != 100 || res.Completed != 100 {
			t.Errorf("%v: %d/%d requests completed on a healthy network", pol, res.Completed, res.Requests)
		}
		// Each request: 2 midtier legs + 2*2 storage legs, no retries.
		if res.LegsStarted != 600 || res.Retries != 0 || res.LegsTimedOut != 0 {
			t.Errorf("%v: legs=%d retries=%d timeouts=%d, want 600/0/0",
				pol, res.LegsStarted, res.Retries, res.LegsTimedOut)
		}
		if res.MaxRequestLegs != 6 {
			t.Errorf("%v: MaxRequestLegs = %d, want 6", pol, res.MaxRequestLegs)
		}
		if res.MeanLatencySec <= 0 || res.P99LatencySec < res.MeanLatencySec {
			t.Errorf("%v: implausible latency stats mean=%g p99=%g", pol, res.MeanLatencySec, res.P99LatencySec)
		}
		if res.GoodputRps != res.OfferedRps {
			t.Errorf("%v: goodput %g != offered %g with zero losses", pol, res.GoodputRps, res.OfferedRps)
		}
		checkConservation(t, g, res)
		checkAnalyzerBound(t, g, cfg, res)
	}
}

func TestRunDeterministic(t *testing.T) {
	tp := abccc(t)
	g := ThreeTier()
	net := tp.Network()
	plan, err := failure.Downs(net, failure.Switches, 0.1, 10e-3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Policy: PolicyThrottle, DeadlineSec: 40e-3, RatePerSec: 4000, Requests: 150, Seed: 11,
		Transport: packetsim.DefaultTransport(),
	}
	cfg.Transport.Faults = plan
	run := func() *Result {
		res, err := Run(tp, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same (topology, graph, config, seed) produced different results:\n%+v\n%+v", a, b)
	}
}

func TestRunUnderFaultsAllPolicies(t *testing.T) {
	tp := abccc(t)
	net := tp.Network()
	for _, g := range []*Graph{ThreeTier(), Chain(), Diamond()} {
		// Kill ~2 of 24 switches early so mid-run requests hit black holes.
		plan, err := failure.Downs(net, failure.Switches, 0.08, 5e-3, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []Policy{PolicyNone, PolicyFixed, PolicyThrottle, PolicyHedge} {
			cfg := Config{
				Policy: pol, DeadlineSec: 30e-3, RatePerSec: 4000, Requests: 120, Seed: 5,
				Transport: packetsim.DefaultTransport(),
			}
			cfg.Transport.Faults = plan
			res, err := Run(tp, g, cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Root, pol, err)
			}
			checkConservation(t, g, res)
			checkAnalyzerBound(t, g, cfg, res)
		}
	}
}

func TestRunRepairedBurst(t *testing.T) {
	tp := abccc(t)
	net := tp.Network()
	plan, err := failure.Burst(net, failure.Switches, 3, 5e-3, 15e-3, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	g := ThreeTier()
	cfg := Config{
		Policy: PolicyFixed, DeadlineSec: 40e-3, RatePerSec: 2000, Requests: 120, Seed: 2,
		Transport: packetsim.DefaultTransport(),
	}
	cfg.Transport.Faults = plan
	cfg.Transport.Multipath = true
	res, err := Run(tp, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, g, res)
	checkAnalyzerBound(t, g, cfg, res)
	// The burst repairs mid-run: late arrivals see a healthy network again,
	// so the run must not collapse outright.
	if res.Completed == 0 {
		t.Error("no requests completed despite mid-run repair")
	}
}

func TestRunTinyDeadline(t *testing.T) {
	// A deadline far below one network round trip: nothing can complete, but
	// every request must still terminate and conserve.
	tp := abccc(t)
	g := ThreeTier()
	for _, pol := range []Policy{PolicyNone, PolicyFixed} {
		cfg := Config{
			Policy: pol, DeadlineSec: 20e-6, RatePerSec: 2000, Requests: 50, Seed: 1,
			Transport: packetsim.DefaultTransport(),
		}
		res, err := Run(tp, g, cfg)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Completed != 0 {
			t.Errorf("%v: %d requests beat a 20us deadline", pol, res.Completed)
		}
		checkConservation(t, g, res)
		checkAnalyzerBound(t, g, cfg, res)
	}
}

func TestRunLocalCalls(t *testing.T) {
	// On a 2-server network the 28 replicas wrap heavily, so many calls are
	// server-local (src == dst flows) — they must complete like remote ones.
	tp := core.MustBuild(core.Config{N: 2, K: 0, P: 2})
	g := ThreeTier()
	cfg := Config{
		Policy: PolicyFixed, DeadlineSec: 100e-3, RatePerSec: 500, Requests: 40, Seed: 3,
		Transport: packetsim.DefaultTransport(),
	}
	res, err := Run(tp, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Requests {
		t.Errorf("completed %d/%d on a healthy 2-server network", res.Completed, res.Requests)
	}
	checkConservation(t, g, res)
}

func TestRunMetricsAndSeries(t *testing.T) {
	tp := abccc(t)
	g := ThreeTier()
	m := obs.NewRegistry()
	s := obs.NewSeries(obs.DefaultSeriesWindowNs)
	cfg := Config{
		Policy: PolicyFixed, DeadlineSec: 50e-3, RatePerSec: 2000, Requests: 80, Seed: 7,
		Transport: packetsim.DefaultTransport(),
		Metrics:   m, Series: s,
	}
	res, err := Run(tp, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter(MetricRequests).Value(); got != int64(res.Requests) {
		t.Errorf("%s = %d, want %d", MetricRequests, got, res.Requests)
	}
	if got := m.Counter(MetricCompleted).Value(); got != int64(res.Completed) {
		t.Errorf("%s = %d, want %d", MetricCompleted, got, res.Completed)
	}
	if got := m.Counter(ServiceMetric("ok", "storage")).Value(); got != int64(res.Edges[1].Successes) {
		t.Errorf("storage ok counter = %d, want %d", got, res.Edges[1].Successes)
	}
	names := map[string]bool{}
	for _, pt := range s.Points() {
		names[pt.Track] = true
	}
	for _, want := range []string{SeriesOffered, SeriesCompleted, ServiceMetric("ok", "midtier")} {
		if !names[want] {
			t.Errorf("series missing track %q (have %v)", want, names)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 2, K: 0, P: 2})
	g := ThreeTier()
	base := Config{
		Policy: PolicyFixed, DeadlineSec: 50e-3, RatePerSec: 1000, Requests: 10,
		Transport: packetsim.DefaultTransport(),
	}
	mutations := map[string]func(*Config){
		"zero deadline": func(c *Config) { c.DeadlineSec = 0 },
		"zero rate":     func(c *Config) { c.RatePerSec = 0 },
		"zero requests": func(c *Config) { c.Requests = 0 },
		"bad policy":    func(c *Config) { c.Policy = Policy(99) },
		"caller hook":   func(c *Config) { c.Transport.OnFlowDone = func(int, float64, bool) {} },
		"negative knob": func(c *Config) { c.BackoffBaseFrac = -1 },
		"bad transport": func(c *Config) { c.Transport.RTOSec = -1 },
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, err := Run(tp, g, cfg); err == nil {
			t.Errorf("%s: Run accepted the config", name)
		}
	}
	bad := validChain()
	bad.Calls[0].TimeoutSec = -1
	if _, err := Run(tp, bad, base); err == nil {
		t.Error("Run accepted an invalid graph")
	}
}

// BenchmarkRunRetryStorm times one F30-style retry-storm cell end to end: the
// 3-tier graph on ABCCC(4,1,2) with unbudgeted retries, 800 requests at 4000
// req/s under a 60 ms deadline, and 4% of the switches down from 2 ms. Nearly
// all of its time is the transport engine draining short flows, their
// retransmission timers and the runtime's wakes.
func BenchmarkRunRetryStorm(b *testing.B) {
	tp := core.MustBuild(core.Config{N: 4, K: 1, P: 2})
	plan, err := failure.Downs(tp.Network(), failure.Switches, 0.04, 2e-3, rand.New(rand.NewSource(30)))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Policy:      PolicyNone,
		DeadlineSec: 60e-3,
		RatePerSec:  4000,
		Requests:    800,
		Seed:        30,
		Transport:   packetsim.DefaultTransport(),
	}
	cfg.Transport.Faults = plan
	g := ThreeTier()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tp, g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
