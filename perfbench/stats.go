package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced metrics, reported for every workload. The
// share of failed runs is not among them: it is the result line's
// failed/attempted pair, and it must be 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"run_serial_s", "s"},
	{"work_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced metrics. A workload that never calls a layer
// reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"core.build_s", "s"},
	{"core.route_ns", "ns"},
	{"traffic.gen_s", "s"},
	{"failure.plan_s", "s"},
	{"failure.plan_events", "count"},
	{"packetsim.ns_per_pkt", "ns"},
	{"packetsim.shard1_s", "s"},
	{"packetsim.events", "count"},
	{"packetsim.ns_per_event", "ns"},
	{"packetsim.windows", "count"},
	{"packetsim.handoffs", "count"},
	{"packetsim.busy_s", "s"},
	{"packetsim.wait_s", "s"},
	{"packetsim.imbalance", "ratio"},
	{"packetsim.allocs", "count"},
	{"eventq.cpu_frac", "fraction"},
	{"emu.boot_s", "s"},
	{"emu.messages", "count"},
	{"emu.rounds", "count"},
	{"emu.ns_per_round", "ns"},
	{"emu.handoffs", "count"},
	{"emu.backpressure_retries", "count"},
	{"emu.completed", "count"},
	{"emu.timed_out", "count"},
	{"svc.analyze_s", "s"},
	{"svc.legs", "count"},
	{"svc.leg_yield", "fraction"},
	{"svc.retries", "count"},
	{"svc.wasted", "count"},
	{"svc.ns_per_leg", "ns"},
	{"svc.flows", "count"},
	{"svc.retransmits", "count"},
	{"svc.reroutes", "count"},
	{"svc.dropped_fault", "count"},
	{"surv.events", "count"},
	{"surv.ns_per_event", "ns"},
	{"graph.dynconn_s", "s"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"obs.overhead_frac", "fraction"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds a metrics map holding every name in defs, taking values from
// vals; names vals lacks read 0. A value under a name defs lacks is a bug.
func fill(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("perfbench: metric %q is not in the metric table", name)
		}
	}
	return out, nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spreads printed here match ones computed in Python from the result
// lines. With fewer than two values both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's integer arithmetic: position i*(n+1)/4 (1-based), its
		// index clamped to [1, n-1], so small samples extrapolate.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// spread summarizes one timed quantity over a run's repeats.
type spread struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func spreadOf(xs []float64) spread {
	q1, q3 := quartiles(xs)
	return spread{N: len(xs), Q1: q1, Median: median(xs), Q3: q3}
}
