package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/packetsim"
	"repro/internal/surv"
	"repro/internal/svc"
)

// Smoke-scale versions of the four workloads: the same generators, checks
// and paths on ABCCC(4,1,2), 32 servers.
var smokeTopo = core.Config{N: 4, K: 1, P: 2}

func smokeWorkloads() []workload {
	return []workload{
		permutationWorkload("perm-smoke", permParams{Topo: smokeTopo, FlowBytes: 4096}),
		servingWorkload("emu-smoke", servingParams{Topo: smokeTopo, Requests: 64, Fanout: 2, RetryBudget: 1}),
		stormWorkload("svc-smoke", stormParams{Topo: smokeTopo, TargetLegs: 500, MaxCells: 8, DeadlineSec: 60e-3,
			RatePerSec: 4000, Requests: 40, OutageFrac: 0.08, OutageAtSec: 2e-3}),
		churnWorkload("surv-smoke", churnParams{Topo: smokeTopo, HorizonDays: 365, Trials: 2,
			SwitchMTBFDays: 2 * 365, SwitchMTTRHours: 24, LinkMTBFDays: 4 * 365, LinkMTTRHours: 4}),
	}
}

func TestMedianQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{0.5, 0.9, 0.7, 0.6}, 0.525, 0.65, 0.85},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		med := median(c.xs)
		const eps = 1e-12
		if abs(q1-c.q1) > eps || abs(med-c.med) > eps || abs(q3-c.q3) > eps {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if median(nil) != 0 {
		t.Errorf("median of nothing = %v, want 0", median(nil))
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestGenerationDeterministicPerSeed(t *testing.T) {
	if a, b := permutationFlows(64, 4096, 1), permutationFlows(64, 4096, 1); !reflect.DeepEqual(a, b) {
		t.Error("permutation flows differ for one seed")
	}
	if reflect.DeepEqual(permutationFlows(64, 4096, 1), permutationFlows(64, 4096, 2)) {
		t.Error("permutation flows do not change with the seed")
	}
	sp := servingParams{Requests: 8, Fanout: 2}
	if servingLoad(sp, 1) != servingLoad(sp, 1) || servingLoad(sp, 1) == servingLoad(sp, 2) {
		t.Error("serving load is not a function of the seed")
	}

	net := core.MustBuild(smokeTopo).Network()
	storm := stormParams{MaxCells: 3, Requests: 8, OutageFrac: 0.08, OutageAtSec: 1e-3}
	a, err := stormCells(net, storm, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := stormCells(net, storm, 1)
	c, _ := stormCells(net, storm, 2)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("storm cells are not a function of the seed")
	}

	churn := churnParams{HorizonDays: 365, Trials: 2, SwitchMTBFDays: 730, SwitchMTTRHours: 24, LinkMTBFDays: 1460, LinkMTTRHours: 4}
	p1, err := churnPlans(net, churn.trialConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	p1b, _ := churnPlans(net, churn.trialConfig(1, 1))
	p2, _ := churnPlans(net, churn.trialConfig(2, 1))
	if !reflect.DeepEqual(p1, p1b) || reflect.DeepEqual(p1, p2) {
		t.Error("churn plans are not a function of the seed")
	}
}

// TestResultsDeterministicPerSeed runs every smoke workload twice per seed:
// one seed repeats its result digest, another seed changes it.
func TestResultsDeterministicPerSeed(t *testing.T) {
	for _, w := range smokeWorkloads() {
		digests := map[int64]string{}
		for _, seed := range []int64{1, 1, 5} {
			inst, err := w.setup(seed, nil, map[string]float64{})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			o, err := inst.run(serial, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if d, ok := digests[seed]; ok && d != o.digest {
				t.Errorf("%s seed %d: digest %s then %s", w.name, seed, d, o.digest)
			}
			digests[seed] = o.digest
		}
		if digests[1] == digests[5] {
			t.Errorf("%s: seeds 1 and 5 give the same result %s", w.name, digests[1])
		}
	}
}

func TestChecksRejectCorruptedResults(t *testing.T) {
	topo := core.MustBuild(smokeTopo)

	flows := permutationFlows(topo.Network().NumServers(), 4096, 1)
	pr, err := packetsim.Run(topo, flows, packetsim.Default())
	if err != nil {
		t.Fatal(err)
	}
	offered := 3 * len(flows) // 4096 B in 1500 B packets
	if err := checkPackets(offered, pr); err != nil {
		t.Fatalf("true packet result rejected: %v", err)
	}
	pr.Delivered--
	if checkPackets(offered, pr) == nil {
		t.Error("packet check accepted a lost packet")
	}

	w := servingLoad(servingParams{Requests: 64, Fanout: 2, RetryBudget: 1}, 1)
	st, err := emu.RunWorkload(topo, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServing(64, st); err != nil {
		t.Fatalf("true serving result rejected: %v", err)
	}
	unbalanced := st
	unbalanced.Delivered++
	if checkServing(64, unbalanced) == nil {
		t.Error("serving check accepted Stats whose counts do not balance")
	}
	lost := st
	lost.Completed--
	if checkServing(64, lost) == nil {
		t.Error("serving check accepted a request neither completed nor timed out")
	}

	g := svc.ThreeTier()
	rep, err := svc.AnalyzeUnbudgeted(g, 60e-3)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := svc.Run(topo, g, svc.Config{DeadlineSec: 60e-3, RatePerSec: 4000, Requests: 40, Seed: 1,
		Transport: packetsim.DefaultTransport()})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkService(40, rep.TotalAttemptsBound, sr); err != nil {
		t.Fatalf("true service result rejected: %v", err)
	}
	dropped := *sr
	dropped.Completed--
	if checkService(40, rep.TotalAttemptsBound, &dropped) == nil {
		t.Error("service check accepted a request with no outcome")
	}
	over := *sr
	over.MaxRequestLegs = int(rep.TotalAttemptsBound) + 1
	if checkService(40, rep.TotalAttemptsBound, &over) == nil {
		t.Error("service check accepted legs past the analyzer bound")
	}

	churn := churnParams{HorizonDays: 365, Trials: 2, SwitchMTBFDays: 730, SwitchMTTRHours: 24, LinkMTBFDays: 1460, LinkMTTRHours: 4}
	cfg := churn.trialConfig(1, 1)
	plans, err := churnPlans(topo.Network(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for _, p := range plans {
		for _, e := range p.Events {
			if e.TimeSec < cfg.HorizonSec {
				events++
			}
		}
	}
	ss, err := surv.RunTrials(topo.Network(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLifetimes(events, ss); err != nil {
		t.Fatalf("true lifetime result rejected: %v", err)
	}
	ss.Trials[0].Events++
	if checkLifetimes(events, ss) == nil {
		t.Error("lifetime check accepted an extra replayed event")
	}

	if checkSame("x", outcome{digest: "a"}, outcome{digest: "b"}) == nil {
		t.Error("checkSame accepted different digests")
	}
}

// TestSmokeInvocations runs each smoke workload in both modes on two
// seeds: every check passes and each mode reports exactly its metric
// names.
func TestSmokeInvocations(t *testing.T) {
	for _, w := range smokeWorkloads() {
		for _, seed := range []int64{1, 2} {
			b := &bench{w: w, seed: seed, budget: time.Millisecond, log: io.Discard, errs: &testWriter{t}}
			res, err := b.untraced()
			if err != nil {
				t.Fatalf("%s seed %d untraced: %v", w.name, seed, err)
			}
			checkResult(t, w.name, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
				}
			}

			out := t.TempDir()
			b = &bench{w: w, seed: seed, budget: time.Millisecond, log: io.Discard, errs: &testWriter{t}}
			res, err = b.traced(out)
			if err != nil {
				t.Fatalf("%s seed %d traced: %v", w.name, seed, err)
			}
			checkResult(t, w.name, res, perLayer)
			checkRecord(t, filepath.Join(out, w.name+"-seed"+strconv.FormatInt(seed, 10)+".jsonl"))
		}
	}
}

func checkResult(t *testing.T, name string, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct %v, failed %d of %d", name, res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, d.name, m, d.unit)
		}
	}
}

// checkRecord reads a traced run's record as cmd/obsreport does and checks
// that every span opened is closed.
func checkRecord(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := obs.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.HasMeta || rec.Meta.Engine != "perfbench" || rec.Unknown != 0 {
		t.Errorf("%s: meta %+v (present %v), %d unknown lines", path, rec.Meta, rec.HasMeta, rec.Unknown)
	}
	open := map[int64]string{}
	names := map[string]bool{}
	for _, ev := range rec.Events {
		switch ev.Kind {
		case eventSpanBegin:
			open[ev.ID] = ev.Detail
			names[ev.Detail] = true
		case eventSpanEnd:
			if open[ev.ID] != ev.Detail {
				t.Errorf("%s: span %d ends as %q, began as %q", path, ev.ID, ev.Detail, open[ev.ID])
			}
			delete(open, ev.ID)
		}
	}
	if len(open) != 0 || !names["core.Build"] || !names["core.Route"] {
		t.Errorf("%s: unclosed spans %v; span names %v", path, open, names)
	}
}

type testWriter struct{ t *testing.T }

func (w *testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "svc-storm", "-trace", "2"},
		{"-workload", "svc-storm", "-seconds", "0"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
