package packetsim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/traffic"
)

// doneRec is one captured OnFlowDone notification.
type doneRec struct {
	flow      int
	at        float64
	completed bool
}

// TestOnFlowDoneOrderMatchesCompletionSort is the regression test for the
// completion hook: callbacks must fire in completion-time order (stably, so
// ties keep event order), i.e. sorting the captured sequence by time must be
// a no-op, and every completed flow must be reported exactly once.
func TestOnFlowDoneOrderMatchesCompletionSort(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 4, K: 1, P: 2})
	n := tp.Network().NumServers()
	var flows []traffic.Flow
	for i := 0; i < n; i++ {
		// Staggered sizes and starts so completions interleave.
		flows = append(flows, traffic.Flow{
			Src: i, Dst: (i + n/2) % n,
			Bytes:    int64(64<<10 + 16<<10*(i%5)),
			StartSec: 1e-5 * float64(i%3),
		})
	}
	cfg := DefaultTransport()
	var got []doneRec
	cfg.OnFlowDone = func(flow int, atSec float64, completed bool) {
		got = append(got, doneRec{flow, atSec, completed})
	}
	res, err := RunTransport(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != res.CompletedFlows {
		t.Fatalf("hook fired %d times, result has %d completed flows", len(got), res.CompletedFlows)
	}
	sorted := append([]doneRec(nil), got...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("hook order diverges from completion-time sort at %d: got %+v, sorted %+v",
				i, got[i], sorted[i])
		}
	}
	seen := make(map[int]bool)
	for _, d := range got {
		if !d.completed {
			t.Errorf("fault-free run reported flow %d as not completed", d.flow)
		}
		if seen[d.flow] {
			t.Errorf("flow %d reported twice", d.flow)
		}
		seen[d.flow] = true
	}
	if last := got[len(got)-1].at; last != res.MakespanSec {
		t.Errorf("last hook at %g, makespan %g", last, res.MakespanSec)
	}
}

// TestOnFlowDoneReportsAborts pins completed=false for flows that give up
// after MaxFlowTimeouts: killing a destination server permanently must
// surface through the hook, not just the post-run FailedFlows tally.
func TestOnFlowDoneReportsAborts(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	net := tp.Network()
	flows := []traffic.Flow{
		{Src: 0, Dst: 5, Bytes: 64 << 10},
		{Src: 1, Dst: 8, Bytes: 64 << 10},
	}
	cfg := DefaultTransport()
	cfg.Faults = &failure.FaultPlan{Events: []failure.FaultEvent{
		{TimeSec: 1e-5, Kind: failure.Servers, Index: net.Servers()[5]},
	}}
	cfg.MaxFlowTimeouts = 5
	var got []doneRec
	cfg.OnFlowDone = func(flow int, atSec float64, completed bool) {
		got = append(got, doneRec{flow, atSec, completed})
	}
	res, err := RunTransport(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedFlows != 1 || res.CompletedFlows != 1 {
		t.Fatalf("want one failed and one completed flow, got %+v", res)
	}
	if len(got) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(got))
	}
	var aborts, completes int
	for _, d := range got {
		if d.completed {
			completes++
		} else {
			aborts++
			if d.flow != 0 {
				t.Errorf("abort reported for flow %d, want 0 (dead destination)", d.flow)
			}
		}
	}
	if aborts != 1 || completes != 1 {
		t.Errorf("got %d aborts and %d completes, want 1 and 1", aborts, completes)
	}
}

// TestEngineMatchesRunTransport: injecting the same workload up front into a
// TransportEngine must reproduce RunTransport bit-identically — the engine
// is the same event loop, only fed differently.
func TestEngineMatchesRunTransport(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	flows := []traffic.Flow{
		{Src: 0, Dst: 9, Bytes: 512 << 10},
		{Src: 3, Dst: 12, Bytes: 512 << 10},
		{Src: 7, Dst: 1, Bytes: 512 << 10, StartSec: 2e-4},
	}
	for _, faults := range []bool{false, true} {
		cfg := DefaultTransport()
		if faults {
			cfg.Faults = &failure.FaultPlan{Events: []failure.FaultEvent{
				{TimeSec: 5e-4, Kind: failure.Switches, Index: tp.Network().Switches()[0]},
			}}
			cfg.Multipath = true
		}
		want, err := RunTransport(tp, flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewTransportEngine(tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flows {
			if _, err := eng.InjectFlow(f.Src, f.Dst, f.Bytes, f.StartSec); err != nil {
				t.Fatal(err)
			}
		}
		got, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("faults=%v: engine diverges from RunTransport:\nengine %+v\nbatch  %+v",
				faults, got, want)
		}
	}
}

// TestEngineClosedLoop drives a dependency chain: each completion injects
// the next flow from inside the OnFlowDone callback, and a local (src==dst)
// flow must complete through the same hook. This is the staged-injection
// contract the service layer builds on.
func TestEngineClosedLoop(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	cfg := DefaultTransport()
	var eng *TransportEngine
	var got []doneRec
	hops := []struct {
		src, dst int
	}{{0, 9}, {9, 4}, {4, 4}, {4, 0}} // includes a local leg
	next := 1
	cfg.OnFlowDone = func(flow int, atSec float64, completed bool) {
		got = append(got, doneRec{flow, atSec, completed})
		if !completed {
			t.Errorf("flow %d did not complete", flow)
		}
		if next < len(hops) {
			h := hops[next]
			next++
			if _, err := eng.InjectFlow(h.src, h.dst, 32<<10, atSec); err != nil {
				t.Errorf("inject from callback: %v", err)
			}
		}
	}
	eng, err := NewTransportEngine(tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InjectFlow(hops[0].src, hops[0].dst, 32<<10, 0); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFlows != len(hops) {
		t.Fatalf("completed %d flows, want %d", res.CompletedFlows, len(hops))
	}
	if len(got) != len(hops) {
		t.Fatalf("hook fired %d times, want %d", len(got), len(hops))
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Errorf("chain completions out of order: %+v", got)
		}
		if got[i].flow != got[i-1].flow+1 {
			t.Errorf("chain flow ids out of order: %+v", got)
		}
	}
}

// TestEngineScheduleOrder pins wake semantics: callbacks fire at their
// scheduled times in time order, same-time wakes in registration order, and
// wakes interleave correctly with flow completions.
func TestEngineScheduleOrder(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 2, K: 0, P: 2})
	eng, err := NewTransportEngine(tp, DefaultTransport())
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	mark := func(id int) func(float64) {
		return func(nowSec float64) { order = append(order, id) }
	}
	if err := eng.Schedule(2e-3, mark(2)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Schedule(1e-3, mark(1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Schedule(1e-3, mark(10)); err != nil { // same-time: after mark(1)
		t.Fatal(err)
	}
	if err := eng.Schedule(0, func(nowSec float64) {
		order = append(order, 0)
		// Nested schedule from a callback.
		if err := eng.Schedule(nowSec+3e-3, mark(3)); err != nil {
			t.Errorf("nested schedule: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 10, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestEngineRejectsMisuse covers the argument validation and single-shot
// contracts, plus the multi-shard hook rejection.
func TestEngineRejectsMisuse(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 2, K: 0, P: 2})
	eng, err := NewTransportEngine(tp, DefaultTransport())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InjectFlow(-1, 0, 1024, 0); err == nil {
		t.Error("accepted out-of-range src")
	}
	if _, err := eng.InjectFlow(0, 1<<20, 1024, 0); err == nil {
		t.Error("accepted out-of-range dst")
	}
	if _, err := eng.InjectFlow(0, 1, 0, 0); err == nil {
		t.Error("accepted zero bytes")
	}
	if _, err := eng.InjectFlow(0, 1, 1024, -1); err == nil {
		t.Error("accepted start before now")
	}
	if err := eng.Schedule(0, nil); err == nil {
		t.Error("accepted nil wake callback")
	}
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := eng.InjectFlow(0, 1, 1024, at); err == nil {
			t.Errorf("accepted inject at %g", at)
		}
		if err := eng.Schedule(at, func(float64) {}); err == nil {
			t.Errorf("accepted wake at %g", at)
		}
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Error("second Run did not error")
	}

	cfg := DefaultTransport()
	cfg.OnFlowDone = func(int, float64, bool) {}
	if _, err := RunTransportSharded(tp, []traffic.Flow{{Src: 0, Dst: 1, Bytes: 1024}}, cfg, ShardOpts{Shards: 2}); err == nil {
		t.Error("2-shard run accepted a completion hook")
	}
}
