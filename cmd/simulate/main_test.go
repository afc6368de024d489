package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/svc"
)

func TestRunSimulations(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		want    string
		wantErr bool
	}{
		{
			name: "abccc flow permutation",
			args: []string{"-topo", "abccc", "-n", "4", "-k", "1", "-p", "3", "-pattern", "permutation"},
			want: "max-min fair",
		},
		{
			name: "bccc flow alltoall",
			args: []string{"-topo", "bccc", "-n", "3", "-k", "1", "-pattern", "alltoall"},
			want: "ABT",
		},
		{
			name: "bcube packet uniform",
			args: []string{"-topo", "bcube", "-n", "4", "-k", "1", "-pattern", "uniform", "-sim", "packet", "-count", "8"},
			want: "packet sim",
		},
		{
			name: "dcell flow incast",
			args: []string{"-topo", "dcell", "-n", "3", "-k", "1", "-pattern", "incast"},
			want: "bottleneck",
		},
		{
			name: "fattree packet shuffle",
			args: []string{"-topo", "fattree", "-k", "4", "-pattern", "shuffle", "-sim", "packet"},
			want: "delivered",
		},
		{
			name: "hotspot",
			args: []string{"-topo", "abccc", "-pattern", "hotspot", "-count", "20"},
			want: "max-min fair",
		},
		{
			name: "packet with faults",
			args: []string{"-topo", "abccc", "-pattern", "shuffle", "-sim", "packet", "-faults", "links"},
			want: "fault timeline",
		},
		{
			name: "transport with faults",
			args: []string{"-topo", "abccc", "-pattern", "shuffle", "-sim", "transport", "-faults", "switches, links"},
			want: "reroutes",
		},
		{
			name: "transport multipath",
			args: []string{"-topo", "abccc", "-pattern", "shuffle", "-sim", "transport", "-faults", "switches", "-multipath", "-paths", "3"},
			want: "failovers",
		},
		{
			name: "svc throttle with faults",
			args: []string{"-topo", "abccc", "-sim", "svc", "-graph", "3tier", "-policy", "throttle",
				"-faults", "switches", "-mtbf", "5ms", "-mttr", "20ms", "-requests", "60"},
			want: "fault timeline",
		},
		{
			name: "svc hedge chain healthy",
			args: []string{"-topo", "abccc", "-sim", "svc", "-graph", "chain", "-policy", "hedge", "-requests", "40"},
			want: "svc run: 40/40 completed",
		},
		{
			name: "svc multipath",
			args: []string{"-topo", "abccc", "-sim", "svc", "-policy", "fixed", "-requests", "40",
				"-faults", "switches", "-mtbf", "5ms", "-multipath", "-paths", "3"},
			want: "multipath:",
		},
		{
			name: "surv wearout",
			args: []string{"-topo", "abccc", "-sim", "surv", "-trials", "4", "-horizon", "20y"},
			want: "MTTF to first partition",
		},
		{
			name: "surv churn",
			args: []string{"-topo", "bcube", "-n", "4", "-k", "1", "-sim", "surv", "-churn",
				"-classes", "switches=2d:4h,links=5d:2h", "-horizon", "20d", "-trials", "4"},
			want: "partitioned",
		},
		{
			name: "surv threshold disabled",
			args: []string{"-topo", "abccc", "-sim", "surv", "-trials", "2", "-threshold", "0"},
			want: "mean end state",
		},
		{name: "bad topo", args: []string{"-topo", "torus"}, wantErr: true},
		{name: "surv with shards", args: []string{"-sim", "surv", "-shards", "2"}, wantErr: true},
		{name: "surv with faults", args: []string{"-sim", "surv", "-faults", "links"}, wantErr: true},
		{name: "surv with trace", args: []string{"-sim", "surv", "-trace", "x.jsonl"}, wantErr: true},
		{name: "surv with metrics", args: []string{"-sim", "surv", "-metrics"}, wantErr: true},
		{name: "surv with save", args: []string{"-sim", "surv", "-save", "x.jsonl"}, wantErr: true},
		{name: "surv bad horizon", args: []string{"-sim", "surv", "-horizon", "soon"}, wantErr: true},
		{name: "surv bad classes", args: []string{"-sim", "surv", "-classes", "gremlins=1y"}, wantErr: true},
		{name: "surv classes missing mtbf", args: []string{"-sim", "surv", "-classes", "links"}, wantErr: true},
		{name: "surv churn needs mttr", args: []string{"-sim", "surv", "-churn", "-trials", "2"}, wantErr: true},
		{name: "surv zero trials", args: []string{"-sim", "surv", "-trials", "0"}, wantErr: true},
		{name: "svc bad graph", args: []string{"-sim", "svc", "-graph", "mesh"}, wantErr: true},
		{name: "svc bad policy", args: []string{"-sim", "svc", "-policy", "yolo"}, wantErr: true},
		{name: "svc with shards", args: []string{"-sim", "svc", "-shards", "2"}, wantErr: true},
		{name: "svc with trace", args: []string{"-sim", "svc", "-trace", "x.jsonl"}, wantErr: true},
		{name: "svc with save", args: []string{"-sim", "svc", "-save", "x.jsonl"}, wantErr: true},
		{name: "svc bad rate", args: []string{"-sim", "svc", "-rate", "0"}, wantErr: true},
		{name: "bad pattern", args: []string{"-pattern", "chaos"}, wantErr: true},
		{name: "bad sim", args: []string{"-sim", "quantum"}, wantErr: true},
		{name: "bad config", args: []string{"-topo", "fattree", "-k", "3"}, wantErr: true},
		{name: "faults with flow sim", args: []string{"-sim", "flow", "-faults", "links"}, wantErr: true},
		{name: "bad fault kind", args: []string{"-sim", "packet", "-faults", "gremlins"}, wantErr: true},
		{name: "bad mtbf", args: []string{"-sim", "packet", "-faults", "links", "-mtbf", "0s"}, wantErr: true},
		{name: "multipath with flow sim", args: []string{"-sim", "flow", "-multipath"}, wantErr: true},
		{name: "multipath without faults", args: []string{"-sim", "transport", "-multipath"}, wantErr: true},
		{name: "paths without multipath", args: []string{"-sim", "transport", "-faults", "switches", "-paths", "2"}, wantErr: true},
		{name: "negative shards", args: []string{"-sim", "packet", "-shards", "-4"}, wantErr: true},
		{name: "negative workers", args: []string{"-sim", "transport", "-shards", "2", "-workers", "-1"}, wantErr: true},
		{name: "negative emu shards", args: []string{"-sim", "emu", "-shards", "-2"}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(tt.args, &buf)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("run(%v) succeeded; output:\n%s", tt.args, buf.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%v): %v", tt.args, err)
			}
			if !strings.Contains(buf.String(), tt.want) {
				t.Errorf("output missing %q:\n%s", tt.want, buf.String())
			}
		})
	}
}

// TestPacketSimIsOneShardEngine pins that plain -sim packet runs the
// one-shard engine: its output, fault timeline and metrics summary included,
// is byte-identical to -sim packet -shards 1.
func TestPacketSimIsOneShardEngine(t *testing.T) {
	base := []string{"-topo", "abccc", "-pattern", "shuffle", "-sim", "packet", "-faults", "switches", "-mtbf", "200us", "-mttr", "100us", "-metrics"}
	var plain, sharded bytes.Buffer
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-shards", "1"), &sharded); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), "packet sim:") {
		t.Fatalf("no packet sim line:\n%s", plain.String())
	}
	if plain.String() != sharded.String() {
		t.Errorf("-sim packet differs from -shards 1:\n%s\n---\n%s", plain.String(), sharded.String())
	}
}

// TestTransportSimIsOneShardEngine pins that plain -sim transport runs the
// one-shard engine: its output, fault timeline and metrics summary included,
// is byte-identical to -sim transport -shards 1.
func TestTransportSimIsOneShardEngine(t *testing.T) {
	base := []string{"-topo", "abccc", "-pattern", "shuffle", "-sim", "transport", "-multipath", "-faults", "switches", "-mtbf", "200us", "-mttr", "100us", "-metrics"}
	var plain, sharded bytes.Buffer
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-shards", "1"), &sharded); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"transport sim:", "fault timeline"} {
		if !strings.Contains(plain.String(), want) {
			t.Fatalf("no %q in output:\n%s", want, plain.String())
		}
	}
	if plain.String() != sharded.String() {
		t.Errorf("-sim transport differs from -shards 1:\n%s\n---\n%s", plain.String(), sharded.String())
	}
}

// TestSvcGraphFile runs -sim svc against a JSON graph file instead of a
// built-in, and checks the analyzer report names its services.
func TestSvcGraphFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "graph.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.WriteGraph(f, svc.Diamond()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	args := []string{"-topo", "abccc", "-sim", "svc", "-graph", path, "-policy", "none", "-requests", "30"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gateway -> users -> db", "per-request attempt bound", "svc worst request"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
	if err := run([]string{"-sim", "svc", "-graph", filepath.Join(t.TempDir(), "nope.json")}, &buf); err == nil {
		t.Error("missing graph file accepted")
	}
}

// TestSvcSeriesRecord: -sim svc -series writes a run record whose engine is
// svc and whose tracks are all service-layer tracks.
func TestSvcSeriesRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var buf bytes.Buffer
	args := []string{"-topo", "abccc", "-sim", "svc", "-policy", "throttle", "-requests", "50", "-series", path}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if !recs.HasMeta || recs.Meta.Engine != "svc" {
		t.Errorf("run record meta = %+v, want engine svc", recs.Meta)
	}
	if len(recs.Series) == 0 {
		t.Error("run record has no series points")
	}
	for _, pt := range recs.Series {
		if !strings.HasPrefix(pt.Track, "svc_") {
			t.Errorf("non-svc track %q in svc run record", pt.Track)
		}
	}
}

// TestSurvSeriesRecord: -sim surv -series replays one extra seeded lifetime
// and writes a run record whose engine is surv and whose tracks are all
// survivability tracks.
func TestSurvSeriesRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "surv.jsonl")
	var buf bytes.Buffer
	args := []string{"-topo", "abccc", "-sim", "surv", "-trials", "2", "-horizon", "10y", "-series", path}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "series: wrote") {
		t.Errorf("output missing series marker:\n%s", buf.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if !recs.HasMeta || recs.Meta.Engine != "surv" {
		t.Errorf("run record meta = %+v, want engine surv", recs.Meta)
	}
	if len(recs.Series) == 0 {
		t.Error("run record has no series points")
	}
	for _, pt := range recs.Series {
		if !strings.HasPrefix(pt.Track, "surv_") {
			t.Errorf("non-surv track %q in surv run record", pt.Track)
		}
	}
}

// TestSurvRunDeterministic: the seeded trial batch must reproduce byte for
// byte, including the MTTF estimate and threshold lines.
func TestSurvRunDeterministic(t *testing.T) {
	args := []string{"-topo", "abccc", "-sim", "surv", "-trials", "6", "-horizon", "20y", "-seed", "9"}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("same seed, different surv reports:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestParseSpan pins the survivability time-span grammar.
func TestParseSpan(t *testing.T) {
	good := map[string]float64{
		"30y":   30 * 365 * 86400,
		"1.5y":  1.5 * 365 * 86400,
		"90d":   90 * 86400,
		"500ms": 0.5,
		"2h":    7200,
	}
	for in, want := range good {
		got, err := parseSpan(in)
		if err != nil || got != want {
			t.Errorf("parseSpan(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "soon", "yd", "x1y"} {
		if _, err := parseSpan(in); err == nil {
			t.Errorf("parseSpan(%q) accepted", in)
		}
	}
}

// TestSvcMetricsSummary: -sim svc -metrics prints the service-layer counters.
func TestSvcMetricsSummary(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-topo", "abccc", "-sim", "svc", "-graph", "3tier", "-metrics", "-requests", "40"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"svc_requests", "svc_completed", "svc_ok_storage"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-metrics output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestSvcRunDeterministic: the svc report under a seeded fault schedule must
// reproduce byte for byte, timeline included.
func TestSvcRunDeterministic(t *testing.T) {
	args := []string{"-topo", "abccc", "-sim", "svc", "-policy", "none", "-requests", "80",
		"-faults", "switches", "-mtbf", "5ms", "-mttr", "20ms", "-seed", "9"}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("same seed, different svc reports:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestFaultRunDeterministic: the seeded fault schedule and both engines are
// deterministic, so the whole report must reproduce byte for byte.
func TestFaultRunDeterministic(t *testing.T) {
	args := []string{"-topo", "abccc", "-pattern", "shuffle", "-sim", "transport",
		"-faults", "switches,links", "-seed", "9"}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("same seed, different reports:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestWorkloadDefaults(t *testing.T) {
	// All pattern helpers must produce non-empty workloads even on small
	// server counts.
	for _, pattern := range []string{"permutation", "alltoall", "uniform", "incast", "shuffle", "hotspot"} {
		var buf bytes.Buffer
		args := []string{"-topo", "abccc", "-n", "2", "-k", "1", "-p", "2", "-pattern", pattern}
		if err := run(args, &buf); err != nil {
			t.Errorf("pattern %s on tiny net: %v", pattern, err)
		}
	}
}

// TestMetricsSummary is the acceptance contract: `-sim packet -metrics`
// prints a drop-cause/latency-histogram summary after the run.
func TestMetricsSummary(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-topo", "abccc", "-pattern", "alltoall", "-sim", "packet", "-metrics"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"instrumentation summary",
		"packetsim_delivered",
		"packetsim_dropped_droptail",
		"packetsim_latency_ns",
		"packetsim_queue_depth_pkts",
		"p99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsSummaryFlowAndTransport(t *testing.T) {
	for sim, want := range map[string]string{
		"flow":      "flowsim_rounds",
		"transport": "transport_completed_flows",
	} {
		var buf bytes.Buffer
		args := []string{"-topo", "abccc", "-pattern", "permutation", "-sim", sim, "-metrics"}
		if err := run(args, &buf); err != nil {
			t.Fatalf("sim %s: %v", sim, err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("sim %s summary missing %q:\n%s", sim, want, buf.String())
		}
	}
}

// TestHopTraceJSONL exercises -trace end to end: the written file must be
// valid JSONL that parses back into hop events.
func TestHopTraceJSONL(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "hops.jsonl")
	var buf bytes.Buffer
	args := []string{"-topo", "abccc", "-pattern", "permutation", "-sim", "packet", "-trace", traceFile}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("trace file has no events")
	}
	var delivers int
	for _, ev := range events {
		if ev.Kind == "deliver" {
			delivers++
		}
	}
	if delivers == 0 {
		t.Error("trace has no deliver events")
	}
	if err := run([]string{"-sim", "packet", "-trace", t.TempDir() + "/nope/x.jsonl"}, &buf); err == nil {
		t.Error("unwritable trace path accepted")
	}
}

func TestPprofFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-topo", "abccc", "-pprof", "127.0.0.1:0"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pprof: serving") {
		t.Errorf("output missing pprof banner:\n%s", buf.String())
	}
	if err := run([]string{"-pprof", "256.0.0.1:bad"}, &buf); err == nil {
		t.Error("bad pprof address accepted")
	}
}

func TestTraceSaveAndReplay(t *testing.T) {
	dir := t.TempDir()
	trace := dir + "/wl.jsonl"
	var buf bytes.Buffer
	if err := run([]string{"-topo", "abccc", "-pattern", "permutation", "-save", trace}, &buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	buf.Reset()
	if err := run([]string{"-topo", "abccc", "-load", trace}, &buf); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !strings.Contains(buf.String(), "trace:") {
		t.Errorf("replay output missing trace marker:\n%s", buf.String())
	}
	if err := run([]string{"-load", dir + "/missing.jsonl"}, &buf); err == nil {
		t.Error("missing trace accepted")
	}
	if err := run([]string{"-save", dir + "/nope/x.jsonl"}, &buf); err == nil {
		t.Error("unwritable save path accepted")
	}
}
