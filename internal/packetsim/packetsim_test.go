package packetsim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func build(t *testing.T) *core.ABCCC {
	t.Helper()
	return core.MustBuild(core.Config{N: 3, K: 1, P: 2})
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{name: "default ok", mutate: func(*Config) {}},
		{name: "zero bandwidth", mutate: func(c *Config) { c.LinkBandwidthBps = 0 }, wantErr: true},
		{name: "zero flow rate", mutate: func(c *Config) { c.FlowRateBps = 0 }, wantErr: true},
		{name: "zero mtu", mutate: func(c *Config) { c.MTU = 0 }, wantErr: true},
		{name: "zero queue", mutate: func(c *Config) { c.QueueLimitPackets = 0 }, wantErr: true},
		{name: "negative delay", mutate: func(c *Config) { c.LinkDelaySec = -1 }, wantErr: true},
		{name: "zero delay ok", mutate: func(c *Config) { c.LinkDelaySec = 0 }},
		{name: "NaN bandwidth", mutate: func(c *Config) { c.LinkBandwidthBps = math.NaN() }, wantErr: true},
		{name: "+Inf bandwidth", mutate: func(c *Config) { c.LinkBandwidthBps = math.Inf(1) }, wantErr: true},
		{name: "-Inf bandwidth", mutate: func(c *Config) { c.LinkBandwidthBps = math.Inf(-1) }, wantErr: true},
		{name: "NaN flow rate", mutate: func(c *Config) { c.FlowRateBps = math.NaN() }, wantErr: true},
		{name: "+Inf flow rate", mutate: func(c *Config) { c.FlowRateBps = math.Inf(1) }, wantErr: true},
		{name: "-Inf flow rate", mutate: func(c *Config) { c.FlowRateBps = math.Inf(-1) }, wantErr: true},
		{name: "NaN delay", mutate: func(c *Config) { c.LinkDelaySec = math.NaN() }, wantErr: true},
		{name: "+Inf delay", mutate: func(c *Config) { c.LinkDelaySec = math.Inf(1) }, wantErr: true},
		{name: "-Inf delay", mutate: func(c *Config) { c.LinkDelaySec = math.Inf(-1) }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Default()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSingleFlowDeliversEverything(t *testing.T) {
	tp := build(t)
	cfg := Default()
	flows := []traffic.Flow{{Src: 0, Dst: 5, Bytes: 15000}} // 10 packets
	res, err := Run(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 10 || res.Dropped != 0 {
		t.Errorf("delivered %d dropped %d, want 10/0", res.Delivered, res.Dropped)
	}
	if res.AvgLatencySec <= 0 || res.MakespanSec <= 0 || res.ThroughputBps <= 0 {
		t.Errorf("degenerate result %+v", res)
	}
	if res.P99LatencySec < res.AvgLatencySec-1e-12 {
		t.Errorf("p99 %g < avg %g", res.P99LatencySec, res.AvgLatencySec)
	}
}

func TestLatencyMatchesStoreAndForwardFormula(t *testing.T) {
	// One packet over h links with no queueing: latency = h*(tx + delay).
	tp := build(t)
	cfg := Default()
	flows := []traffic.Flow{{Src: 0, Dst: 5, Bytes: int64(cfg.MTU)}}
	res, err := Run(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := tp.Network()
	p, err := tp.Route(net.Server(0), net.Server(5))
	if err != nil {
		t.Fatal(err)
	}
	h := float64(p.Len())
	want := h * (float64(cfg.MTU)/cfg.LinkBandwidthBps + cfg.LinkDelaySec)
	if math.Abs(res.AvgLatencySec-want) > 1e-12 {
		t.Errorf("latency %g, want %g over %d links", res.AvgLatencySec, want, p.Len())
	}
}

func TestSelfFlowIgnored(t *testing.T) {
	tp := build(t)
	res, err := Run(tp, []traffic.Flow{{Src: 3, Dst: 3, Bytes: 4500}}, Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 || res.Dropped != 0 {
		t.Errorf("self flow produced traffic: %+v", res)
	}
}

func TestIncastOverloadDropsPackets(t *testing.T) {
	// Many senders into one server at full rate with tiny queues must drop.
	tp := core.MustBuild(core.Config{N: 4, K: 1, P: 2})
	cfg := Default()
	cfg.QueueLimitPackets = 2
	n := tp.Network().NumServers()
	var flows []traffic.Flow
	for src := 1; src < n; src++ {
		flows = append(flows, traffic.Flow{Src: src, Dst: 0, Bytes: 30000})
	}
	res, err := Run(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("incast with tiny queues dropped nothing")
	}
	if res.DropRate() <= 0 || res.DropRate() >= 1 {
		t.Errorf("DropRate = %f", res.DropRate())
	}
}

func TestBiggerQueuesDropLess(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 4, K: 1, P: 2})
	n := tp.Network().NumServers()
	var flows []traffic.Flow
	for src := 1; src < 10; src++ {
		flows = append(flows, traffic.Flow{Src: src, Dst: 0, Bytes: 60000})
	}
	drops := func(limit int) int {
		cfg := Default()
		cfg.QueueLimitPackets = limit
		res, err := Run(tp, flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Dropped
	}
	small, big := drops(1), drops(1000)
	if big > small {
		t.Errorf("bigger queue dropped more: %d vs %d", big, small)
	}
	_ = n
}

func TestDeterministic(t *testing.T) {
	tp := build(t)
	flows := []traffic.Flow{
		{Src: 0, Dst: 7, Bytes: 45000},
		{Src: 3, Dst: 11, Bytes: 45000},
		{Src: 8, Dst: 2, Bytes: 45000},
	}
	r1, err := Run(tp, flows, Default())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(tp, flows, Default())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("non-deterministic results:\n%+v\n%+v", r1, r2)
	}
}

func TestRunErrors(t *testing.T) {
	tp := build(t)
	if _, err := Run(tp, []traffic.Flow{{Src: 0, Dst: 999}}, Default()); err == nil {
		t.Error("out-of-range flow accepted")
	}
	bad := Default()
	bad.MTU = 0
	if _, err := Run(tp, nil, bad); err == nil {
		t.Error("invalid config accepted")
	}
	// A non-finite start used to be neither delivered nor dropped, or to
	// vanish only at some shard counts.
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		flows := []traffic.Flow{{Src: 0, Dst: 1, Bytes: 4096}, {Src: 1, Dst: 0, Bytes: 4096, StartSec: at}}
		for _, s := range []int{1, 3} {
			if _, err := RunSharded(tp, flows, Default(), ShardOpts{Shards: s}); err == nil {
				t.Errorf("shards=%d: flow starting at %g accepted", s, at)
			}
		}
	}
}

func TestEmptyWorkload(t *testing.T) {
	tp := build(t)
	res, err := Run(tp, nil, Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 || res.DropRate() != 0 || res.ThroughputBps != 0 {
		t.Errorf("empty workload result %+v", res)
	}
}

var _ topology.Topology = (*core.ABCCC)(nil) // packetsim drives any Topology

func TestRunHonorsArrivalTimes(t *testing.T) {
	tp := build(t)
	cfg := Default()
	flows := []traffic.Flow{{Src: 0, Dst: 5, Bytes: int64(cfg.MTU), StartSec: 2e-3}}
	res, err := Run(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.MakespanSec < 2e-3 {
		t.Errorf("result %+v, want delivery after the 2ms arrival", res)
	}
}
