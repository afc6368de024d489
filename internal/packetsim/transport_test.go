package packetsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

func TestTransportConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*TransportConfig)
		wantErr bool
	}{
		{name: "default", mutate: func(*TransportConfig) {}},
		{name: "bad link", mutate: func(c *TransportConfig) { c.Link.MTU = 0 }, wantErr: true},
		{name: "zero ack", mutate: func(c *TransportConfig) { c.AckBytes = 0 }, wantErr: true},
		{name: "tiny cwnd", mutate: func(c *TransportConfig) { c.InitCwnd = 0 }, wantErr: true},
		{name: "max below init", mutate: func(c *TransportConfig) { c.MaxCwnd = 1 }, wantErr: true},
		{name: "zero rto", mutate: func(c *TransportConfig) { c.RTOSec = 0 }, wantErr: true},
		{name: "NaN rto", mutate: func(c *TransportConfig) { c.RTOSec = math.NaN() }, wantErr: true},
		{name: "+Inf rto", mutate: func(c *TransportConfig) { c.RTOSec = math.Inf(1) }, wantErr: true},
		{name: "NaN link delay", mutate: func(c *TransportConfig) { c.Link.LinkDelaySec = math.NaN() }, wantErr: true},
		{name: "zero dupack", mutate: func(c *TransportConfig) { c.DupAckThreshold = 0 }, wantErr: true},
		{name: "tiny events", mutate: func(c *TransportConfig) { c.MaxEvents = 10 }, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultTransport()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTransportSingleFlowCompletes(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	flows := []traffic.Flow{{Src: 0, Dst: 9, Bytes: 1 << 20}} // ~700 packets
	res, err := RunTransport(tp, flows, DefaultTransport())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFlows != 1 {
		t.Fatalf("completed %d flows, want 1 (%+v)", res.CompletedFlows, res)
	}
	if res.MakespanSec <= 0 || res.GoodputBps <= 0 {
		t.Errorf("degenerate result %+v", res)
	}
	// A lone flow on idle links should see zero losses.
	if res.Retransmits != 0 {
		t.Errorf("lone flow retransmitted %d times", res.Retransmits)
	}
}

func TestTransportGoodputNearLineRateForLoneFlow(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	cfg := DefaultTransport()
	flows := []traffic.Flow{{Src: 0, Dst: 9, Bytes: 8 << 20}}
	res, err := RunTransport(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pipelined windows should reach a decent fraction of line rate.
	if res.GoodputBps < 0.5*cfg.Link.LinkBandwidthBps {
		t.Errorf("goodput %.2e Bps, want >= half of line rate %.2e",
			res.GoodputBps, cfg.Link.LinkBandwidthBps)
	}
}

func TestTransportIncastCompletesWithRetransmits(t *testing.T) {
	// Heavy incast with small queues loses packets, but the transport must
	// still deliver every flow (losses become retransmissions, not missing
	// data) — the qualitative difference from the raw injection model.
	tp := core.MustBuild(core.Config{N: 4, K: 1, P: 2})
	cfg := DefaultTransport()
	cfg.Link.QueueLimitPackets = 8
	n := tp.Network().NumServers()
	var flows []traffic.Flow
	for src := 1; src < n; src++ {
		flows = append(flows, traffic.Flow{Src: src, Dst: 0, Bytes: 256 << 10})
	}
	res, err := RunTransport(tp, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFlows != len(flows) {
		t.Fatalf("completed %d of %d flows", res.CompletedFlows, len(flows))
	}
	if res.Retransmits == 0 {
		t.Error("tiny queues under incast produced zero retransmits")
	}
}

func TestTransportDeterministic(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	flows := []traffic.Flow{
		{Src: 0, Dst: 9, Bytes: 512 << 10},
		{Src: 3, Dst: 12, Bytes: 512 << 10},
		{Src: 7, Dst: 1, Bytes: 512 << 10},
	}
	a, err := RunTransport(tp, flows, DefaultTransport())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTransport(tp, flows, DefaultTransport())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("non-deterministic transport:\n%+v\n%+v", a, b)
	}
}

func TestTransportSelfFlowIgnored(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 2, K: 0, P: 2})
	res, err := RunTransport(tp, []traffic.Flow{{Src: 0, Dst: 0, Bytes: 1 << 20}}, DefaultTransport())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFlows != 0 || res.MakespanSec != 0 {
		t.Errorf("self flow produced %+v", res)
	}
}

func TestTransportErrors(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 2, K: 0, P: 2})
	if _, err := RunTransport(tp, []traffic.Flow{{Src: 0, Dst: 99}}, DefaultTransport()); err == nil {
		t.Error("out-of-range flow accepted")
	}
	bad := DefaultTransport()
	bad.RTOSec = -1
	if _, err := RunTransport(tp, nil, bad); err == nil {
		t.Error("invalid config accepted")
	}
	// A non-finite start used to "complete" with a NaN mean FCT, or panic in
	// the FCT quantile beside a finite flow.
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		flows := []traffic.Flow{{Src: 0, Dst: 1, Bytes: 4096}, {Src: 1, Dst: 0, Bytes: 4096, StartSec: at}}
		if _, err := RunTransport(tp, flows, DefaultTransport()); err == nil {
			t.Errorf("flow starting at %g accepted", at)
		}
		for _, s := range []int{1, 3} {
			if _, err := RunTransportSharded(tp, flows, DefaultTransport(), ShardOpts{Shards: s}); err == nil {
				t.Errorf("shards=%d: flow starting at %g accepted", s, at)
			}
		}
	}
}

func TestTransportSharedBottleneckFairness(t *testing.T) {
	// Two flows into the same destination share its access link; both must
	// finish, and in roughly comparable time (no starvation).
	tp := core.MustBuild(core.Config{N: 4, K: 1, P: 2})
	flows := []traffic.Flow{
		{Src: 1, Dst: 0, Bytes: 2 << 20},
		{Src: 2, Dst: 0, Bytes: 2 << 20},
	}
	res, err := RunTransport(tp, flows, DefaultTransport())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFlows != 2 {
		t.Fatalf("completed %d of 2", res.CompletedFlows)
	}
	if res.P99FCTSec > 4*res.MeanFCTSec {
		t.Errorf("starvation suspected: p99 %.3f vs mean %.3f", res.P99FCTSec, res.MeanFCTSec)
	}
}

func TestECNValidation(t *testing.T) {
	cfg := DefaultTransport()
	cfg.ECN = true
	cfg.ECNThresholdPackets = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero ECN threshold accepted")
	}
}

func TestECNReducesRetransmitsUnderIncast(t *testing.T) {
	// With marking at a shallow threshold, congestion is signalled before
	// queues overflow: the ECN run must complete with fewer retransmissions
	// than the loss-driven run on the same incast.
	tp := core.MustBuild(core.Config{N: 4, K: 1, P: 2})
	n := tp.Network().NumServers()
	var flows []traffic.Flow
	for src := 1; src < n/2; src++ {
		flows = append(flows, traffic.Flow{Src: src, Dst: 0, Bytes: 512 << 10})
	}
	loss := DefaultTransport()
	loss.Link.QueueLimitPackets = 16
	lossRes, err := RunTransport(tp, flows, loss)
	if err != nil {
		t.Fatal(err)
	}
	ecn := loss
	ecn.ECN = true
	ecn.ECNThresholdPackets = 8
	ecnRes, err := RunTransport(tp, flows, ecn)
	if err != nil {
		t.Fatal(err)
	}
	if ecnRes.CompletedFlows != len(flows) || lossRes.CompletedFlows != len(flows) {
		t.Fatalf("incomplete runs: ecn %d, loss %d of %d",
			ecnRes.CompletedFlows, lossRes.CompletedFlows, len(flows))
	}
	if ecnRes.ECNMarks == 0 {
		t.Error("ECN run marked nothing")
	}
	if lossRes.Retransmits == 0 {
		t.Skip("loss run had no retransmits; scenario too gentle to compare")
	}
	if ecnRes.Retransmits >= lossRes.Retransmits {
		t.Errorf("ECN retransmits %d >= loss-driven %d", ecnRes.Retransmits, lossRes.Retransmits)
	}
}

func TestECNOffNeverMarks(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	res, err := RunTransport(tp, []traffic.Flow{{Src: 0, Dst: 9, Bytes: 1 << 20}}, DefaultTransport())
	if err != nil {
		t.Fatal(err)
	}
	if res.ECNMarks != 0 {
		t.Errorf("ECN disabled but %d marks", res.ECNMarks)
	}
}

func TestTransportHonorsArrivalTimes(t *testing.T) {
	// A flow arriving at t=5ms cannot finish before 5ms.
	tp := core.MustBuild(core.Config{N: 3, K: 1, P: 2})
	flows := []traffic.Flow{{Src: 0, Dst: 9, Bytes: 64 << 10, StartSec: 5e-3}}
	res, err := RunTransport(tp, flows, DefaultTransport())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFlows != 1 {
		t.Fatalf("incomplete: %+v", res)
	}
	if res.MakespanSec < 5e-3 {
		t.Errorf("flow finished at %.4fs, before its own arrival", res.MakespanSec)
	}
}

func TestTransportPoissonLoadCompletes(t *testing.T) {
	tp := core.MustBuild(core.Config{N: 4, K: 1, P: 2})
	rng := rand.New(rand.NewSource(8))
	flows, err := traffic.Poisson(tp.Network().NumServers(), 500, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Skip("no arrivals drawn")
	}
	res, err := RunTransport(tp, flows, DefaultTransport())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFlows != len(flows) {
		t.Errorf("completed %d of %d Poisson flows", res.CompletedFlows, len(flows))
	}
}
