package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/packetsim"
	"repro/internal/traffic"
)

// Strong-scaling equivalence scenario: a shuffle workload on a mid-size
// ABCCC driven through the sharded engines at increasing shard counts. The
// claim under test is the sharded engine's contract — the partition changes
// where events are processed, never what happens — so the table reports the
// simulation results per shard count together with an explicit
// identical-to-shards=1 marker. Shards=1 is the serial entry point itself:
// packetsim.Run for the packet engine, packetsim.RunTransport for
// transport. Wall-clock speedup is
// measured by the bench suite (cmd/benchsuite -scale), not here:
// experiment output must be deterministic, and timings never are.
const (
	scaleFlowBytes = 64 << 10
	scaleSeed      = 28
	scaleBurstAt   = 1e-4
	scaleRepairAt  = 2e-3
)

// scaleShardCounts is the shard axis: one shard, even splits, and a prime count
// that divides nothing evenly.
var scaleShardCounts = []int{1, 2, 4, 7}

// F28ShardScaling regenerates the sharded-engine equivalence table: packet
// and transport runs, fault-free and through a switch burst with multipath
// failover, at every shard count. Every row of a block must repeat the
// shards=1 numbers exactly; the "identical" column makes the check visible
// in the output itself.
func F28ShardScaling(w io.Writer) error {
	tp := core.MustBuild(core.Config{N: 4, K: 2, P: 2})
	net := tp.Network()
	n := net.NumServers()
	rng := rand.New(rand.NewSource(scaleSeed))
	flows, err := traffic.Shuffle(n, n/8, n/8, rng)
	if err != nil {
		return err
	}
	for i := range flows {
		flows[i].Bytes = scaleFlowBytes
	}
	nKill := len(net.Switches()) / 4
	plan, err := failure.Burst(net, failure.Switches, nKill, scaleBurstAt, scaleRepairAt, rng)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "ABCCC(4,2,2): %d servers, %d flows x %d KiB shuffle, shards sweep %v\n\n",
		n, len(flows), scaleFlowBytes>>10, scaleShardCounts)

	tw := table(w)
	fmt.Fprintln(tw, "engine\tscenario\tshards\tdelivered/done\tdrops tail/fault\tp99(us)\tmakespan(ms)\tidentical")

	// Packet engine, fault-free and under the burst.
	for _, withFaults := range []bool{false, true} {
		scenario := "clean"
		var base packetsim.Result
		for i, s := range scaleShardCounts {
			cfg := packetsim.Default()
			if withFaults {
				scenario = "burst"
				cfg.Faults = plan
			}
			res, err := packetsim.RunSharded(tp, flows, cfg, packetsim.ShardOpts{Shards: s})
			if err != nil {
				return err
			}
			if i == 0 {
				base = res
			}
			fmt.Fprintf(tw, "packet\t%s\t%d\t%d\t%d/%d\t%.1f\t%.3f\t%s\n",
				scenario, s, res.Delivered, res.Dropped, res.DroppedFault,
				res.P99LatencySec*1e6, res.MakespanSec*1e3, mark(res == base))
		}
	}

	// Transport engine, clean and burst+multipath.
	for _, mode := range []string{"clean", "burst+mp"} {
		var base packetsim.TransportResult
		for i, s := range scaleShardCounts {
			cfg := packetsim.DefaultTransport()
			if mode != "clean" {
				cfg.Faults = plan
				cfg.Multipath = true
			}
			res, err := packetsim.RunTransportSharded(tp, flows, cfg, packetsim.ShardOpts{Shards: s})
			if err != nil {
				return err
			}
			if i == 0 {
				base = res
			}
			fmt.Fprintf(tw, "transport\t%s\t%d\t%d\t-/%d\t%.1f\t%.3f\t%s\n",
				mode, s, res.CompletedFlows, res.DroppedFault,
				res.P99FCTSec*1e6, res.MakespanSec*1e3, mark(res == base))
		}
	}
	return tw.Flush()
}

// mark renders an equivalence check as a stable table cell.
func mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
