// Shared machinery of the sharded discrete-event engines (shardrun.go,
// transport.go): topology partitioning, the conservative time-windowed
// synchronization loop with deterministic cross-shard handoff, and the
// order-independent merges that keep a sharded run's results byte-identical
// for every shard count and GOMAXPROCS.
//
// # Conservative windows
//
// The compiled link-resource arrays partition cleanly: directed resource r
// (transmitter u) belongs to the shard of u, and a packet reaching node v is
// processed on v's shard. Every cross-shard event is therefore a packet
// arrival pushed at least lookahead = min-transmit-time + link-delay into
// the future, so the loop can safely drain, in parallel, all events with
// time < M + lookahead (M = global minimum pending time) before exchanging
// handoffs at a barrier: nothing generated inside the window can land inside
// it on another shard. Timers, probes, injections, and fault transitions are
// shard-local (fault plans are replicated into every shard's queue up
// front), so they never constrain the lookahead.
//
// # Determinism
//
// Event keys are content-derived (packet identity, not push order), so each
// shard's queue pops in an order fixed by the workload alone, and all events
// touching one link resource are processed on its owner shard in global
// (time, key) order no matter how many shards exist. Commutative aggregates
// (counts, maxima) merge trivially; float aggregates (latency sums,
// quantiles) are computed over sorted samples, which fixes the accumulation
// order. The shard-equivalence tests pin byte-identical results across
// -shards 1..N. Each engine at one shard is its serial entry point:
// packetsim.Run for datagrams, RunTransport and TransportEngine for the
// transport.

package packetsim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/topology"
)

// ShardOpts parameterizes a sharded run.
type ShardOpts struct {
	// Shards is the number of topology shards; values below 1 mean 1. The
	// result is byte-identical for every value.
	Shards int
	// Workers caps the goroutines driving shards; 0 means
	// min(Shards, GOMAXPROCS).
	Workers int
	// Profile, when non-nil, arms the shard runtime profiler: every
	// synchronization window records one obs.ShardWindow per shard —
	// wall-clock busy vs barrier-wait time, events processed, handoff
	// outbox/inbox volumes, and the window's lookahead width — and the
	// busy/wait totals and per-window load-imbalance index register on the
	// run's metrics (MetricShardBusyNs and friends). Profiling measures
	// wall-clock around whole window phases, never inside the event loop,
	// and cannot change simulation results. Nil disables it.
	Profile *obs.ShardProfile
}

// normalized clamps the options against the network size.
func (o ShardOpts) normalized(numNodes int) (shards, workers int) {
	shards = o.Shards
	if shards < 1 {
		shards = 1
	}
	if numNodes > 0 && shards > numNodes {
		shards = numNodes
	}
	workers = o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	return shards, workers
}

// Sharded-engine instrument names registered on the run's metrics registry.
const (
	// MetricShardWindows counts synchronization windows (barriers).
	MetricShardWindows = "shardsim_windows"
	// MetricShardHandoffs counts cross-shard packet handoffs.
	MetricShardHandoffs = "shardsim_handoffs"
	// MetricShardHandoffBatch observes the size of each nonempty src->dst
	// handoff batch exchanged at a barrier.
	MetricShardHandoffBatch = "shardsim_handoff_batch"
	// MetricShardWindowEvents observes events drained per shard per window.
	MetricShardWindowEvents = "shardsim_window_events"
	// MetricShardWindowStall gauges how many shards drained zero events in
	// the last window (its Max is the worst window's stall count).
	MetricShardWindowStall = "shardsim_window_stall"
	// Profiler instruments, registered only when ShardOpts.Profile is set:
	// total wall-clock nanoseconds shards spent draining events vs waiting
	// at (or queueing for) the window barrier, and a histogram of the
	// per-window load-imbalance index in milli-units (1000 = perfectly
	// balanced, N*1000 = one shard did all the work).
	MetricShardBusyNs         = "shardsim_busy_ns"
	MetricShardWaitNs         = "shardsim_wait_ns"
	MetricShardImbalanceMilli = "shardsim_imbalance_milli"
)

// shardPool runs per-shard closures on persistent worker goroutines; nil
// (workers <= 1) degrades to inline serial execution with zero overhead.
type shardPool struct {
	tasks chan func()
}

func newShardPool(workers int) *shardPool {
	if workers <= 1 {
		return nil
	}
	p := &shardPool{tasks: make(chan func())}
	for i := 0; i < workers; i++ {
		go func() {
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// forEach executes fn(0..n-1) across the pool and waits for all of them; the
// WaitGroup barrier gives every write before it a happens-before edge into
// everything after it, which is what makes the phase exchanges race-free.
func (p *shardPool) forEach(n int, fn func(int)) {
	if p == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		p.tasks <- func() {
			defer wg.Done()
			fn(i)
		}
	}
	wg.Wait()
}

func (p *shardPool) close() {
	if p != nil {
		close(p.tasks)
	}
}

// handoff is one cross-shard event in flight between windows.
type handoff[T any] struct {
	time float64
	key  int64
	ev   T
}

// eventQueue is what the window loop needs of a shard's event queue. The
// datagram engine's shards hold an eventq.Batched and the transport's a
// tqueue; each drain calls its own concrete queue per event, so only the
// loop's per-window calls go through this interface.
type eventQueue[T any] interface {
	Len() int
	Peek() (time float64, seq int64, v T)
	Push(time float64, seq int64, v T)
	Grow(n int)
}

// windowShard is the per-shard queue state the window loop drives.
type windowShard[T any] struct {
	q eventQueue[T]
	// out[dst] collects this shard's cross-shard pushes for the window.
	out [][]handoff[T]
	// processed counts events drained in the current window; a drain that
	// enforces the run's event budget stops once it passes limit.
	processed, limit int64
}

// send queues an event for shard dst, which receives it at the window
// barrier. Local events go straight onto the shard's own queue instead.
func (w *windowShard[T]) send(dst int, time float64, key int64, ev T) {
	w.out[dst] = append(w.out[dst], handoff[T]{time: time, key: key, ev: ev})
}

// shardDriver is the coordinator's bookkeeping: the pool plus the sharded
// engines' instruments (all nil-safe when the run has no metrics registry)
// and, when ShardOpts.Profile is armed, the runtime profiler state.
type shardDriver struct {
	shards int
	pool   *shardPool

	cWindows  *obs.Counter
	cHandoffs *obs.Counter
	hBatch    *obs.Histogram
	hWindow   *obs.Histogram
	gStall    *obs.Gauge

	// Profiler (nil profile = off; the window loop then takes no clock
	// readings at all). The busy/wait counters and imbalance histogram are
	// registered lazily in newShardDriver only when profiling, so an
	// unprofiled metrics run's summary stays unchanged.
	profile *obs.ShardProfile
	tracer  *obs.Tracer
	cBusy   *obs.Counter
	cWait   *obs.Counter
	hImb    *obs.Histogram
}

func newShardDriver(shards, workers int, metrics *obs.Registry, tracer *obs.Tracer, profile *obs.ShardProfile) *shardDriver {
	d := &shardDriver{
		shards:    shards,
		pool:      newShardPool(workers),
		cWindows:  metrics.Counter(MetricShardWindows),
		cHandoffs: metrics.Counter(MetricShardHandoffs),
		hBatch:    metrics.Histogram(MetricShardHandoffBatch),
		hWindow:   metrics.Histogram(MetricShardWindowEvents),
		gStall:    metrics.Gauge(MetricShardWindowStall),
	}
	if profile != nil {
		d.profile = profile
		d.tracer = tracer
		d.cBusy = metrics.Counter(MetricShardBusyNs)
		d.cWait = metrics.Counter(MetricShardWaitNs)
		d.hImb = metrics.Histogram(MetricShardImbalanceMilli)
	}
	return d
}

// runWindows drives the conservative loop until every shard queue drains.
// drain(s, end) must process shard s's local events with time < end in
// (time, key) order, routing cross-shard pushes through windowShard.send and
// adding to processed. budget > 0 aborts the run once the total processed
// event count exceeds it (the transport engine's MaxEvents brake): each
// shard's limit is what remains of the budget, so a drain that checks it
// per event stops inside the window — at one shard the only window is the
// whole run — and the barrier reports the overrun.
func runWindows[T any](d *shardDriver, shards []*windowShard[T], lookahead float64, drain func(s int, end float64), budget int64) error {
	defer d.pool.close()
	var total int64
	prof := d.profile != nil
	var busyNs []int64
	var winIdx int64
	if prof {
		busyNs = make([]int64, len(shards))
	}
	for {
		// Coordinator: the global minimum pending time opens the window.
		minT := math.Inf(1)
		for _, sh := range shards {
			if sh.q.Len() > 0 {
				if t, _, _ := sh.q.Peek(); t < minT {
					minT = t
				}
			}
		}
		if math.IsInf(minT, 1) {
			return nil // every queue is dry: the run is over
		}
		// The window edge must sit at or below every cross-shard arrival a
		// drained event can generate. Mathematically that is minT + lookahead,
		// but the engines compute an arrival as ((t + tx) + delay) while the
		// edge would be minT + (tx + delay): float non-associativity can land
		// an arrival an ulp BEFORE the edge, deferring it behind events it
		// must precede. A relative margin of 1e-12 (thousands of ulps, yet
		// vanishing against any physical lookahead) keeps the edge strictly
		// conservative.
		end := minT + lookahead
		end -= end * 1e-12
		if end <= minT {
			end = math.Nextafter(minT, math.Inf(1)) // degenerate lookahead: still make progress
		}
		if len(shards) == 1 {
			end = math.Inf(1) // one shard: no cross-shard events, one window
		}

		// Drain phase: every shard advances to the window edge in parallel.
		// When profiling, each shard clocks its own drain; the phase clock
		// wraps the whole forEach, so phase − busy is the shard's stall —
		// barrier wait plus (with fewer workers than shards) the time its
		// task queued for a worker slot, which is exactly the serialization
		// being measured.
		var phaseStart time.Time
		if prof {
			phaseStart = time.Now()
		}
		limit := int64(math.MaxInt64)
		if budget > 0 {
			limit = budget - total
		}
		d.pool.forEach(len(shards), func(s int) {
			shards[s].processed = 0
			shards[s].limit = limit
			if prof {
				t0 := time.Now()
				drain(s, end)
				busyNs[s] = time.Since(t0).Nanoseconds()
			} else {
				drain(s, end)
			}
		})
		var phaseNs int64
		if prof {
			phaseNs = time.Since(phaseStart).Nanoseconds()
		}

		d.cWindows.Inc()
		stalled := 0
		for _, sh := range shards {
			if sh.processed == 0 {
				stalled++
			}
			total += sh.processed
			d.hWindow.Observe(sh.processed)
		}
		d.gStall.Set(int64(stalled))
		if budget > 0 && total > budget {
			return fmt.Errorf("packetsim: transport exceeded %d events", budget)
		}

		// Profile the window before the exchange phase empties the outboxes.
		if prof {
			d.profileWindow(winIdx, minT, end, phaseNs, busyNs, shardStats(shards))
		}
		winIdx++

		// Exchange phase: each destination drains every source's outbox into
		// its queue. Push order cannot affect pop order (keys are a strict
		// total order), and the barrier between phases makes the cross-shard
		// reads race-free.
		d.pool.forEach(len(shards), func(dst int) {
			n := 0
			for _, src := range shards {
				n += len(src.out[dst])
			}
			if n == 0 {
				return
			}
			shards[dst].q.Grow(n)
			for _, src := range shards {
				batch := src.out[dst]
				if len(batch) == 0 {
					continue
				}
				for _, h := range batch {
					shards[dst].q.Push(h.time, h.key, h.ev)
				}
				d.hBatch.Observe(int64(len(batch)))
				src.out[dst] = src.out[dst][:0]
			}
			d.cHandoffs.Add(int64(n))
		})
	}
}

// shardWindowStat is the per-shard event/handoff tallies of one window,
// extracted from the generic shard slice before the exchange phase empties
// the outboxes (methods cannot be generic, so the extraction is a function).
type shardWindowStat struct {
	events, out, in int64
}

func shardStats[T any](shards []*windowShard[T]) []shardWindowStat {
	stats := make([]shardWindowStat, len(shards))
	for s, sh := range shards {
		stats[s].events = sh.processed
		for _, b := range sh.out {
			stats[s].out += int64(len(b))
		}
		for _, src := range shards {
			stats[s].in += int64(len(src.out[s]))
		}
	}
	return stats
}

// profileWindow records one window into the armed profiler: a ShardWindow
// row per shard, busy/wait totals on the registry, the window's imbalance
// index into the histogram (in milli-units), and — when the run traces — a
// "shard_window" event per shard so the runtime profile interleaves with
// the packet trace.
func (d *shardDriver) profileWindow(win int64, minT, end float64, phaseNs int64, busyNs []int64, stats []shardWindowStat) {
	t0Ns := int64(minT * 1e9)
	lookNs := int64(-1) // unbounded final window of a single-shard run
	if !math.IsInf(end, 1) {
		lookNs = int64((end - minT) * 1e9)
	}
	rows := make([]obs.ShardWindow, len(stats))
	var maxBusy, sumBusy int64
	for s, stat := range stats {
		wait := phaseNs - busyNs[s]
		if wait < 0 {
			wait = 0
		}
		rows[s] = obs.ShardWindow{
			Window: win, Shard: s, T0Ns: t0Ns, LookaheadNs: lookNs,
			BusyNs: busyNs[s], WaitNs: wait, Events: stat.events,
			HandoffOut: stat.out, HandoffIn: stat.in,
		}
		d.cBusy.Add(busyNs[s])
		d.cWait.Add(wait)
		if busyNs[s] > maxBusy {
			maxBusy = busyNs[s]
		}
		sumBusy += busyNs[s]
		if d.tracer != nil {
			d.tracer.Record(obs.Event{TimeNs: t0Ns, Kind: "shard_window",
				ID: win, Node: s, Hop: int(stat.events),
				Detail: fmt.Sprintf("busy_ns=%d wait_ns=%d out=%d in=%d",
					busyNs[s], wait, stat.out, stat.in)})
		}
	}
	if sumBusy > 0 {
		d.hImb.Observe(int64(float64(maxBusy) * float64(len(stats)) / float64(sumBusy) * 1000))
	}
	d.profile.RecordWindow(rows)
}

// newShardFaultStates arms one independent faultState per shard: every shard
// applies the full plan at the exact simulated times (the plan events are
// replicated into each shard's queue), so all per-shard failure views agree
// at every instant and the per-shard epoch timelines align boundary for
// boundary. Only shard 0 carries the run's metrics and tracer — fault
// transitions would otherwise be counted and traced once per shard.
func newShardFaultStates(plan *failure.FaultPlan, net *topology.Network, shards int, wantTimeline bool, metrics *obs.Registry, tracer *obs.Tracer) ([]*faultState, error) {
	states := make([]*faultState, shards)
	for s := range states {
		var tl *Timeline
		if wantTimeline {
			tl = &Timeline{}
		}
		reg, tr := (*obs.Registry)(nil), (*obs.Tracer)(nil)
		if s == 0 {
			reg, tr = metrics, tracer
		}
		fs, err := newFaultState(plan, net, tl, reg, tr)
		if err != nil {
			return nil, err
		}
		states[s] = fs
	}
	return states, nil
}

// finishShardTimelines closes every shard's final epoch at the global
// makespan and merges the per-shard timelines into dst. Epoch boundaries are
// identical across shards by construction; counts sum, and FaultEvents —
// counted once per shard — come from shard 0 alone. Without a destination
// timeline (or a fault plan) there is nothing to close: the fault states
// then keep no timeline of their own.
func finishShardTimelines(dst *Timeline, states []*faultState, makespanSec float64) error {
	if dst == nil || len(states) == 0 {
		return nil
	}
	for _, fs := range states {
		fs.finish(makespanSec)
	}
	base := states[0].timeline
	dst.Epochs = append(dst.Epochs[:0], base.Epochs...)
	for s := 1; s < len(states); s++ {
		part := states[s].timeline
		if len(part.Epochs) != len(base.Epochs) {
			return fmt.Errorf("packetsim: shard %d saw %d fault epochs, shard 0 saw %d",
				s, len(part.Epochs), len(base.Epochs))
		}
		for i, e := range part.Epochs {
			m := &dst.Epochs[i]
			if e.StartSec != m.StartSec || e.EndSec != m.EndSec {
				return fmt.Errorf("packetsim: shard %d epoch %d boundary mismatch", s, i)
			}
			m.Delivered += e.Delivered
			m.DeliveredBytes += e.DeliveredBytes
			m.DroppedTail += e.DroppedTail
			m.DroppedFault += e.DroppedFault
			m.Retransmits += e.Retransmits
			m.Reroutes += e.Reroutes
			m.Failovers += e.Failovers
			m.CompletedFlows += e.CompletedFlows
		}
	}
	return nil
}

// mergeLatencies concatenates the shards' delivery-latency samples (a single
// part is sorted in place, not copied), sorts them, and returns the mean and
// nearest-rank p99. Sorting first makes both numbers independent of how
// deliveries were distributed across shards: the multiset is identical for
// every shard count, the quantile is an order statistic, and summing in
// ascending order fixes the float accumulation order bit for bit. It reuses quantile's nearestRankIndex so the merged and
// single-slice quantile definitions can never drift apart.
func mergeLatencies(parts [][]float64) (avg, p99 float64) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return 0, 0
	}
	all := parts[0] // a single part is sorted in place
	if len(parts) > 1 {
		all = make([]float64, 0, n)
		for _, p := range parts {
			all = append(all, p...)
		}
	}
	sort.Float64s(all)
	sum := 0.0
	for _, v := range all {
		sum += v
	}
	return sum / float64(n), all[nearestRankIndex(n, 0.99)]
}
