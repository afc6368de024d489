// Time-resolved telemetry for the event engines: when a run is given an
// obs.Series (Config.Series), each engine routes its goodput, drop-cause,
// retransmit, queue-depth, failover, and reroute updates into sim-time
// windows alongside the whole-run counters. Every update is stamped with the
// event's simulated time, and window cells only accumulate commutative
// quantities, so a sharded run's series is byte-identical for every shard
// and worker count — the same guarantee as the Result merge.

package packetsim

import "repro/internal/obs"

// Series track names registered on Config.Series by the engines. The packet
// engine writes the first four; the transport engine writes all of them.
const (
	// SeriesGoodputBytes accrues delivered payload bytes: at delivery in the
	// packet engine, at cumulative-ACK advance in the transport engines.
	SeriesGoodputBytes = "goodput_bytes"
	// SeriesQueueDepth samples the drop-tail backlog (packets) ahead of each
	// transmission; the window max is the backlog high-water mark.
	SeriesQueueDepth = "queue_depth_pkts"
	// Per-cause drop curves, one update per lost packet.
	SeriesDropTail  = "drop_droptail"
	SeriesDropFault = "drop_fault"
	// Transport-only curves.
	SeriesRetransmits = "retransmits"
	SeriesFailovers   = "failovers"
	SeriesReroutes    = "reroutes"
)

// seriesTracks hoists an engine run's tracks the way the engines hoist
// nil-able instruments: the zero value (series disabled) leaves every track
// nil, so each recording site costs one pointer test, and armed gates the
// sites that would otherwise compute a timestamp for nothing.
type seriesTracks struct {
	armed bool

	goodput   *obs.Track
	queue     *obs.Track
	dropTail  *obs.Track
	dropFault *obs.Track
	rtx       *obs.Track
	failover  *obs.Track
	reroute   *obs.Track
}

func newSeriesTracks(s *obs.Series) seriesTracks {
	if s == nil {
		return seriesTracks{}
	}
	return seriesTracks{
		armed:     true,
		goodput:   s.Track(SeriesGoodputBytes),
		queue:     s.Track(SeriesQueueDepth),
		dropTail:  s.Track(SeriesDropTail),
		dropFault: s.Track(SeriesDropFault),
		rtx:       s.Track(SeriesRetransmits),
		failover:  s.Track(SeriesFailovers),
		reroute:   s.Track(SeriesReroutes),
	}
}
