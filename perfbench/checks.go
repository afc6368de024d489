package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/emu"
	"repro/internal/packetsim"
	"repro/internal/surv"
	"repro/internal/svc"
)

// digest fingerprints a simulated result. %+v prints every float in its
// shortest round-tripping form, so equal digests mean equal results; v
// must hold no pointers, whose addresses would print instead.
func digest(v any) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(h[:8])
}

// survDigest fingerprints trial statistics by value (Stats holds *Result).
func survDigest(st *surv.Stats) string {
	trials := make([]surv.Result, len(st.Trials))
	for i, r := range st.Trials {
		trials[i] = *r
	}
	return digest(struct {
		Trials    []surv.Result
		MTTF      surv.Estimate
		Below     []surv.Estimate
		MeanCurve []surv.MeanSample
	}{trials, st.MTTF, st.Below, st.MeanCurve})
}

// checkPackets checks packet conservation: every offered packet was
// delivered or dropped.
func checkPackets(offered int, r packetsim.Result) error {
	if got := r.Delivered + r.Dropped + r.DroppedFault; got != offered {
		return fmt.Errorf("packetsim: delivered %d + dropped %d + fault-dropped %d = %d, offered %d",
			r.Delivered, r.Dropped, r.DroppedFault, got, offered)
	}
	return nil
}

// checkServing checks a serving run's accounting: every injected message
// delivered or dropped, every request completed or timed out.
func checkServing(requests int, s emu.WorkloadStats) error {
	if !s.Accounted() {
		return fmt.Errorf("emu: injected %d != delivered %d + dropped %d/%d/%d",
			s.Injected, s.Delivered, s.DroppedFailed, s.DroppedTTL, s.DroppedOverflow)
	}
	if s.Requests != requests || s.Completed+s.TimedOut != requests {
		return fmt.Errorf("emu: %d requests issued, completed %d + timed out %d, want %d",
			s.Requests, s.Completed, s.TimedOut, requests)
	}
	return nil
}

// checkService checks request conservation and the analyzer's per-request
// attempt bound, as F30 does.
func checkService(requests int, bound int64, r *svc.Result) error {
	if r.Requests != requests || r.Completed+r.DeadlineExceeded+r.Aborted != requests {
		return fmt.Errorf("svc: %d requests, completed %d + deadline %d + aborted %d, want %d",
			r.Requests, r.Completed, r.DeadlineExceeded, r.Aborted, requests)
	}
	if int64(r.MaxRequestLegs) > bound {
		return fmt.Errorf("svc: a request used %d legs, analyzer bound %d", r.MaxRequestLegs, bound)
	}
	return nil
}

// checkLifetimes checks that the trials replayed exactly the plan events
// inside the horizon.
func checkLifetimes(events int, st *surv.Stats) error {
	got := 0
	for _, r := range st.Trials {
		got += r.Events
	}
	if got != events {
		return fmt.Errorf("surv: trials replayed %d events, plans hold %d inside the horizon", got, events)
	}
	return nil
}

// checkSame checks that two runs of one input produced identical results.
func checkSame(what string, a, b outcome) error {
	if a.digest != b.digest {
		return fmt.Errorf("%s: result digests differ: %s vs %s", what, a.digest, b.digest)
	}
	return nil
}
