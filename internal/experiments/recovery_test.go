package experiments

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// TestRecoveryTimelineDipAndRecovery pins the shape the figure exists to
// show: on every structure the outage epoch's goodput dips below the
// pre-fault epoch's, availability recovers after the repair, and no flow is
// permanently lost (failures cost time, not data).
func TestRecoveryTimelineDipAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery runs are slow; skipped with -short")
	}
	for _, sub := range recoverySubjects() {
		res, tl, _, err := runRecovery(sub.t)
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		if len(tl.Epochs) != 3 {
			t.Fatalf("%s: %d epochs, want 3 (pre-fault, outage, post-repair)", sub.name, len(tl.Epochs))
		}
		pre, outage, post := tl.Epochs[0], tl.Epochs[1], tl.Epochs[2]
		if outage.GoodputBps() >= pre.GoodputBps() {
			t.Errorf("%s: no goodput dip: outage %.0f >= pre-fault %.0f",
				sub.name, outage.GoodputBps(), pre.GoodputBps())
		}
		if outage.DroppedFault == 0 {
			t.Errorf("%s: outage epoch saw no fault drops", sub.name)
		}
		if post.DroppedFault != 0 {
			t.Errorf("%s: %d fault drops after repair", sub.name, post.DroppedFault)
		}
		if post.Availability() <= outage.Availability() {
			t.Errorf("%s: availability did not recover: post %.4f <= outage %.4f",
				sub.name, post.Availability(), outage.Availability())
		}
		if res.FailedFlows != 0 {
			t.Errorf("%s: %d flows permanently failed", sub.name, res.FailedFlows)
		}
	}
}

// TestRecoverySeriesMatchesTimeline pins the equivalence between the two
// time-resolved views of one run: the 1 ms series windows, aggregated along
// the fault-epoch boundaries (which the window width divides exactly), must
// reproduce the Timeline's per-epoch tallies field for field.
func TestRecoverySeriesMatchesTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery runs are slow; skipped with -short")
	}
	for _, sub := range recoverySubjects() {
		_, tl, series, err := runRecovery(sub.t)
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		windows := foldSeriesWindows(series)
		if len(windows) == 0 {
			t.Fatalf("%s: run produced no series windows", sub.name)
		}
		// Each window lies wholly inside one epoch; classify by midpoint so
		// float boundary comparisons have half a window of slack.
		agg := make([]seriesWindow, len(tl.Epochs))
		for w, row := range windows {
			mid := (float64(w) + 0.5) * recoverySeriesWindowSec
			e := len(tl.Epochs) - 1
			for ; e > 0; e-- {
				if tl.Epochs[e].StartSec <= mid {
					break
				}
			}
			a := &agg[e]
			a.goodputBytes += row.goodputBytes
			a.dropFault += row.dropFault
			a.dropTail += row.dropTail
			a.rtx += row.rtx
			a.reroutes += row.reroutes
			a.failovers += row.failovers
		}
		for e, epoch := range tl.Epochs {
			a := agg[e]
			check := func(what string, series, timeline int64) {
				if series != timeline {
					t.Errorf("%s epoch %d: series %s %d != timeline %d",
						sub.name, e, what, series, timeline)
				}
			}
			check("goodput bytes", a.goodputBytes, epoch.DeliveredBytes)
			check("fault drops", a.dropFault, epoch.DroppedFault)
			check("tail drops", a.dropTail, epoch.DroppedTail)
			check("retransmits", a.rtx, epoch.Retransmits)
			check("reroutes", a.reroutes, epoch.Reroutes)
			check("failovers", a.failovers, epoch.Failovers)
		}
	}
}

// TestRecoveryRunRecordLoads pins the run-record export the report tool and
// CI smoke test consume: WriteRecoveryRun's output must load back with its
// meta header and all three telemetry sections populated.
func TestRecoveryRunRecordLoads(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery runs are slow; skipped with -short")
	}
	var buf bytes.Buffer
	if err := WriteRecoveryRun(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !recs.HasMeta {
		t.Error("run record has no meta header")
	}
	if recs.Meta.Engine != "transport-sharded" || !recs.Meta.Series || !recs.Meta.Profile {
		t.Errorf("unexpected meta: %+v", recs.Meta)
	}
	if len(recs.Events) == 0 || len(recs.Series) == 0 || len(recs.ShardWindows) == 0 {
		t.Errorf("sections missing: %d events, %d series points, %d shard windows",
			len(recs.Events), len(recs.Series), len(recs.ShardWindows))
	}
	if recs.Unknown != 0 {
		t.Errorf("%d unknown record lines in a freshly written file", recs.Unknown)
	}
}

// TestRecoveryTimelineDeterministic: same seed, byte-identical figure.
func TestRecoveryTimelineDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery runs are slow; skipped with -short")
	}
	var a, b bytes.Buffer
	if err := F26RecoveryTimeline(&a); err != nil {
		t.Fatal(err)
	}
	if err := F26RecoveryTimeline(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two F26 runs differ byte-for-byte")
	}
}
