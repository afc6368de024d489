package experiments

import (
	"bytes"
	"testing"
)

// TestRunAllParallelMatchesSerial is the determinism contract of the
// parallel engine: for every worker count the parallel runner's output must
// be byte-for-byte identical to the serial RunAll over all experiments.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	serial := serialRender(t).out
	for _, workers := range []int{1, 4, 0} {
		var par bytes.Buffer
		if err := RunAllParallel(&par, workers); err != nil {
			t.Fatalf("RunAllParallel(%d): %v", workers, err)
		}
		if !bytes.Equal(serial, par.Bytes()) {
			t.Fatalf("RunAllParallel(%d) output differs from serial RunAll (%d vs %d bytes)",
				workers, par.Len(), len(serial))
		}
	}
}

func TestRunAllTimedCoversEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	timings, err := RunAllTimed(nullWriter{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := All()
	if len(timings) != len(all) {
		t.Fatalf("got %d timings, want %d", len(timings), len(all))
	}
	for i, tm := range timings {
		if tm.ID != all[i].ID {
			t.Errorf("timing %d is %s, want %s (presentation order)", i, tm.ID, all[i].ID)
		}
		if tm.Seconds < 0 {
			t.Errorf("timing %s negative: %f", tm.ID, tm.Seconds)
		}
	}
}

func TestAllReturnsACopy(t *testing.T) {
	a := All()
	a[0] = Experiment{ID: "clobbered"}
	if b := All(); b[0].ID == "clobbered" {
		t.Error("mutating All()'s result leaked into the registry")
	}
	if NumExperiments() != len(All()) {
		t.Errorf("NumExperiments %d != len(All()) %d", NumExperiments(), len(All()))
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }
