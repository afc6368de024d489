package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// span is one timed public call into a layer, made from the benchmark.
type span struct {
	name       string
	parent     int // index into spans.list; -1 for a root
	start, end time.Duration
}

// spans records the traced run's spans in memory. Calls nest: a span begun
// while another is open is its child. A nil *spans records nothing, so the
// untraced run pays one pointer test per call, as with the obs hooks.
type spans struct {
	t0    time.Time
	list  []span
	stack []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string) {
	if s == nil {
		return
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	s.stack = append(s.stack, len(s.list))
	s.list = append(s.list, span{name: name, parent: parent, start: time.Since(s.t0)})
}

func (s *spans) end() {
	if s == nil {
		return
	}
	n := len(s.stack) - 1
	s.list[s.stack[n]].end = time.Since(s.t0)
	s.stack = s.stack[:n]
}

// timeCall runs f inside a span and returns its host time in seconds.
func timeCall(sp *spans, name string, f func() error) (float64, error) {
	sp.begin(name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0).Seconds()
	sp.end()
	return d, err
}

// Span event kinds in the run record. Each span is a begin and an end
// event sharing the span's index as ID; Node holds the parent span's index
// (-1 for a root) and Detail the span's name. TimeNs is host time since the
// traced run started.
const (
	eventSpanBegin = "span_begin"
	eventSpanEnd   = "span_end"
)

// writeRecord writes the spans and the shard profile as an obs run record,
// the JSONL format cmd/obsreport renders.
func writeRecord(path string, meta obs.RunMeta, sp *spans, prof *obs.ShardProfile) error {
	tr := obs.NewTracer(2 * len(sp.list))
	for i, s := range sp.list {
		tr.Record(obs.Event{TimeNs: s.start.Nanoseconds(), Kind: eventSpanBegin, ID: int64(i), Node: s.parent, Detail: s.name})
		tr.Record(obs.Event{TimeNs: s.end.Nanoseconds(), Kind: eventSpanEnd, ID: int64(i), Node: s.parent, Detail: s.name})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("perfbench: run record: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: run record: %w", err)
	}
	if err := obs.WriteRun(f, meta, tr, nil, prof); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuProfile runs f under the runtime CPU profiler, writing the profile to
// path.
func cpuProfile(path string, f func() error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("perfbench: cpu profile: %w", err)
	}
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return fmt.Errorf("perfbench: cpu profile: %w", err)
	}
	ferr := f()
	pprof.StopCPUProfile()
	if err := out.Close(); err != nil {
		return fmt.Errorf("perfbench: cpu profile: %w", err)
	}
	return ferr
}

// packageShare summarizes a CPU profile with the local `go tool pprof` and
// returns the share of sampled CPU time whose innermost frame (flat time,
// inlined frames included) is a function of the package with import path
// pkg.
func packageShare(profile, pkg string) (float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ns", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("perfbench: go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out, pkg)
}

// parseTop reads `pprof -top -unit=ns` text: a "Showing nodes accounting
// for A, P% of T total" header, then one row per function whose first
// column is its flat time and whose last is its name.
func parseTop(top []byte, pkg string) (float64, error) {
	var total, flat float64
	sc := bufio.NewScanner(bytes.NewReader(top))
	inRows := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if i := strings.Index(sc.Text(), " of "); i >= 0 && strings.HasSuffix(sc.Text(), " total") {
			v, err := parseNs(strings.Fields(sc.Text()[i+4:])[0])
			if err != nil {
				return 0, err
			}
			total = v
			continue
		}
		if fields[0] == "flat" {
			inRows = true
			continue
		}
		if !inRows || len(fields) < 6 {
			continue
		}
		name := strings.Join(fields[5:], " ")
		if strings.HasPrefix(name, pkg+".") {
			v, err := parseNs(fields[0])
			if err != nil {
				return 0, err
			}
			flat += v
		}
	}
	if total <= 0 {
		return 0, fmt.Errorf("perfbench: pprof output has no sample total")
	}
	return flat / total, nil
}

func parseNs(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ns"), 64)
	if err != nil {
		return 0, fmt.Errorf("perfbench: pprof value %q: %w", s, err)
	}
	return v, nil
}

// gcCPU reads the runtime's cumulative GC and total CPU-time estimates.
// The runtime refreshes them at the end of each GC cycle, so a reading
// taken right after runtime.GC is current.
func gcCPU() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}
