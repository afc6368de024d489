// Command perfbench is the repository's benchmark. It generates one named
// workload from a seed, runs it through the simulation cores' public entry
// points on their parallel and serial paths, checks every result, and
// prints host-time metrics. With -trace 1 it instead arms the obs hooks the
// layers expose and reports per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Repeat counts. Set-up repeats until setupBudget is spent, within
// [minSetups, maxSetups]; timed runs repeat until -seconds is spent, at
// least minRepeats times per path. The traced run profiles serial runs for
// at least minProfile.
const (
	minSetups   = 3
	maxSetups   = 200
	setupBudget = time.Second
	minRepeats  = 2
	minProfile  = 250 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds spent on timed repeats")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's record and CPU profile")
	source := fs.String("source", "", "digest of the source tree, recorded beside the VCS revision")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), log: stdout, errs: stderr}
	emit(stdout, map[string]any{"provenance": provenance(w, *seed, *seconds, *trace == 1, *source)})

	var res result
	var err error
	if *trace == 1 {
		res, err = b.traced(*out)
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	emit(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

func emit(w io.Writer, v any) {
	line, err := json.Marshal(v)
	if err != nil {
		panic(err) // every emitted value is a plain struct or map
	}
	fmt.Fprintf(w, "%s\n", line)
}

// provenance describes the binary, the machine and the inputs of a run.
func provenance(w workload, seed int64, seconds float64, trace bool, source string) map[string]any {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"revision":      rev,
		"vcs_modified":  modified,
		"source_digest": source,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"num_cpu":       runtime.NumCPU(),
		"workload":      w.name,
		"params":        w.params,
		"work_unit":     w.unit,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         trace,
	}
}

// bench runs one workload invocation.
type bench struct {
	w      workload
	seed   int64
	budget time.Duration
	log    io.Writer // per-repeat lines
	errs   io.Writer // failed checks
	sp     *spans    // nil when untraced

	inst      instance
	ref       [2]*outcome // first result per path
	attempted int
	failed    int
}

// sample is one timed call.
type sample struct {
	sec     float64
	alloc   float64 // bytes allocated
	mallocs float64
	rss     float64 // peak resident set during the call, bytes
	// gcCPU and cpu are the runtime's GC and total CPU-second estimates
	// over the call, when measured.
	gcCPU, cpu float64
}

func (b *bench) fail(err error) {
	b.failed++
	fmt.Fprintln(b.errs, "perfbench: check failed:", err)
}

// call times one run of path p with the heap settled first, checks it, and
// checks its digest against the path's first result. With gc set it also
// measures the GC's CPU share, net of the collections it forces to read it.
func (b *bench) call(p path, arm *armed, gc bool) (sample, outcome) {
	var s sample
	var m0, m1 runtime.MemStats
	runtime.GC()
	var g0, c0 float64
	if gc {
		g0, c0 = gcCPU()
	}
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	name := b.w.calls[p]
	b.sp.begin(name)
	t0 := time.Now()
	o, err := b.inst.run(p, arm)
	s.sec = time.Since(t0).Seconds()
	b.sp.end()
	s.rss = peakRSS()
	runtime.ReadMemStats(&m1)
	s.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	s.mallocs = float64(m1.Mallocs - m0.Mallocs)
	if gc {
		runtime.GC()
		g1, c1 := gcCPU()
		runtime.GC()
		g2, c2 := gcCPU()
		s.gcCPU, s.cpu = (g1-g0)-(g2-g1), (c1-c0)-(c2-c1)
	}

	b.attempted++
	if err == nil {
		if b.ref[p] == nil {
			b.ref[p] = &o
		} else {
			err = checkSame(name+" repeat", *b.ref[p], o)
		}
	}
	if err != nil {
		b.fail(err)
	}
	emit(b.log, map[string]any{"repeat": map[string]any{
		"call": name, "armed": arm != nil, "host_s": s.sec, "digest": o.digest, "ok": err == nil}})
	return s, o
}

// setups builds the workload's inputs repeatedly, keeping the last, and
// returns each set-up's host time and per-layer times.
func (b *bench) setups() ([]float64, map[string][]float64, error) {
	var times []float64
	layers := map[string][]float64{}
	var total time.Duration
	for i := 0; i < minSetups || (total < setupBudget && i < maxSetups); i++ {
		b.inst = nil
		runtime.GC()
		layer := map[string]float64{}
		b.sp.begin("setup")
		t0 := time.Now()
		inst, err := b.w.setup(b.seed, b.sp, layer)
		d := time.Since(t0)
		b.sp.end()
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", b.w.name, err)
		}
		b.inst = inst
		total += d
		times = append(times, d.Seconds())
		for k, v := range layer {
			layers[k] = append(layers[k], v)
		}
	}
	return times, layers, nil
}

// warm runs each path once, making the reference results, and makes the
// checks that relate them.
func (b *bench) warm() {
	b.sp.begin("warm-up")
	defer b.sp.end()
	_, par := b.call(parallel, nil, false)
	_, ser := b.call(serial, nil, false)
	if b.ref[parallel] == nil || b.ref[serial] == nil {
		return // the failed run is already counted
	}
	b.attempted++
	if err := b.inst.verify(par, ser); err != nil {
		b.fail(err)
	}
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (result, error) {
	setupS, _, err := b.setups()
	if err != nil {
		return result{}, err
	}
	b.warm()
	var par, ser []sample
	deadline := time.Now().Add(b.budget)
	for i := 0; i < minRepeats || time.Now().Before(deadline); i++ {
		s, _ := b.call(parallel, nil, false)
		par = append(par, s)
		s, _ = b.call(serial, nil, false)
		ser = append(ser, s)
	}
	runS := median(field(par, sec))
	vals := map[string]float64{
		"setup_s":      median(setupS),
		"run_s":        runS,
		"run_serial_s": median(field(ser, sec)),
		"alloc_mb":     median(field(par, func(s sample) float64 { return s.alloc })) / 1e6,
		"peak_rss_mb":  median(field(par, func(s sample) float64 { return s.rss })) / 1e6,
	}
	if b.ref[parallel] != nil {
		vals["work_per_s"] = float64(b.ref[parallel].work) / runS
	}
	emit(b.log, map[string]any{"spread": map[string]spread{
		"setup_s":      spreadOf(setupS),
		"run_s":        spreadOf(field(par, sec)),
		"run_serial_s": spreadOf(field(ser, sec)),
	}})
	return b.result(endToEnd, vals)
}

// traced measures the per-layer metrics: it times each layer's public
// calls from outside, arms the obs hooks on the parallel path, profiles
// serial runs, and writes the spans as an obs run record.
func (b *bench) traced(outDir string) (result, error) {
	b.sp = newSpans()
	_, setupLayers, err := b.setups()
	if err != nil {
		return result{}, err
	}
	layer := map[string]float64{}
	for k, v := range setupLayers {
		layer[k] = median(v)
	}
	b.warm()

	var par, parArmed, ser []sample
	var last outcome
	var lastArm *armed
	deadline := time.Now().Add(b.budget)
	for i := 0; i < minRepeats || time.Now().Before(deadline); i++ {
		s, _ := b.call(parallel, nil, true)
		par = append(par, s)
		arm := &armed{reg: obs.NewRegistry(), prof: obs.NewShardProfile()}
		s, o := b.call(parallel, arm, false)
		parArmed = append(parArmed, s)
		if o.layer != nil {
			last, lastArm = o, arm
		}
		s, _ = b.call(serial, nil, false)
		ser = append(ser, s)
	}
	for k, v := range last.layer {
		layer[k] = v
	}

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	b.attempted++
	if err := cpuProfile(base+".cpu.pprof", func() error {
		// At least minProfile of samples, so a short run still has some.
		for t0 := time.Now(); time.Since(t0) < minProfile; {
			b.call(serial, nil, false)
		}
		return nil
	}); err != nil {
		b.fail(err)
	} else if layer["eventq.cpu_frac"], err = packageShare(base+".cpu.pprof", "repro/internal/eventq"); err != nil {
		b.fail(err)
	}

	b.attempted++
	b.sp.begin("probe")
	if layer["core.route_ns"], err = routeProbe(b.sp, b.inst.topology(), b.seed); err == nil {
		err = b.inst.probe(b.sp, layer)
	}
	b.sp.end()
	if err != nil {
		b.fail(err)
	}

	t := timing{
		parS:       median(field(par, sec)),
		serS:       median(field(ser, sec)),
		serMallocs: median(field(ser, func(s sample) float64 { return s.mallocs })),
	}
	if b.ref[parallel] != nil {
		t.work = float64(b.ref[parallel].work)
	}
	b.inst.derive(t, layer)
	var gcSum, cpuSum float64
	for _, s := range par {
		gcSum += s.gcCPU
		cpuSum += s.cpu
	}
	if cpuSum > 0 {
		layer["runtime.gc_cpu_frac"] = gcSum / cpuSum
	}
	layer["obs.overhead_frac"] = median(field(parArmed, sec))/t.parS - 1

	meta := obs.RunMeta{Label: fmt.Sprintf("perfbench %s seed %d", b.w.name, b.seed), Engine: "perfbench",
		Workload: b.w.name, Workers: runtime.GOMAXPROCS(0), Metrics: true, Trace: true}
	var prof *obs.ShardProfile
	if lastArm != nil && len(lastArm.prof.Windows()) > 0 {
		prof, meta.Profile = lastArm.prof, true
	}
	if err := writeRecord(base+".jsonl", meta, b.sp, prof); err != nil {
		return result{}, err
	}
	emit(b.log, map[string]any{"run_record": base + ".jsonl", "cpu_profile": base + ".cpu.pprof"})
	return b.result(perLayer, layer)
}

func (b *bench) result(defs []metricDef, vals map[string]float64) (result, error) {
	m, err := fill(defs, vals)
	if err != nil {
		return result{}, err
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

func sec(s sample) float64 { return s.sec }

func field(xs []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// resetPeakRSS resets the kernel's resident-set high-water mark of the
// process (Linux 4.0+). Where that fails, peakRSS reads the peak since the
// process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's resident-set high-water mark in bytes.
func peakRSS() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}
