// Terminal rendering: the timeline table, the shard-runtime summary, and the
// two-file diff. Everything here works from loaded records only — the tool
// never re-runs a simulation.

package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/obs"
	"repro/internal/packetsim"
)

// trackDropStale is the stale-route drop track of run records written before
// the transport engine carried each packet's path: packets in flight on a
// superseded route were dropped then, and such records still render.
const trackDropStale = "drop_stale"

// Track labels the report knows how to head columns with; anything else in a
// file still shows up in totals and the diff under its raw track name.
var trackLabels = map[string]string{
	packetsim.SeriesGoodputBytes: "goodput bytes",
	packetsim.SeriesQueueDepth:   "queue depth",
	packetsim.SeriesDropTail:     "tail drops",
	packetsim.SeriesDropFault:    "fault drops",
	trackDropStale:               "stale drops",
	packetsim.SeriesRetransmits:  "retransmits",
	packetsim.SeriesReroutes:     "reroutes",
	packetsim.SeriesFailovers:    "failovers",
}

// foldedSeries is the dense per-window view of a file's series points: one
// vector per track, window 0 through the last active window.
type foldedSeries struct {
	widthNs int64
	n       int
	sums    map[string][]int64
	maxs    map[string][]int64
	counts  map[string][]int64
}

// foldSeries folds the points into dense vectors. The window width comes from
// the points themselves (T1-T0), so files without a meta header still render.
func foldSeries(pts []obs.SeriesPoint) *foldedSeries {
	fs := &foldedSeries{
		sums:   map[string][]int64{},
		maxs:   map[string][]int64{},
		counts: map[string][]int64{},
	}
	max := int64(-1)
	for _, pt := range pts {
		if pt.Window > max {
			max = pt.Window
		}
		if fs.widthNs == 0 && pt.T1Ns > pt.T0Ns {
			fs.widthNs = pt.T1Ns - pt.T0Ns
		}
	}
	fs.n = int(max + 1)
	for _, pt := range pts {
		s := fs.sums[pt.Track]
		if s == nil {
			s = make([]int64, fs.n)
			fs.sums[pt.Track] = s
			fs.maxs[pt.Track] = make([]int64, fs.n)
			fs.counts[pt.Track] = make([]int64, fs.n)
		}
		s[pt.Window] += pt.Sum
		fs.counts[pt.Track][pt.Window] += pt.Count
		if pt.Max > fs.maxs[pt.Track][pt.Window] {
			fs.maxs[pt.Track][pt.Window] = pt.Max
		}
	}
	return fs
}

// at returns the summed value of a track at window w (0 for absent tracks).
func (fs *foldedSeries) at(track string, w int) int64 {
	if s := fs.sums[track]; s != nil {
		return s[w]
	}
	return 0
}

// goodputGbps converts a goodput-bytes window sum to Gb/s over the window.
func (fs *foldedSeries) goodputGbps(w int) float64 {
	if fs.widthNs == 0 {
		return 0
	}
	return float64(fs.at(packetsim.SeriesGoodputBytes, w)) * 8 / float64(fs.widthNs)
}

// hasKnownTracks reports whether any packetsim track the report has
// dedicated columns for appears in the fold.
func (fs *foldedSeries) hasKnownTracks() bool {
	for track := range trackLabels {
		if fs.sums[track] != nil {
			return true
		}
	}
	return false
}

// tracks returns the sorted track names present in the fold.
func (fs *foldedSeries) tracks() []string {
	names := make([]string, 0, len(fs.sums))
	for name := range fs.sums {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// totals returns the whole-run sum per track, sorted by track name.
func (fs *foldedSeries) totals() map[string]int64 {
	out := make(map[string]int64, len(fs.sums))
	for name, s := range fs.sums {
		var t int64
		for _, v := range s {
			t += v
		}
		out[name] = t
	}
	return out
}

// profileOf reconstructs an obs.ShardProfile from loaded rows so its summary
// and imbalance helpers apply to offline files.
func profileOf(rows []obs.ShardWindow) *obs.ShardProfile {
	if len(rows) == 0 {
		return nil
	}
	p := obs.NewShardProfile()
	p.RecordWindow(rows)
	return p
}

// eventKinds tallies trace events by kind with first/last timestamps.
type kindStat struct {
	kind        string
	count       int
	first, last int64
}

func eventKinds(events []obs.Event) []kindStat {
	byKind := map[string]*kindStat{}
	for _, ev := range events {
		ks := byKind[ev.Kind]
		if ks == nil {
			ks = &kindStat{kind: ev.Kind, first: ev.TimeNs, last: ev.TimeNs}
			byKind[ev.Kind] = ks
		}
		ks.count++
		if ev.TimeNs < ks.first {
			ks.first = ev.TimeNs
		}
		if ev.TimeNs > ks.last {
			ks.last = ev.TimeNs
		}
	}
	out := make([]kindStat, 0, len(byKind))
	for _, ks := range byKind {
		out = append(out, *ks)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].kind < out[j].kind })
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// writeMeta prints the run header common to the report and both diff columns.
func writeMeta(w io.Writer, r *runFile) {
	recs := r.recs
	if recs.HasMeta {
		m := recs.Meta
		fmt.Fprintf(w, "run: %s  engine=%s  topology=%s  workload=%s\n",
			orDash(m.Label), orDash(m.Engine), orDash(m.Topology), orDash(m.Workload))
		if m.Shards > 0 {
			fmt.Fprintf(w, "shards=%d workers=%d  ", m.Shards, m.Workers)
		}
		if m.SeriesWindowNs > 0 {
			fmt.Fprintf(w, "series window=%.2fms  ", ms(m.SeriesWindowNs))
		}
	} else {
		fmt.Fprintf(w, "run: %s (no meta header: legacy trace)\n", r.name)
	}
	fmt.Fprintf(w, "records: %d events, %d series points, %d shard windows",
		len(recs.Events), len(recs.Series), len(recs.ShardWindows))
	if recs.Unknown > 0 {
		fmt.Fprintf(w, ", %d unknown (skipped)", recs.Unknown)
	}
	fmt.Fprintln(w)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// writeReport renders the terminal timeline: meta, the per-window table, the
// shard-runtime summary, and the trace-event tally.
func writeReport(w io.Writer, r *runFile) error {
	writeMeta(w, r)
	recs := r.recs

	if len(recs.Series) > 0 {
		fs := foldSeries(recs.Series)
		fmt.Fprintf(w, "\ntimeline (%.2f ms windows):\n", ms(fs.widthNs))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		if fs.hasKnownTracks() {
			fmt.Fprintln(tw, "win\tt(ms)\tgoodput(Gb/s)\tdrops fault/stale/tail\trtx\treroutes\tfailovers\tqueue max")
			for i := 0; i < fs.n; i++ {
				t0 := ms(int64(i) * fs.widthNs)
				fmt.Fprintf(tw, "%d\t%.2f-%.2f\t%.3f\t%d/%d/%d\t%d\t%d\t%d\t%d\n",
					i, t0, t0+ms(fs.widthNs), fs.goodputGbps(i),
					fs.at(packetsim.SeriesDropFault, i),
					fs.at(trackDropStale, i),
					fs.at(packetsim.SeriesDropTail, i),
					fs.at(packetsim.SeriesRetransmits, i),
					fs.at(packetsim.SeriesReroutes, i),
					fs.at(packetsim.SeriesFailovers, i),
					maxAt(fs, packetsim.SeriesQueueDepth, i))
			}
		} else {
			// Tracks this tool has no dedicated columns for (a suite record,
			// a future engine): one summed column per track, raw names.
			fmt.Fprint(tw, "win\tt(ms)")
			names := fs.tracks()
			for _, n := range names {
				fmt.Fprintf(tw, "\t%s", n)
			}
			fmt.Fprintln(tw)
			for i := 0; i < fs.n; i++ {
				t0 := ms(int64(i) * fs.widthNs)
				fmt.Fprintf(tw, "%d\t%.2f-%.2f", i, t0, t0+ms(fs.widthNs))
				for _, n := range names {
					fmt.Fprintf(tw, "\t%d", fs.at(n, i))
				}
				fmt.Fprintln(tw)
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if prof := profileOf(recs.ShardWindows); prof != nil {
		rowsPerShard := map[int]int{}
		for _, row := range recs.ShardWindows {
			rowsPerShard[row.Shard]++
		}
		fmt.Fprintf(w, "\nshard runtime (%d conservative windows):\n",
			len(recs.ShardWindows)/shardsIn(recs.ShardWindows))
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "shard\twindows\tevents\tbusy(ms)\twait(ms)\tutil%\thandoff out/in")
		for _, s := range prof.Summary() {
			util := 0.0
			if s.BusyNs+s.WaitNs > 0 {
				util = float64(s.BusyNs) / float64(s.BusyNs+s.WaitNs) * 100
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%.2f\t%.2f\t%.1f\t%d/%d\n",
				s.Shard, rowsPerShard[s.Shard], s.Events, ms(s.BusyNs), ms(s.WaitNs), util,
				s.HandoffOut, s.HandoffIn)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(w, "imbalance index: %.2f (mean of per-window max/mean busy; 1 = perfectly balanced)\n",
			prof.ImbalanceIndex())
	}

	if len(recs.Events) > 0 {
		fmt.Fprintln(w, "\ntrace events:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "kind\tcount\tfirst(ms)\tlast(ms)")
		for _, ks := range eventKinds(recs.Events) {
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\n", ks.kind, ks.count, ms(ks.first), ms(ks.last))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func maxAt(fs *foldedSeries, track string, w int) int64 {
	if m := fs.maxs[track]; m != nil {
		return m[w]
	}
	return 0
}

// shardsIn counts the distinct shards in a row set.
func shardsIn(rows []obs.ShardWindow) int {
	seen := map[int]bool{}
	for _, r := range rows {
		seen[r.Shard] = true
	}
	if len(seen) == 0 {
		return 1
	}
	return len(seen)
}

// writeDiff renders the side-by-side comparison of two run records: meta,
// per-track series totals, shard-runtime totals, and trace-event tallies.
func writeDiff(w io.Writer, a, b *runFile) error {
	fmt.Fprintf(w, "A: %s\n", a.name)
	writeMeta(w, a)
	fmt.Fprintf(w, "\nB: %s\n", b.name)
	writeMeta(w, b)

	fa, fb := foldSeries(a.recs.Series), foldSeries(b.recs.Series)
	ta, tb := fa.totals(), fb.totals()
	names := map[string]bool{}
	for n := range ta {
		names[n] = true
	}
	for n := range tb {
		names[n] = true
	}
	if len(names) > 0 {
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		fmt.Fprintln(w, "\nseries totals:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "track\tA\tB\tdelta")
		for _, n := range sorted {
			label := n
			if l, ok := trackLabels[n]; ok {
				label = l
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%+d\n", label, ta[n], tb[n], tb[n]-ta[n])
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	pa, pb := profileOf(a.recs.ShardWindows), profileOf(b.recs.ShardWindows)
	if pa != nil || pb != nil {
		fmt.Fprintln(w, "\nshard runtime:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "\tA\tB")
		line := func(label string, va, vb string) { fmt.Fprintf(tw, "%s\t%s\t%s\n", label, va, vb) }
		line("windows", profWindows(pa), profWindows(pb))
		line("busy(ms)", profBusy(pa), profBusy(pb))
		line("wait(ms)", profWait(pa), profWait(pb))
		line("imbalance", profImb(pa), profImb(pb))
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	ka, kb := eventKinds(a.recs.Events), eventKinds(b.recs.Events)
	if len(ka) > 0 || len(kb) > 0 {
		counts := map[string][2]int{}
		for _, ks := range ka {
			c := counts[ks.kind]
			c[0] = ks.count
			counts[ks.kind] = c
		}
		for _, ks := range kb {
			c := counts[ks.kind]
			c[1] = ks.count
			counts[ks.kind] = c
		}
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintln(w, "\ntrace events:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "kind\tA\tB\tdelta")
		for _, k := range kinds {
			c := counts[k]
			fmt.Fprintf(tw, "%s\t%d\t%d\t%+d\n", k, c[0], c[1], c[1]-c[0])
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func profWindows(p *obs.ShardProfile) string {
	if p == nil {
		return "-"
	}
	rows := p.Windows()
	if len(rows) == 0 {
		return "-"
	}
	shards := shardsIn(rows)
	return fmt.Sprintf("%d x %d shards", len(rows)/shards, shards)
}

func profBusy(p *obs.ShardProfile) string {
	if p == nil {
		return "-"
	}
	var busy int64
	for _, s := range p.Summary() {
		busy += s.BusyNs
	}
	return fmt.Sprintf("%.2f", ms(busy))
}

func profWait(p *obs.ShardProfile) string {
	if p == nil {
		return "-"
	}
	var wait int64
	for _, s := range p.Summary() {
		wait += s.WaitNs
	}
	return fmt.Sprintf("%.2f", ms(wait))
}

func profImb(p *obs.ShardProfile) string {
	if p == nil {
		return "-"
	}
	return fmt.Sprintf("%.2f", p.ImbalanceIndex())
}
