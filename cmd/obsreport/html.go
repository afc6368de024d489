// Self-contained HTML report: inline SVG time-series charts (goodput, drop
// causes, transport activity, queue depth) and a shard busy/wait utilization
// heatmap, with a hover layer and a table view per chart. No external assets:
// the palette, the markup, and the small tooltip script are all inlined, so
// the file opens anywhere.

package main

import (
	"encoding/json"
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/packetsim"
)

// Categorical palette (fixed slot order; color follows the track, never its
// rank) and sequential ramp for the heatmap. Light/dark pairs swap via CSS
// custom properties; see the style block in writeHTML.
var seriesSlots = []struct{ light, dark string }{
	{"#2a78d6", "#3987e5"}, // 1 blue
	{"#eb6834", "#d95926"}, // 2 orange
	{"#1baf7a", "#199e70"}, // 3 aqua
	{"#eda100", "#c98500"}, // 4 yellow
	{"#e87ba4", "#d55181"}, // 5 magenta
	{"#008300", "#008300"}, // 6 green
	{"#4a3aa7", "#9085e9"}, // 7 violet
	{"#e34948", "#e66767"}, // 8 red
}

// trackSlot fixes each known track to a palette slot (0-based).
var trackSlot = map[string]int{
	packetsim.SeriesGoodputBytes: 0,
	packetsim.SeriesDropFault:    1,
	trackDropStale:               2,
	packetsim.SeriesDropTail:     3,
	packetsim.SeriesRetransmits:  4,
	packetsim.SeriesReroutes:     5,
	packetsim.SeriesFailovers:    6,
	packetsim.SeriesQueueDepth:   7,
}

// sequential blue ramp, light surface (step 100..700) — heatmap magnitude.
var seqLight = []string{"#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5", "#256abf", "#184f95", "#0d366b"}

// dark-surface run of the same hue, light→dark meaning low→high utilization
// (reversed so "near zero" recedes toward the dark surface).
var seqDark = []string{"#0d366b", "#184f95", "#1c5cab", "#256abf", "#3987e5", "#6da7ec", "#9ec5f4"}

// Chart geometry (SVG user units).
const (
	chartW     = 760
	chartH     = 230
	plotLeft   = 56
	plotRight  = chartW - 120
	plotTop    = 18
	plotBottom = chartH - 34
)

// chartSeries is one line on a chart.
type chartSeries struct {
	name string
	slot int
	vals []float64
}

// lineChart is one rendered time-series card.
type lineChart struct {
	id, title, sub string
	unit           string
	dec            int // value decimals in labels/tooltips
	widthMs        float64
	series         []chartSeries
}

// jsChart is the hover-layer data embedded for one line chart.
type jsChart struct {
	ID     string      `json:"id"`
	Unit   string      `json:"unit"`
	Dec    int         `json:"dec"`
	Times  []string    `json:"times"`
	Xpx    []float64   `json:"xpx"`
	Names  []string    `json:"names"`
	Slots  []int       `json:"slots"`
	Values [][]float64 `json:"values"`
}

func esc(s string) string { return html.EscapeString(s) }

// niceCeil rounds up to a 1/2/2.5/5 x 10^k ceiling for a clean y-axis.
func niceCeil(v float64) float64 {
	if v <= 0 {
		return 1
	}
	exp := math.Floor(math.Log10(v))
	base := math.Pow(10, exp)
	for _, m := range []float64{1, 2, 2.5, 5, 10} {
		if v <= m*base {
			return m * base
		}
	}
	return 10 * base
}

func fmtVal(v float64, dec int) string {
	return fmt.Sprintf("%.*f", dec, v)
}

// buildCharts derives the report's line charts from the folded series. Only
// tracks present in the file get a line; charts with no tracks are skipped.
func buildCharts(fs *foldedSeries) []*lineChart {
	if fs.n == 0 {
		return nil
	}
	widthMs := ms(fs.widthNs)
	sums := func(track string) []float64 {
		s := fs.sums[track]
		if s == nil {
			return nil
		}
		out := make([]float64, fs.n)
		for i, v := range s {
			out[i] = float64(v)
		}
		return out
	}
	var charts []*lineChart

	if fs.sums[packetsim.SeriesGoodputBytes] != nil {
		vals := make([]float64, fs.n)
		for i := range vals {
			vals[i] = fs.goodputGbps(i)
		}
		charts = append(charts, &lineChart{
			id: "goodput", title: "Goodput", sub: "delivered payload rate per window",
			unit: "Gb/s", dec: 3, widthMs: widthMs,
			series: []chartSeries{{"goodput", trackSlot[packetsim.SeriesGoodputBytes], vals}},
		})
	}

	drops := &lineChart{
		id: "drops", title: "Drops by cause", sub: "packets dropped per window",
		unit: "drops", dec: 0, widthMs: widthMs,
	}
	for _, tr := range []struct{ track, label string }{
		{packetsim.SeriesDropFault, "fault"},
		{trackDropStale, "stale"},
		{packetsim.SeriesDropTail, "tail"},
	} {
		if v := sums(tr.track); v != nil {
			drops.series = append(drops.series, chartSeries{tr.label, trackSlot[tr.track], v})
		}
	}
	if len(drops.series) > 0 {
		charts = append(charts, drops)
	}

	act := &lineChart{
		id: "activity", title: "Recovery activity", sub: "transport recovery actions per window",
		unit: "events", dec: 0, widthMs: widthMs,
	}
	for _, tr := range []struct{ track, label string }{
		{packetsim.SeriesRetransmits, "retransmits"},
		{packetsim.SeriesReroutes, "reroutes"},
		{packetsim.SeriesFailovers, "failovers"},
	} {
		if v := sums(tr.track); v != nil {
			act.series = append(act.series, chartSeries{tr.label, trackSlot[tr.track], v})
		}
	}
	if len(act.series) > 0 {
		charts = append(charts, act)
	}

	// Tracks without a dedicated chart (suite records, future engines) each
	// get their own single-series card — one series, slot 1, named by the
	// card title.
	for ti, track := range fs.tracks() {
		if _, known := trackSlot[track]; known {
			continue
		}
		charts = append(charts, &lineChart{
			id: fmt.Sprintf("track-%d", ti), title: track, sub: "summed per window",
			unit: "sum", dec: 0, widthMs: widthMs,
			series: []chartSeries{{track, 0, sums(track)}},
		})
	}

	if m := fs.maxs[packetsim.SeriesQueueDepth]; m != nil {
		vals := make([]float64, fs.n)
		for i, v := range m {
			vals[i] = float64(v)
		}
		charts = append(charts, &lineChart{
			id: "queue", title: "Queue depth", sub: "deepest backlog sampled per window",
			unit: "pkts", dec: 0, widthMs: widthMs,
			series: []chartSeries{{"max queue", trackSlot[packetsim.SeriesQueueDepth], vals}},
		})
	}
	return charts
}

// xCenter returns the SVG x of window i's center.
func xCenter(i, n int) float64 {
	return plotLeft + (float64(i)+0.5)*(plotRight-plotLeft)/float64(n)
}

// renderLineChart draws one card's SVG: hairline grid, 2px round-join lines,
// ringed markers when the point count allows, and direct end labels (with
// simple collision nudging) when the chart has 2-4 series.
func renderLineChart(b *strings.Builder, c *lineChart) {
	n := len(c.series[0].vals)
	yMax := 0.0
	for _, s := range c.series {
		for _, v := range s.vals {
			if v > yMax {
				yMax = v
			}
		}
	}
	yMax = niceCeil(yMax)
	y := func(v float64) float64 {
		return plotBottom - v/yMax*(plotBottom-plotTop)
	}

	fmt.Fprintf(b, `<svg class="chart" id="%s" viewBox="0 0 %d %d" role="img" aria-label="%s" tabindex="0">`,
		c.id, chartW, chartH, esc(c.title))
	// Grid: 4 horizontal hairlines + baseline, ticks in muted ink.
	for i := 0; i <= 4; i++ {
		gy := plotTop + float64(i)*(plotBottom-plotTop)/4
		cls := "grid"
		if i == 4 {
			cls = "axis"
		}
		fmt.Fprintf(b, `<line class="%s" x1="%d" y1="%.1f" x2="%d" y2="%.1f"/>`,
			cls, plotLeft, gy, plotRight, gy)
		fmt.Fprintf(b, `<text class="tick" x="%d" y="%.1f" text-anchor="end">%s</text>`,
			plotLeft-6, gy+3.5, fmtVal(yMax*float64(4-i)/4, c.dec))
	}
	// X ticks: window starts at ~6 positions.
	step := (n + 5) / 6
	if step < 1 {
		step = 1
	}
	for i := 0; i < n; i += step {
		tx := plotLeft + float64(i)*(plotRight-plotLeft)/float64(n)
		fmt.Fprintf(b, `<text class="tick" x="%.1f" y="%d" text-anchor="middle">%s</text>`,
			tx, plotBottom+16, fmtVal(float64(i)*c.widthMs, 0))
	}
	fmt.Fprintf(b, `<text class="tick" x="%d" y="%d" text-anchor="middle">ms</text>`,
		plotRight+18, plotBottom+16)
	fmt.Fprintf(b, `<text class="unit" x="%d" y="%d">%s</text>`, plotLeft-44, plotTop-4, esc(c.unit))

	// Lines, then markers (markers on top so their surface rings separate
	// crossings). Marker radius 4 with a 2px surface ring.
	for _, s := range c.series {
		var path strings.Builder
		for i, v := range s.vals {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f %.1f", cmd, xCenter(i, n), y(v))
		}
		fmt.Fprintf(b, `<path class="line" d="%s" stroke="var(--series-%d)"/>`, path.String(), s.slot+1)
	}
	if n <= 40 {
		for _, s := range c.series {
			for i, v := range s.vals {
				fmt.Fprintf(b, `<circle class="dot" cx="%.1f" cy="%.1f" r="4" fill="var(--series-%d)"/>`,
					xCenter(i, n), y(v), s.slot+1)
			}
		}
	}
	// Direct end labels for 2-4 series, nudged apart when they collide; a
	// single series is named by the card title, and the legend always covers
	// identity past that.
	if len(c.series) >= 2 && len(c.series) <= 4 {
		type lab struct {
			y    float64
			name string
			slot int
		}
		labs := make([]lab, len(c.series))
		for i, s := range c.series {
			labs[i] = lab{y(s.vals[n-1]), s.name, s.slot}
		}
		sort.Slice(labs, func(i, j int) bool { return labs[i].y < labs[j].y })
		for i := 1; i < len(labs); i++ {
			if labs[i].y < labs[i-1].y+14 {
				labs[i].y = labs[i-1].y + 14
			}
		}
		for _, l := range labs {
			fmt.Fprintf(b, `<rect x="%d" y="%.1f" width="10" height="2" fill="var(--series-%d)"/>`,
				plotRight+8, l.y-1, l.slot+1)
			fmt.Fprintf(b, `<text class="endlabel" x="%d" y="%.1f">%s</text>`,
				plotRight+22, l.y+3.5, esc(l.name))
		}
	}
	// Hover layer targets (filled by script): crosshair + focus dot.
	fmt.Fprintf(b, `<line class="cross" x1="0" x2="0" y1="%d" y2="%d" visibility="hidden"/>`,
		plotTop, plotBottom)
	b.WriteString(`</svg>`)
}

// legendHTML renders the legend row for a multi-series chart (a single
// series needs none — the card title names it).
func legendHTML(b *strings.Builder, c *lineChart) {
	if len(c.series) < 2 {
		return
	}
	b.WriteString(`<div class="legend">`)
	for _, s := range c.series {
		fmt.Fprintf(b, `<span class="key"><span class="swatch" style="background:var(--series-%d)"></span>%s</span>`,
			s.slot+1, esc(s.name))
	}
	b.WriteString(`</div>`)
}

// tableHTML renders the chart's table-view twin inside a <details>.
func tableHTML(b *strings.Builder, c *lineChart) {
	b.WriteString(`<details class="tableview"><summary>Table view</summary><table><thead><tr><th>window (ms)</th>`)
	for _, s := range c.series {
		fmt.Fprintf(b, `<th>%s (%s)</th>`, esc(s.name), esc(c.unit))
	}
	b.WriteString(`</tr></thead><tbody>`)
	n := len(c.series[0].vals)
	for i := 0; i < n; i++ {
		t0 := float64(i) * c.widthMs
		fmt.Fprintf(b, `<tr><td>%s–%s</td>`, fmtVal(t0, 2), fmtVal(t0+c.widthMs, 2))
		for _, s := range c.series {
			fmt.Fprintf(b, `<td>%s</td>`, fmtVal(s.vals[i], c.dec))
		}
		b.WriteString(`</tr>`)
	}
	b.WriteString(`</tbody></table></details>`)
}

// heatmap is the bucketed shard-utilization grid.
type heatmap struct {
	shards  []int
	cols    int
	t0ms    []float64 // per-column start
	t1ms    []float64
	busy    map[int][]int64 // shard -> per-column busy ns
	wait    map[int][]int64
	events  map[int][]int64
	hasData map[int][]bool
}

// heatmapCols caps the grid width: thousands of conservative windows bucket
// into at most this many columns (sums first, ratios after — never an
// average of ratios).
const heatmapCols = 72

func buildHeatmap(rows []obs.ShardWindow) *heatmap {
	if len(rows) == 0 {
		return nil
	}
	minT, maxT := rows[0].T0Ns, rows[0].T0Ns
	shardSet := map[int]bool{}
	for _, r := range rows {
		if r.T0Ns < minT {
			minT = r.T0Ns
		}
		if r.T0Ns > maxT {
			maxT = r.T0Ns
		}
		shardSet[r.Shard] = true
	}
	shards := make([]int, 0, len(shardSet))
	for s := range shardSet {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	span := maxT - minT + 1
	cols := heatmapCols
	if int64(cols) > span {
		cols = int(span)
	}
	hm := &heatmap{
		shards: shards, cols: cols,
		t0ms: make([]float64, cols), t1ms: make([]float64, cols),
		busy: map[int][]int64{}, wait: map[int][]int64{},
		events: map[int][]int64{}, hasData: map[int][]bool{},
	}
	for c := 0; c < cols; c++ {
		hm.t0ms[c] = ms(minT + int64(c)*span/int64(cols))
		hm.t1ms[c] = ms(minT + int64(c+1)*span/int64(cols))
	}
	for _, s := range shards {
		hm.busy[s] = make([]int64, cols)
		hm.wait[s] = make([]int64, cols)
		hm.events[s] = make([]int64, cols)
		hm.hasData[s] = make([]bool, cols)
	}
	for _, r := range rows {
		c := int((r.T0Ns - minT) * int64(cols) / span)
		if c >= cols {
			c = cols - 1
		}
		hm.busy[r.Shard][c] += r.BusyNs
		hm.wait[r.Shard][c] += r.WaitNs
		hm.events[r.Shard][c] += r.Events
		hm.hasData[r.Shard][c] = true
	}
	return hm
}

// renderHeatmap draws the utilization grid: one row per shard, time buckets
// left to right, the sequential ramp carrying busy/(busy+wait). Cells keep a
// 2px surface gap; empty buckets stay surface-colored.
func renderHeatmap(b *strings.Builder, hm *heatmap) {
	const cellH = 30
	top := 18
	gridW := plotRight - plotLeft
	h := top + len(hm.shards)*cellH + 40
	fmt.Fprintf(b, `<svg class="chart heat" id="shards" viewBox="0 0 %d %d" role="img" aria-label="Shard utilization">`,
		chartW, h)
	cw := float64(gridW) / float64(hm.cols)
	for ri, s := range hm.shards {
		fmt.Fprintf(b, `<text class="tick" x="%d" y="%d" text-anchor="end">shard %d</text>`,
			plotLeft-8, top+ri*cellH+cellH/2+4, s)
		for c := 0; c < hm.cols; c++ {
			if !hm.hasData[s][c] {
				continue
			}
			busy, wait := hm.busy[s][c], hm.wait[s][c]
			util := 0.0
			if busy+wait > 0 {
				util = float64(busy) / float64(busy+wait)
			}
			bin := int(util * float64(len(seqLight)))
			if bin >= len(seqLight) {
				bin = len(seqLight) - 1
			}
			tip := fmt.Sprintf("shard %d | %.2f–%.2f ms | util %.0f%% | busy %.3f ms | wait %.3f ms | %d events",
				s, hm.t0ms[c], hm.t1ms[c], util*100, ms(busy), ms(wait), hm.events[s][c])
			fmt.Fprintf(b, `<rect class="cell" x="%.1f" y="%d" width="%.1f" height="%d" fill="var(--seq-%d)" data-tip="%s"/>`,
				float64(plotLeft)+float64(c)*cw+1, top+ri*cellH+1, cw-2, cellH-2, bin+1, esc(tip))
		}
	}
	// Time ticks under the grid.
	for c := 0; c <= 6; c++ {
		frac := float64(c) / 6
		tx := float64(plotLeft) + frac*float64(gridW)
		t := hm.t0ms[0] + frac*(hm.t1ms[hm.cols-1]-hm.t0ms[0])
		fmt.Fprintf(b, `<text class="tick" x="%.1f" y="%d" text-anchor="middle">%.1f</text>`,
			tx, top+len(hm.shards)*cellH+16, t)
	}
	fmt.Fprintf(b, `<text class="tick" x="%d" y="%d" text-anchor="middle">ms</text>`,
		plotRight+18, top+len(hm.shards)*cellH+16)
	// Scale legend: the ramp with 0%% and 100%% anchors.
	ly := top + len(hm.shards)*cellH + 26
	for i := range seqLight {
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="16" height="8" fill="var(--seq-%d)"/>`,
			plotLeft+i*18, ly, i+1)
	}
	fmt.Fprintf(b, `<text class="tick" x="%d" y="%d" text-anchor="start">0%% busy</text>`,
		plotLeft+len(seqLight)*18+6, ly+8)
	fmt.Fprintf(b, `<text class="tick" x="%d" y="%d" text-anchor="end">◀</text>`, plotLeft-4, ly+8)
	b.WriteString(`</svg>`)
}

// heatTableHTML is the heatmap's table-view twin: per-shard totals.
func heatTableHTML(b *strings.Builder, prof *obs.ShardProfile, rows []obs.ShardWindow) {
	rowsPerShard := map[int]int{}
	for _, r := range rows {
		rowsPerShard[r.Shard]++
	}
	b.WriteString(`<details class="tableview"><summary>Table view</summary><table><thead><tr><th>shard</th><th>windows</th><th>events</th><th>busy (ms)</th><th>wait (ms)</th><th>util %</th><th>handoff out/in</th></tr></thead><tbody>`)
	for _, s := range prof.Summary() {
		util := 0.0
		if s.BusyNs+s.WaitNs > 0 {
			util = float64(s.BusyNs) / float64(s.BusyNs+s.WaitNs) * 100
		}
		fmt.Fprintf(b, `<tr><td>%d</td><td>%d</td><td>%d</td><td>%.2f</td><td>%.2f</td><td>%.1f</td><td>%d/%d</td></tr>`,
			s.Shard, rowsPerShard[s.Shard], s.Events, ms(s.BusyNs), ms(s.WaitNs), util, s.HandoffOut, s.HandoffIn)
	}
	fmt.Fprintf(b, `</tbody></table><p class="note">imbalance index %.2f (1 = perfectly balanced)</p></details>`,
		prof.ImbalanceIndex())
}

// writeHTML renders the full report page.
func writeHTML(w io.Writer, r *runFile) error {
	recs := r.recs
	fs := foldSeries(recs.Series)
	charts := buildCharts(fs)
	hm := buildHeatmap(recs.ShardWindows)

	title := r.name
	if recs.HasMeta && recs.Meta.Label != "" {
		title = recs.Meta.Label
	}

	var b strings.Builder
	b.WriteString(`<!doctype html><html lang="en"><head><meta charset="utf-8"><meta name="viewport" content="width=device-width,initial-scale=1">`)
	fmt.Fprintf(&b, `<title>%s — obsreport</title>`, esc(title))
	writeCSS(&b)
	b.WriteString(`</head><body><div class="page">`)

	fmt.Fprintf(&b, `<h1>%s</h1>`, esc(title))
	b.WriteString(`<p class="meta">`)
	if recs.HasMeta {
		m := recs.Meta
		parts := []string{}
		if m.Engine != "" {
			parts = append(parts, "engine "+esc(m.Engine))
		}
		if m.Topology != "" {
			parts = append(parts, "topology "+esc(m.Topology))
		}
		if m.Workload != "" {
			parts = append(parts, esc(m.Workload))
		}
		if m.Shards > 0 {
			parts = append(parts, fmt.Sprintf("%d shards × %d workers", m.Shards, m.Workers))
		}
		if m.SeriesWindowNs > 0 {
			parts = append(parts, fmt.Sprintf("%.2f ms series windows", ms(m.SeriesWindowNs)))
		}
		b.WriteString(strings.Join(parts, " · "))
	} else {
		b.WriteString("legacy trace (no meta header)")
	}
	fmt.Fprintf(&b, ` · %d events, %d series points, %d shard windows</p>`,
		len(recs.Events), len(recs.Series), len(recs.ShardWindows))

	var hover []jsChart
	for _, c := range charts {
		fmt.Fprintf(&b, `<section class="card"><h2>%s</h2><p class="sub">%s</p>`, esc(c.title), esc(c.sub))
		legendHTML(&b, c)
		renderLineChart(&b, c)
		tableHTML(&b, c)
		b.WriteString(`</section>`)

		n := len(c.series[0].vals)
		jc := jsChart{ID: c.id, Unit: c.unit, Dec: c.dec}
		for i := 0; i < n; i++ {
			t0 := float64(i) * c.widthMs
			jc.Times = append(jc.Times, fmt.Sprintf("%.2f–%.2f ms", t0, t0+c.widthMs))
			jc.Xpx = append(jc.Xpx, math.Round(xCenter(i, n)*10)/10)
		}
		for _, s := range c.series {
			jc.Names = append(jc.Names, s.name)
			jc.Slots = append(jc.Slots, s.slot+1)
			jc.Values = append(jc.Values, s.vals)
		}
		hover = append(hover, jc)
	}

	if hm != nil {
		b.WriteString(`<section class="card"><h2>Shard utilization</h2><p class="sub">busy share of each conservative window barrier (busy ÷ busy+wait), bucketed over simulated time</p>`)
		renderHeatmap(&b, hm)
		heatTableHTML(&b, profileOf(recs.ShardWindows), recs.ShardWindows)
		b.WriteString(`</section>`)
	}

	if len(charts) == 0 && hm == nil {
		b.WriteString(`<section class="card"><h2>No time-series sections</h2><p class="sub">this file carries trace events only — run with obs.Series / ShardOpts.Profile armed to chart it</p></section>`)
	}

	data, err := json.Marshal(hover)
	if err != nil {
		return err
	}
	// </ inside the JSON payload would close the script element early.
	fmt.Fprintf(&b, `<script type="application/json" id="obs-data">%s</script>`,
		strings.ReplaceAll(string(data), "</", `<\/`))
	writeJS(&b)
	b.WriteString(`</div></body></html>`)
	_, err = io.WriteString(w, b.String())
	return err
}

// writeCSS emits the style block: palette slots as custom properties with the
// dark-mode steps swapped in via prefers-color-scheme, and the chart chrome
// (hairline grid, recessive ticks, card surfaces).
func writeCSS(b *strings.Builder) {
	b.WriteString("<style>:root{color-scheme:light dark}\n.page{--surface:#fcfcfb;--plane:#f9f9f7;--ink:#0b0b0b;--ink-2:#52514e;--muted:#898781;--grid:#e1e0d9;--axis:#c3c2b7;--border:rgba(11,11,11,0.10)")
	for i, s := range seriesSlots {
		fmt.Fprintf(b, ";--series-%d:%s", i+1, s.light)
	}
	for i, s := range seqLight {
		fmt.Fprintf(b, ";--seq-%d:%s", i+1, s)
	}
	b.WriteString("}\n@media (prefers-color-scheme:dark){.page{--surface:#1a1a19;--plane:#0d0d0d;--ink:#ffffff;--ink-2:#c3c2b7;--muted:#898781;--grid:#2c2c2a;--axis:#383835;--border:rgba(255,255,255,0.10)")
	for i, s := range seriesSlots {
		fmt.Fprintf(b, ";--series-%d:%s", i+1, s.dark)
	}
	for i, s := range seqDark {
		fmt.Fprintf(b, ";--seq-%d:%s", i+1, s)
	}
	b.WriteString("}}\n")
	b.WriteString(`body{margin:0;background:var(--plane)}
.page{font-family:system-ui,-apple-system,"Segoe UI",sans-serif;color:var(--ink);background:var(--plane);max-width:860px;margin:0 auto;padding:24px 16px 48px}
h1{font-size:22px;font-weight:600;margin:0 0 4px}
h2{font-size:15px;font-weight:600;margin:0 0 2px}
.meta{color:var(--ink-2);font-size:13px;margin:0 0 20px}
.sub{color:var(--muted);font-size:12px;margin:0 0 10px}
.card{background:var(--surface);border:1px solid var(--border);border-radius:8px;padding:16px 18px;margin:0 0 16px}
.chart{display:block;width:100%;height:auto}
.grid{stroke:var(--grid);stroke-width:1}
.axis{stroke:var(--axis);stroke-width:1}
.tick,.unit{fill:var(--muted);font-size:11px;font-variant-numeric:tabular-nums}
.endlabel{fill:var(--ink-2);font-size:11px}
.line{fill:none;stroke-width:2;stroke-linejoin:round;stroke-linecap:round}
.dot{stroke:var(--surface);stroke-width:2}
.cell:hover,.cell:focus{stroke:var(--ink);stroke-width:1;outline:none}
.cross{stroke:var(--axis);stroke-width:1}
.legend{display:flex;gap:14px;flex-wrap:wrap;font-size:12px;color:var(--ink-2);margin:0 0 8px}
.key{display:inline-flex;align-items:center;gap:6px}
.swatch{display:inline-block;width:12px;height:3px;border-radius:1px}
.tableview{margin-top:10px;font-size:12px;color:var(--ink-2)}
.tableview summary{cursor:pointer;color:var(--muted)}
.tableview table{border-collapse:collapse;margin-top:8px}
.tableview th,.tableview td{text-align:right;padding:3px 10px;border-bottom:1px solid var(--grid);font-variant-numeric:tabular-nums}
.tableview th{color:var(--muted);font-weight:500}
.tableview td:first-child,.tableview th:first-child{text-align:left}
.note{color:var(--muted)}
.tip{position:fixed;pointer-events:none;background:var(--surface);border:1px solid var(--border);border-radius:6px;box-shadow:0 2px 8px rgba(0,0,0,.12);padding:8px 10px;font-size:12px;display:none;z-index:10}
.tip .t{color:var(--muted);margin-bottom:4px}
.tip .row{display:flex;align-items:center;gap:6px}
.tip .v{font-weight:600;font-variant-numeric:tabular-nums}
.tip .n{color:var(--ink-2)}
</style>`)
}

// writeJS emits the hover layer: a crosshair tooltip on line charts (nearest
// window to the pointer; arrow keys when the chart is focused) and per-cell
// tooltips on the heatmap. Tooltips only enhance — every value is also in the
// table views — and all text lands via textContent.
func writeJS(b *strings.Builder) {
	b.WriteString(`<script>
(function(){
"use strict";
var tip=document.createElement('div');tip.className='tip';document.body.appendChild(tip);
function show(x,y){tip.style.display='block';var r=tip.getBoundingClientRect();
var px=x+14,py=y+14;if(px+r.width>innerWidth-8)px=x-r.width-14;if(py+r.height>innerHeight-8)py=y-r.height-14;
tip.style.left=px+'px';tip.style.top=py+'px';}
function hide(){tip.style.display='none';}
function fill(rows){tip.textContent='';rows.forEach(function(r){
var d=document.createElement('div');d.className=r.cls;
if(r.swatch){var s=document.createElement('span');s.className='swatch';s.style.background=r.swatch;d.appendChild(s);}
if(r.v!==undefined){var v=document.createElement('span');v.className='v';v.textContent=r.v;d.appendChild(v);}
var n=document.createElement('span');n.className=r.v!==undefined?'n':'';n.textContent=r.text;d.appendChild(n);
tip.appendChild(d);});}
var data=[];try{data=JSON.parse(document.getElementById('obs-data').textContent);}catch(e){}
data.forEach(function(c){
var svg=document.getElementById(c.id);if(!svg)return;
var cross=svg.querySelector('.cross');var idx=-1;
function pick(i,clientX,clientY){
if(i<0||i>=c.xpx.length){cross.setAttribute('visibility','hidden');hide();idx=-1;return;}
idx=i;cross.setAttribute('x1',c.xpx[i]);cross.setAttribute('x2',c.xpx[i]);cross.setAttribute('visibility','visible');
var rows=[{cls:'t',text:c.times[i]}];
c.names.forEach(function(nm,s){rows.push({cls:'row',swatch:'var(--series-'+c.slots[s]+')',v:c.values[s][i].toFixed(c.dec)+' '+c.unit,text:nm});});
fill(rows);show(clientX,clientY);}
svg.addEventListener('pointermove',function(ev){
var pt=svg.createSVGPoint();pt.x=ev.clientX;pt.y=ev.clientY;
var m=svg.getScreenCTM();if(!m)return;var loc=pt.matrixTransform(m.inverse());
var best=0,bd=1e9;c.xpx.forEach(function(x,i){var d=Math.abs(x-loc.x);if(d<bd){bd=d;best=i;}});
pick(best,ev.clientX,ev.clientY);});
svg.addEventListener('pointerleave',function(){pick(-1);});
svg.addEventListener('keydown',function(ev){
if(ev.key==='ArrowRight'||ev.key==='ArrowLeft'){
var r=svg.getBoundingClientRect();
pick(idx<0?0:Math.min(Math.max(idx+(ev.key==='ArrowRight'?1:-1),0),c.xpx.length-1),r.left+r.width/2,r.top+r.height/2);
ev.preventDefault();}
if(ev.key==='Escape')pick(-1);});
svg.addEventListener('blur',function(){pick(-1);});
});
document.querySelectorAll('.cell').forEach(function(cell){
cell.setAttribute('tabindex','0');
function on(ev){var parts=(cell.getAttribute('data-tip')||'').split(' | ');
fill(parts.map(function(p,i){return {cls:i===0?'t':'row',text:p};}));
var r=cell.getBoundingClientRect();show(ev.clientX||r.right,ev.clientY||r.top);}
cell.addEventListener('pointermove',on);
cell.addEventListener('focus',on);
cell.addEventListener('pointerleave',hide);
cell.addEventListener('blur',hide);
});
})();
</script>`)
}
