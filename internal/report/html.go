package report

import (
	"fmt"
	"strings"
	"time"

	"proteus/internal/controlplane"
	"proteus/internal/tsdb"
)

// RenderHTML turns a dump into one self-contained HTML page: inline SVG
// charts and plain tables, no scripts, no external resources. Output is a
// pure function of the dump, so same-seed runs render byte-identical
// reports.
func RenderHTML(d *Dump) []byte {
	var sb strings.Builder
	title := "Proteus run report"
	if d.Meta.Label != "" {
		title += ": " + d.Meta.Label
	}
	sb.WriteString("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>")
	sb.WriteString(escape(title))
	sb.WriteString("</title>\n<style>\n")
	sb.WriteString(`body{font-family:sans-serif;margin:24px;color:#222}
h1{font-size:20px}h2{font-size:15px;margin-top:28px}
table{border-collapse:collapse;font-size:12px;margin-top:8px}
td,th{border:1px solid #ccc;padding:3px 8px;text-align:right}
th{background:#f0f0f0}td:first-child,th:first-child{text-align:left}
svg{display:block;margin-top:8px}
.meta{font-size:12px;color:#555}
`)
	sb.WriteString("</style>\n</head>\n<body>\n<h1>")
	sb.WriteString(escape(title))
	sb.WriteString("</h1>\n")

	fmt.Fprintf(&sb, `<p class="meta">seed=%d bin=%ss sample=%ss slo_target=%s burn_rate=%s windows=%s/%ss devices=%d</p>`+"\n",
		d.Meta.Seed, trimF(d.Meta.BinS), trimF(d.Meta.SampleS),
		trimF(d.Meta.SLOTarget), trimF(d.Meta.SLOBurnRate),
		trimF(d.Meta.SLOShortS), trimF(d.Meta.SLOLongS), len(d.Meta.Devices))

	sb.WriteString("<h2>Run summary</h2>\n<pre>")
	sb.WriteString(escape(d.Summary.String()))
	sb.WriteString("</pre>\n")

	renderThroughputChart(&sb, d)
	renderAccuracyChart(&sb, d)
	renderViolationChart(&sb, d)
	renderLatencyChart(&sb, d)
	renderUtilizationHeatmap(&sb, d)
	renderFamilyTable(&sb, d)
	famName := func(i int) string {
		if i >= 0 && i < len(d.Families) {
			return d.Families[i].Name
		}
		return fmt.Sprintf("family %d", i)
	}
	devName := func(i int) string {
		if i >= 0 && i < len(d.Meta.Devices) {
			return d.Meta.Devices[i]
		}
		return fmt.Sprintf("device %d", i)
	}
	renderPhaseTable(&sb, d.Phases, famName, devName)
	renderAttributionSection(&sb, d)
	renderBurnTable(&sb, d.Burns, famName)
	renderPlanTable(&sb, d.Plans)

	sb.WriteString("</body>\n</html>\n")
	return []byte(sb.String())
}

// trimF formats a float compactly (no trailing zeros) and deterministically.
func trimF(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// window x-domain: [first bin start, last bin end].
func xDomain(d *Dump) (float64, float64) {
	if len(d.Windows) == 0 {
		return 0, 1
	}
	return d.Windows[0].StartS, d.Windows[len(d.Windows)-1].StartS + d.Meta.BinS
}

func maxF(vals ...float64) float64 {
	m := 0.0
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

func renderThroughputChart(sb *strings.Builder, d *Dump) {
	if len(d.Windows) == 0 {
		return
	}
	sb.WriteString("<h2>Demand vs served throughput</h2>\n")
	xLo, xHi := xDomain(d)
	var xs, demand, served []float64
	yHi := 0.0
	for _, w := range d.Windows {
		xs = append(xs, w.StartS+d.Meta.BinS/2)
		demand = append(demand, w.DemandQPS)
		served = append(served, w.ServedQPS)
		yHi = maxF(yHi, w.DemandQPS, w.ServedQPS)
	}
	if yHi == 0 {
		yHi = 1
	}
	openSVG(sb)
	axes(sb, "QPS over time", "0", trimF(yHi)+" qps", trimF(xLo)+"s", trimF(xHi)+"s")
	legend(sb, [][2]string{{"demand", "#4878cf"}, {"served", "#6acc65"}})
	polyline(sb, xs, demand, xLo, xHi, 0, yHi, "#4878cf")
	polyline(sb, xs, served, xLo, xHi, 0, yHi, "#6acc65")
	closeSVG(sb)
}

func renderAccuracyChart(sb *strings.Builder, d *Dump) {
	if len(d.Windows) == 0 {
		return
	}
	sb.WriteString("<h2>Effective accuracy</h2>\n")
	xLo, xHi := xDomain(d)
	var xs, acc []float64
	for _, w := range d.Windows {
		if w.Accuracy <= 0 {
			continue // bins that served nothing carry no accuracy signal
		}
		xs = append(xs, w.StartS+d.Meta.BinS/2)
		acc = append(acc, w.Accuracy)
	}
	yLo := 50.0
	for _, a := range acc {
		if a < yLo {
			yLo = a
		}
	}
	openSVG(sb)
	axes(sb, "Mean accuracy of served queries (%)", trimF(yLo), "100", trimF(xLo)+"s", trimF(xHi)+"s")
	polyline(sb, xs, acc, xLo, xHi, yLo, 100, "#b45bcf")
	closeSVG(sb)
}

func renderViolationChart(sb *strings.Builder, d *Dump) {
	if len(d.Windows) == 0 {
		return
	}
	sb.WriteString("<h2>SLO violation ratio and burn episodes</h2>\n")
	xLo, xHi := xDomain(d)
	var xs, vr []float64
	yHi := 0.0
	for _, w := range d.Windows {
		xs = append(xs, w.StartS+d.Meta.BinS/2)
		vr = append(vr, w.ViolationRatio)
		yHi = maxF(yHi, w.ViolationRatio)
	}
	if yHi < 0.05 {
		yHi = 0.05
	}
	openSVG(sb)
	axes(sb, "Violation ratio per bin (shaded: SLO burn episodes)", "0", trimF(yHi), trimF(xLo)+"s", trimF(xHi)+"s")
	// Burn episodes as shaded bands: pair starts with ends per family; an
	// unclosed episode extends to the chart edge.
	open := map[int]float64{}
	for _, b := range d.Burns {
		at := b.At.Seconds()
		if b.Start {
			open[b.Family] = at
			continue
		}
		if t0, ok := open[b.Family]; ok {
			band(sb, t0, at, xLo, xHi, "#e8a33d")
			delete(open, b.Family)
		}
	}
	// Iterate unclosed episodes in burn-log order for determinism.
	for _, b := range d.Burns {
		if t0, ok := open[b.Family]; ok && b.Start {
			band(sb, t0, xHi, xLo, xHi, "#e8a33d")
			delete(open, b.Family)
		}
	}
	polyline(sb, xs, vr, xLo, xHi, 0, yHi, "#d65f5f")
	closeSVG(sb)
}

func renderLatencyChart(sb *strings.Builder, d *Dump) {
	if len(d.Windows) == 0 {
		return
	}
	sb.WriteString("<h2>Latency percentiles per window</h2>\n")
	xLo, xHi := xDomain(d)
	var xs, p50, p95, p99 []float64
	yHi := 0.0
	for _, w := range d.Windows {
		if w.Count == 0 {
			continue
		}
		xs = append(xs, w.StartS+d.Meta.BinS/2)
		p50 = append(p50, w.P50MS)
		p95 = append(p95, w.P95MS)
		p99 = append(p99, w.P99MS)
		yHi = maxF(yHi, w.P99MS)
	}
	if yHi == 0 {
		yHi = 1
	}
	openSVG(sb)
	axes(sb, "Completion latency (ms)", "0", trimF(yHi)+" ms", trimF(xLo)+"s", trimF(xHi)+"s")
	legend(sb, [][2]string{{"p50", "#6acc65"}, {"p95", "#e8a33d"}, {"p99", "#d65f5f"}})
	polyline(sb, xs, p50, xLo, xHi, 0, yHi, "#6acc65")
	polyline(sb, xs, p95, xLo, xHi, 0, yHi, "#e8a33d")
	polyline(sb, xs, p99, xLo, xHi, 0, yHi, "#d65f5f")
	closeSVG(sb)
}

func renderUtilizationHeatmap(sb *strings.Builder, d *Dump) {
	if len(d.Samples) == 0 {
		return
	}
	sb.WriteString("<h2>Device utilization heatmap</h2>\n")
	// Samples are time-major, device-minor; derive the device count and the
	// distinct sample times.
	devices := 0
	var times []time.Duration
	for _, s := range d.Samples {
		if s.Device+1 > devices {
			devices = s.Device + 1
		}
		if len(times) == 0 || s.At != times[len(times)-1] {
			times = append(times, s.At)
		}
	}
	if devices == 0 || len(times) == 0 {
		return
	}
	const labelW = 90
	cellW := float64(chartW-labelW-chartPad) / float64(len(times))
	cellH := 14.0
	height := int(cellH)*devices + 40
	fmt.Fprintf(sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		chartW, height, chartW, height)
	tIndex := make(map[time.Duration]int, len(times))
	for i, t := range times {
		tIndex[t] = i
	}
	for _, s := range d.Samples {
		x := float64(labelW) + float64(tIndex[s.At])*cellW
		y := 20 + float64(s.Device)*cellH
		color := heatColor(s.UtilMilli)
		if !s.Up {
			color = "#404040" // down devices read as black gaps
		}
		fmt.Fprintf(sb, `<rect x="%s" y="%s" width="%s" height="%s" fill="%s"/>`+"\n",
			f2(x), f2(y), f2(cellW), f2(cellH), color)
	}
	for dev := 0; dev < devices; dev++ {
		name := fmt.Sprintf("device %d", dev)
		if dev < len(d.Meta.Devices) {
			name = d.Meta.Devices[dev]
		}
		fmt.Fprintf(sb, `<text x="%d" y="%s" font-size="9" fill="#333" text-anchor="end">%s</text>`+"\n",
			labelW-4, f2(20+float64(dev)*cellH+cellH-4), escape(name))
	}
	fmt.Fprintf(sb, `<text x="%d" y="12" font-size="10" fill="#333">Utilization (white 0%% → red 100%%, dark: down) over %s…%ss</text>`+"\n",
		labelW, trimF(times[0].Seconds()), trimF(times[len(times)-1].Seconds()))
	sb.WriteString("</svg>\n")
}

func renderFamilyTable(sb *strings.Builder, d *Dump) {
	if len(d.Families) == 0 {
		return
	}
	sb.WriteString("<h2>Per-family results</h2>\n<table>\n<tr><th>family</th><th>queries</th><th>served</th><th>late</th><th>dropped</th><th>acc %</th><th>viol ratio</th><th>p50</th><th>p99</th></tr>\n")
	for _, f := range d.Families {
		s := f.Summary
		fmt.Fprintf(sb, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.2f</td><td>%.4f</td><td>%s</td><td>%s</td></tr>\n",
			escape(f.Name), s.Queries, s.Served, s.Late, s.Dropped,
			s.EffectiveAccuracy, s.ViolationRatio,
			s.P50Latency.Round(time.Millisecond), s.P99Latency.Round(time.Millisecond))
	}
	sb.WriteString("</table>\n")
}

// renderPhaseTable writes the "Phase decomposition" section shared by run
// reports and incident pages: where a query's time goes between arrival and
// completion, per family and per device. A no-op when there are no phase
// stats.
func renderPhaseTable(sb *strings.Builder, phases []tsdb.PhaseStat, famName, devName func(int) string) {
	if len(phases) == 0 {
		return
	}
	sb.WriteString("<h2>Phase decomposition</h2>\n<table>\n<tr><th>scope</th><th>phase</th><th>count</th><th>mean ms</th><th>p50 ms</th><th>p95 ms</th><th>p99 ms</th><th>max ms</th></tr>\n")
	for _, ps := range phases {
		name := devName(ps.Index)
		if ps.Scope == "family" {
			name = famName(ps.Index)
		}
		fmt.Fprintf(sb, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			escape(name), escape(ps.Phase), ps.Count,
			usMS(ps.MeanUS), usMS(ps.P50US), usMS(ps.P95US), usMS(ps.P99US), usMS(ps.MaxUS))
	}
	sb.WriteString("</table>\n")
}

// usMS formats integer microseconds as compact milliseconds.
func usMS(us int64) string {
	return trimF(float64(us) / 1e3)
}

// renderAttributionSection writes the "SLO attribution" section: per-family
// blame tables and the worst violated queries' latency waterfalls.
func renderAttributionSection(sb *strings.Builder, d *Dump) {
	a := d.Attribution
	if a == nil {
		return
	}
	sb.WriteString("<h2>SLO attribution</h2>\n")
	fmt.Fprintf(sb, `<p class="meta">%d queries attributed, %d violated, %d unfinished</p>`+"\n",
		a.Queries, a.Violated, a.Unfinished)
	if a.Incomplete {
		fmt.Fprintf(sb, `<p class="meta"><b>explanation incomplete: trace truncated</b> (%d events evicted by ring wrap)</p>`+"\n",
			a.TraceDropped)
	}
	if len(a.Families) > 0 {
		sb.WriteString("<table>\n<tr><th>family</th><th>queries</th><th>violated</th><th>late</th><th>dropped</th><th>top blame</th></tr>\n")
		for _, f := range a.Families {
			name := f.Name
			if name == "" {
				name = fmt.Sprintf("family %d", f.Family)
			}
			top := ""
			if len(f.Blames) > 0 {
				top = fmt.Sprintf("%s (%d)", f.Blames[0].Blame, f.Blames[0].Count)
			}
			fmt.Fprintf(sb, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td></tr>\n",
				escape(name), f.Queries, f.Violated, f.Late, f.Dropped, escape(top))
		}
		sb.WriteString("</table>\n")
	}
	if len(a.TopViolated) > 0 {
		sb.WriteString("<h2>Worst violated queries</h2>\n<table>\n<tr><th>query</th><th>family</th><th>outcome</th><th>e2e ms</th><th>dominant</th><th>blame</th><th>detail</th></tr>\n")
		for _, q := range a.TopViolated {
			dom := q.Dominant()
			famName := fmt.Sprintf("%d", q.Family)
			if int(q.Family) < len(d.Families) && q.Family >= 0 {
				famName = d.Families[q.Family].Name
			}
			fmt.Fprintf(sb, "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				q.Query, escape(famName), q.Outcome,
				trimF(float64(q.E2E)/1e6), dom, q.Blame, escape(q.Detail))
		}
		sb.WriteString("</table>\n")
	}
}

// renderBurnTable writes the "SLO burn transitions" section shared by run
// reports and incident pages. A no-op when there are no transitions.
func renderBurnTable(sb *strings.Builder, burns []tsdb.BurnEvent, famName func(int) string) {
	if len(burns) == 0 {
		return
	}
	sb.WriteString("<h2>SLO burn transitions</h2>\n<table>\n<tr><th>at</th><th>family</th><th>event</th><th>short burn</th><th>long burn</th></tr>\n")
	for _, b := range burns {
		kind := "end"
		if b.Start {
			kind = "start"
		}
		fmt.Fprintf(sb, "<tr><td>%ss</td><td>%s</td><td>%s</td><td>%.2f</td><td>%.2f</td></tr>\n",
			trimF(b.At.Seconds()), escape(famName(b.Family)), kind, b.ShortBurn, b.LongBurn)
	}
	sb.WriteString("</table>\n")
}

// renderPlanTable writes the "Control decisions" section shared by run
// reports and incident pages. A no-op when there are no plan records.
func renderPlanTable(sb *strings.Builder, plans []controlplane.PlanRecord) {
	if len(plans) == 0 {
		return
	}
	sb.WriteString("<h2>Control decisions</h2>\n<table>\n<tr><th>at</th><th>trigger</th><th>stage</th><th>solver</th><th>pred acc</th><th>scale</th><th>loads</th><th>unloads</th><th>burns</th></tr>\n")
	for _, p := range plans {
		fmt.Fprintf(sb, "<tr><td>%ss</td><td>%s</td><td>%s</td><td>%s</td><td>%.2f</td><td>%.3f</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
			trimF(p.At.Seconds()), escape(p.Trigger), escape(p.Stage), escape(p.Solver),
			p.PredictedAccuracy, p.DemandScale, p.Loads, p.Unloads, len(p.SLOBurns))
	}
	sb.WriteString("</table>\n")
}
