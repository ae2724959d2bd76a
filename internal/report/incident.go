package report

import (
	"fmt"
	"strings"
	"time"

	"proteus/internal/flightrec"
)

// traceTailLimit caps how many trace events the incident page tabulates so
// a full 4096-event ring does not dominate the report; the bundle JSON
// always retains the complete ring.
const traceTailLimit = 500

// RenderIncident turns an incident bundle into one self-contained HTML
// page: trigger summary, process runtime, counter state, the latency phase
// decomposition, SLO burn transitions, controller decisions, and the trace
// tail leading up to the trigger. Like RenderHTML the output is a pure
// function of its input, so same-seed bundles render byte-identical pages.
func RenderIncident(b *flightrec.Bundle) []byte {
	var sb strings.Builder
	title := "Proteus incident report: " + b.ID
	sb.WriteString("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>")
	sb.WriteString(escape(title))
	sb.WriteString("</title>\n<style>\n")
	sb.WriteString(`body{font-family:sans-serif;margin:24px;color:#222}
h1{font-size:20px}h2{font-size:15px;margin-top:28px}
table{border-collapse:collapse;font-size:12px;margin-top:8px}
td,th{border:1px solid #ccc;padding:3px 8px;text-align:right}
th{background:#f0f0f0}td:first-child,th:first-child{text-align:left}
.meta{font-size:12px;color:#555}
`)
	sb.WriteString("</style>\n</head>\n<body>\n<h1>")
	sb.WriteString(escape(title))
	sb.WriteString("</h1>\n")

	at := time.Duration(b.AtNS)
	fmt.Fprintf(&sb, "<p class=\"meta\">trigger #%d · reason %s · at %ss", b.Seq, escape(b.Reason), trimF(at.Seconds()))
	if b.Detail != "" {
		fmt.Fprintf(&sb, " · %s", escape(b.Detail))
	}
	if b.Family >= 0 {
		fmt.Fprintf(&sb, " · family %d", b.Family)
	}
	if b.Device >= 0 {
		fmt.Fprintf(&sb, " · device %d", b.Device)
	}
	sb.WriteString("</p>\n")

	renderRuntimeTable(&sb, b)
	renderCounterTable(&sb, b)
	famName := func(i int) string { return fmt.Sprintf("family %d", i) }
	devName := func(i int) string { return fmt.Sprintf("device %d", i) }
	renderPhaseTable(&sb, b.Phases, famName, devName)
	renderBurnTable(&sb, b.Burns, famName)
	renderPlanTable(&sb, b.Plans)
	renderTraceTail(&sb, b)

	sb.WriteString("</body>\n</html>\n")
	return []byte(sb.String())
}

func renderRuntimeTable(sb *strings.Builder, b *flightrec.Bundle) {
	if len(b.Runtime) == 0 {
		return
	}
	sb.WriteString("<h2>Process runtime</h2>\n<table>\n<tr><th>at</th><th>heap alloc MB</th><th>heap sys MB</th><th>GC pause ms</th><th>GCs</th><th>goroutines</th></tr>\n")
	for _, rs := range b.Runtime {
		fmt.Fprintf(sb, "<tr><td>%ss</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td></tr>\n",
			trimF(time.Duration(rs.AtNS).Seconds()),
			trimF(float64(rs.HeapAllocBytes)/(1<<20)),
			trimF(float64(rs.HeapSysBytes)/(1<<20)),
			trimF(float64(rs.GCPauseTotalNS)/1e6),
			rs.NumGC, rs.Goroutines)
	}
	sb.WriteString("</table>\n")
}

// renderCounterTable shows the newest counter snapshot — the state of every
// counter and gauge at the last recorder tick before the trigger.
func renderCounterTable(sb *strings.Builder, b *flightrec.Bundle) {
	if len(b.Counters) == 0 {
		return
	}
	last := b.Counters[len(b.Counters)-1]
	fmt.Fprintf(sb, "<h2>Counters at %ss (last of %d snapshots)</h2>\n<table>\n<tr><th>metric</th><th>kind</th><th>value</th></tr>\n",
		trimF(time.Duration(last.AtNS).Seconds()), len(b.Counters))
	for _, m := range last.Metrics {
		fmt.Fprintf(sb, "<tr><td>%s</td><td>%s</td><td>%d</td></tr>\n", escape(m.Name), escape(m.Kind), m.Value)
	}
	sb.WriteString("</table>\n")
}

func renderTraceTail(sb *strings.Builder, b *flightrec.Bundle) {
	evs := b.TraceEvents
	if len(evs) == 0 {
		return
	}
	total := len(evs)
	if len(evs) > traceTailLimit {
		evs = evs[len(evs)-traceTailLimit:]
	}
	fmt.Fprintf(sb, "<h2>Trace tail (%d of %d events)</h2>\n<table>\n<tr><th>at</th><th>seq</th><th>kind</th><th>query</th><th>family</th><th>device</th><th>batch</th></tr>\n",
		len(evs), total)
	for _, ev := range evs {
		fmt.Fprintf(sb, "<tr><td>%ss</td><td>%d</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
			trimF(float64(ev.At.Microseconds())/1e6), ev.Seq, escape(ev.Kind.String()), ev.Query, ev.Family, ev.Device, ev.Batch)
	}
	sb.WriteString("</table>\n")
}
