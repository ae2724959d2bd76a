package attrib

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"proteus/internal/telemetry"
)

// FuzzReadJSONLAnalyze feeds arbitrary bytes through the path
// proteus-explain takes on a file it did not write: telemetry.ReadJSONL,
// then Analyze. Whatever the reader accepts must be analysed without a
// panic and in memory bounded by the input, and every explained query's
// components must still sum to its end-to-end latency. Whenever the parsed
// Seqs are unique, the report must equal the one grouping by the (query,
// seq) sort gives (oracleAnalyze).
//
// The seeds are replayed by plain `go test`: an excerpt of the trace of
// configs/incident_smoke.json (six served queries, three no_route and two
// expired drops, three burn starts), the two inputs the reader must refuse
// because they crash Analyze — a negative at_ns (index out of range in the
// window table) and a family of 2e9 (a 272 GB family table) — and a
// far-future at_ns, which the window table absorbs by widening.
// testdata/fuzz adds an excerpt out of Seq order.
func FuzzReadJSONLAnalyze(f *testing.F) {
	excerpt, err := os.ReadFile("testdata/incident_smoke_excerpt.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := telemetry.ReadJSONL(bytes.NewReader(excerpt)); err != nil {
		f.Fatalf("the excerpt seed must decode: %v", err)
	}
	f.Add(excerpt)
	f.Add([]byte(`{"at_ns":-15000000000,"seq":0,"kind":"arrival","query":1,"family":0,"device":-1,"batch":-1}
{"at_ns":-14000000000,"seq":1,"kind":"dropped","query":1,"family":0,"device":-1,"batch":-1,"cause":"no_route"}
`))
	f.Add([]byte(`{"at_ns":0,"seq":0,"kind":"arrival","query":1,"family":2000000000,"device":-1,"batch":-1}
{"at_ns":1000,"seq":1,"kind":"done","query":1,"family":2000000000,"device":0,"batch":0}
`))
	f.Add([]byte(`{"at_ns":9000000000000000000,"seq":0,"kind":"arrival","query":1,"family":0,"device":-1,"batch":-1}
{"at_ns":9000000000000001000,"seq":1,"kind":"late","query":1,"family":0,"device":0,"batch":0}
`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := telemetry.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		in := Input{Events: events}
		rep := Analyze(in)
		for i := range rep.Queries {
			q := &rep.Queries[i]
			var sum int64
			for c := Component(0); c < NumComponents; c++ {
				sum += q.Components[c]
			}
			if sum != q.E2E.Nanoseconds() {
				t.Fatalf("query %d: components sum to %d ns, e2e is %d ns", q.Query, sum, q.E2E.Nanoseconds())
			}
		}
		if len(rep.Windows) > maxWindows {
			t.Fatalf("%d summary windows for %d events", len(rep.Windows), len(events))
		}
		if uniqueSeqs(events) {
			if want := oracleAnalyze(in); !reflect.DeepEqual(rep, want) {
				t.Fatalf("Analyze differs from the (query, seq) sort\n got: %+v\nwant: %+v", rep, want)
			}
		}
	})
}
