// Command proteus-report renders run dumps and incident bundles.
//
// Report mode turns a run dump (written by proteus-sim -tsdb or the report
// package) into a self-contained HTML page — inline SVG charts, no
// scripts:
//
//	proteus-report -dump run.json -o report.html
//
// Incident mode renders a flight-recorder incident bundle (written by
// proteus-sim -incidents or proteusd -incident-dir) the same way:
//
//	proteus-report -incident incident-000001-slo_burn.json -o incident.html
//
// Exit codes: 0 ok, 1 runtime error, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"proteus/internal/flightrec"
	"proteus/internal/report"
)

func main() {
	var (
		dumpPath = flag.String("dump", "", "run dump JSON to render as HTML")
		incPath  = flag.String("incident", "", "incident bundle JSON to render as HTML")
		outPath  = flag.String("o", "report.html", "output path for the HTML report")
	)
	flag.Parse()

	switch {
	case *dumpPath != "":
		if err := runReport(*dumpPath, *outPath); err != nil {
			fmt.Fprintf(os.Stderr, "proteus-report: %v\n", err)
			os.Exit(1)
		}
	case *incPath != "":
		if err := runIncident(*incPath, *outPath); err != nil {
			fmt.Fprintf(os.Stderr, "proteus-report: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "proteus-report: need -dump run.json or -incident bundle.json")
		flag.Usage()
		os.Exit(2)
	}
}

func runReport(dumpPath, outPath string) error {
	d, err := report.ReadDumpFile(dumpPath)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, report.RenderHTML(d), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

func runIncident(incPath, outPath string) error {
	b, err := flightrec.ReadBundleFile(incPath)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, report.RenderIncident(b), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
