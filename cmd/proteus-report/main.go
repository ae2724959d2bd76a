// Command proteus-report renders run dumps and incident bundles.
//
// Report mode turns a run dump (written by proteus-sim -tsdb or the report
// package) into a self-contained HTML page — inline SVG charts, no
// scripts:
//
//	proteus-report -dump run.json -o report.html
//
// Incident mode reads the incident log a flight recorder writes into its
// directory (proteus-sim -incidents DIR or proteusd -incident-dir DIR).
// Given the directory it lists the log's bundle IDs, one per line, in
// trigger order; given DIR/ID it renders that bundle the same way:
//
//	proteus-report -incident out/
//	proteus-report -incident out/incident-000001-slo_burn -o incident.html
//
// Exit codes: 0 ok, 1 runtime error, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"proteus/internal/flightrec"
	"proteus/internal/report"
)

func main() {
	var (
		dumpPath = flag.String("dump", "", "run dump JSON to render as HTML")
		incPath  = flag.String("incident", "", "incident directory to list bundle IDs from, or DIR/ID of a bundle to render as HTML")
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
		fmt.Fprintln(os.Stderr, "proteus-report: need -dump run.json or -incident DIR[/ID]")
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
	if fi, err := os.Stat(incPath); err == nil && fi.IsDir() {
		l, err := flightrec.ReadLog(incPath)
		if err != nil {
			return err
		}
		for _, id := range l.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	l, err := flightrec.ReadLog(filepath.Dir(incPath))
	if err != nil {
		return err
	}
	b, err := l.Bundle(filepath.Base(incPath))
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, report.RenderIncident(b), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
