package proteus

import (
	"testing"
)

func TestPublicAPISimulation(t *testing.T) {
	alloc, err := NewAllocator("ilp", &MILPOptions{MaxNodes: 480, RelGap: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	var fams []Family
	for _, f := range Zoo() {
		if f.Name == "efficientnet" || f.Name == "resnet" {
			fams = append(fams, f)
		}
	}
	sys, err := NewSystem(SystemConfig{
		Cluster:   ScaledTestbed(8),
		Families:  fams,
		Allocator: alloc,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTwitterTrace(TwitterTraceConfig{
		Seconds: 60, BaseQPS: 50, PeakQPS: 120, Families: FamilyNames(fams), Seed: 2,
	})
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Queries == 0 || res.Summary.Served == 0 {
		t.Fatalf("empty run: %v", res.Summary)
	}
}

func TestPublicAPIConstructors(t *testing.T) {
	if PaperTestbed().Size() != 40 {
		t.Fatal("paper testbed size")
	}
	if len(Zoo()) != 9 {
		t.Fatal("zoo families")
	}
	for _, name := range []string{"ilp", "infaas_v2", "sommelier", "clipper-ht", "clipper-ha"} {
		if _, err := NewAllocator(name, nil); err != nil {
			t.Fatalf("allocator %s: %v", name, err)
		}
	}
	for _, name := range []string{"accscale", "nexus", "aimd", "static-1"} {
		f, err := NewBatching(name)
		if err != nil {
			t.Fatalf("batching %s: %v", name, err)
		}
		if f() == nil {
			t.Fatalf("batching %s returned nil policy", name)
		}
	}
	if _, err := NewAllocator("bogus", nil); err == nil {
		t.Fatal("bogus allocator accepted")
	}
}

func TestPublicAPITraces(t *testing.T) {
	tr := NewTwitterTrace(TwitterTraceConfig{})
	if tr.Seconds() != 300 || len(tr.Families) != 9 {
		t.Fatalf("twitter defaults: %d s, %d families", tr.Seconds(), len(tr.Families))
	}
	bt := NewBurstyTrace(BurstyTraceConfig{Seconds: 100})
	if bt.Seconds() != 100 {
		t.Fatalf("bursty seconds %d", bt.Seconds())
	}
	if bt.PeakQPS() <= bt.MeanQPS() {
		t.Fatal("bursty trace has no bursts")
	}
}

func TestPublicAPISLO(t *testing.T) {
	for _, f := range Zoo() {
		slo := FamilySLO(f, 2)
		if slo <= 0 {
			t.Fatalf("family %s SLO %v", f.Name, slo)
		}
		if FamilySLO(f, 3) <= slo {
			t.Fatal("SLO not monotone in multiplier")
		}
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	if len(Fig1a()) != 24 {
		t.Fatal("fig1a size")
	}
	points := Fig1b()
	if len(points) != 3125 {
		t.Fatal("fig1b size")
	}
	if len(ParetoFrontier(points)) == 0 {
		t.Fatal("empty frontier")
	}
	rows, err := Table2(ExperimentOptions{})
	if err != nil || len(rows) != 4 {
		t.Fatalf("table2: %v, %d rows", err, len(rows))
	}
}
