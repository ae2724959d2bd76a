package proteus

import (
	"testing"
)

func TestPublicAPISimulation(t *testing.T) {
	alloc, err := NewAllocator("ilp", nil)
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
	if len(Zoo()) != 9 {
		t.Fatal("zoo families")
	}
	for _, name := range []string{"ilp", "infaas_v2", "sommelier", "clipper-ht", "clipper-ha"} {
		if _, err := NewAllocator(name, nil); err != nil {
			t.Fatalf("allocator %s: %v", name, err)
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
