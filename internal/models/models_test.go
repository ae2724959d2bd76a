package models

import "testing"

func TestZooMatchesTable3(t *testing.T) {
	zoo := Zoo()
	want := map[string]int{
		"resnet": 5, "densenet": 4, "resnest": 4, "efficientnet": 8,
		"mobilenet": 4, "yolov5": 5, "bert": 12, "t5": 5, "gpt2": 4,
	}
	if len(zoo) != len(want) {
		t.Fatalf("%d families, want %d", len(zoo), len(want))
	}
	total := 0
	for _, f := range zoo {
		n, ok := want[f.Name]
		if !ok {
			t.Fatalf("unexpected family %q", f.Name)
		}
		if len(f.Variants) != n {
			t.Fatalf("family %q has %d variants, want %d", f.Name, len(f.Variants), n)
		}
		total += n
	}
	if total != 51 {
		t.Fatalf("total variants %d, want 51", total)
	}
}

func TestVariantsSortedByAccuracy(t *testing.T) {
	for _, f := range Zoo() {
		for i := 1; i < len(f.Variants); i++ {
			if f.Variants[i].Accuracy < f.Variants[i-1].Accuracy {
				t.Fatalf("family %q not sorted by accuracy", f.Name)
			}
		}
	}
}

func TestAccuracyNormalization(t *testing.T) {
	// §6.1.2: normalized accuracy of the most accurate variant is 100 and
	// the rest fall in 80–100.
	for _, f := range Zoo() {
		if f.MostAccurate().Accuracy != 100 {
			t.Errorf("family %q most accurate = %v, want 100", f.Name, f.MostAccurate().Accuracy)
		}
		for _, v := range f.Variants {
			if v.Accuracy < 80 || v.Accuracy > 100 {
				t.Errorf("variant %s accuracy %v outside [80,100]", v.ID(), v.Accuracy)
			}
		}
	}
}

func TestBiggerVariantsCostMore(t *testing.T) {
	// Within a family, higher accuracy should not come with lower compute:
	// the accuracy-throughput trade-off must be monotone for the classic
	// CNN families (the BERT family mixes architectures, so ALBERT breaks
	// strict monotonicity there, as in reality).
	for _, f := range Zoo() {
		if f.Name == "bert" {
			continue
		}
		for i := 1; i < len(f.Variants); i++ {
			if f.Variants[i].GFLOPs < f.Variants[i-1].GFLOPs {
				t.Errorf("family %q: %s (acc %v) has fewer GFLOPs than %s",
					f.Name, f.Variants[i].Name, f.Variants[i].Accuracy, f.Variants[i-1].Name)
			}
		}
	}
}

func TestVariantID(t *testing.T) {
	v := Variant{Family: "resnet", Name: "50"}
	if v.ID() != "resnet/50" {
		t.Fatalf("ID %q", v.ID())
	}
}

func TestMemoryFootprints(t *testing.T) {
	zoo := Zoo()
	var t5 Family
	for _, f := range zoo {
		if f.Name == "t5" {
			t5 = f
		}
	}
	big, ok := t5.Variant("11b")
	if !ok {
		t.Fatal("t5/11b missing")
	}
	// 11B params in fp32 is ~44 GB: it must not fit a 16 GB accelerator.
	if big.WeightsMB() < 16384 {
		t.Fatalf("t5/11b weights %v MB, expected > 16 GB", big.WeightsMB())
	}
	small, _ := t5.Variant("small")
	if small.WeightsMB() >= big.WeightsMB() {
		t.Fatal("t5/small must be smaller than t5/11b")
	}
	if big.ActivationMBPerItem() <= 0 {
		t.Fatal("activation memory must be positive")
	}
}

func TestFamilyAccessors(t *testing.T) {
	zoo := Zoo()
	f := zoo[3] // efficientnet
	if f.Name != "efficientnet" {
		t.Fatalf("zoo order changed: %q", f.Name)
	}
	if f.Variants[0].Name != "b0" || f.MostAccurate().Name != "b7" {
		t.Fatalf("extremes: %s..%s", f.Variants[0].Name, f.MostAccurate().Name)
	}
	if _, ok := f.Variant("b3"); !ok {
		t.Fatal("b3 missing")
	}
	if _, ok := f.Variant("b99"); ok {
		t.Fatal("phantom variant found")
	}
}

func TestRegistry(t *testing.T) {
	r := MustRegistry(Zoo())
	if len(r.Families()) != 9 {
		t.Fatalf("families %d", len(r.Families()))
	}
	f, ok := r.Family("yolov5")
	if !ok || f.Task != ObjectDetection {
		t.Fatalf("yolov5 lookup: %v %v", ok, f.Task)
	}
	if _, ok := r.Family("nonexistent"); ok {
		t.Fatal("phantom family")
	}
	v, ok := r.Variant("gpt2/xl")
	if !ok || v.ParamsM != 1558 {
		t.Fatalf("gpt2/xl lookup: %v %+v", ok, v)
	}
	if len(r.AllVariants()) != 51 {
		t.Fatalf("AllVariants %d", len(r.AllVariants()))
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	zoo := Zoo()
	if _, err := NewRegistry(append(zoo, zoo[0])); err == nil {
		t.Fatal("expected duplicate error")
	}
}

func TestRegistryRejectsEmptyFamily(t *testing.T) {
	if _, err := NewRegistry([]Family{{Name: "empty"}}); err == nil {
		t.Fatal("expected empty-family error")
	}
}

func TestFamilyNames(t *testing.T) {
	names := FamilyNames(Zoo())
	if len(names) != 9 || names[0] != "resnet" || names[8] != "gpt2" {
		t.Fatalf("names %v", names)
	}
}
