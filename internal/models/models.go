// Package models defines the synthetic model zoo used throughout the
// reproduction: the nine model families and 51 variants of the paper's
// Table 3, each with a normalized accuracy (80–100% within its family, per
// §6.1.2) and a compute/memory footprint from which internal/profiles
// derives latency and throughput.
//
// The paper obtains these models from the ONNX Model Zoo, GluonCV and
// HuggingFace; this repository is offline and stdlib-only, so the zoo is
// synthetic — but only the (accuracy, compute cost, memory) triples ever
// enter the serving system, and those are set from the public
// characteristics of the real models.
package models

import (
	"fmt"
	"sort"
)

// Task is the inference application class of a model family.
type Task string

// Tasks appearing in Table 3.
const (
	Classification    Task = "classification"
	ObjectDetection   Task = "object-detection"
	SentimentAnalysis Task = "sentiment-analysis"
	Translation       Task = "translation"
	QuestionAnswering Task = "question-answering"
)

// Variant is one member of a model family.
type Variant struct {
	Family string
	Name   string
	// Accuracy is normalized within the family: the most accurate variant
	// is 100 and the rest are scaled relative to it (§6.1.2).
	Accuracy float64
	// GFLOPs is the per-query compute cost, the driver of latency.
	GFLOPs float64
	// ParamsM is the parameter count in millions, the driver of weight
	// memory.
	ParamsM float64
}

// ID returns the canonical "family/name" identifier of the variant.
func (v Variant) ID() string { return v.Family + "/" + v.Name }

// WeightsMB returns the model weight footprint (fp32 parameters plus a
// fixed runtime overhead).
func (v Variant) WeightsMB() float64 { return 4*v.ParamsM + 200 }

// ActivationMBPerItem returns the per-batch-item activation memory.
func (v Variant) ActivationMBPerItem() float64 { return 4 + 0.4*v.GFLOPs }

// Family is a set of variants serving one query type (application).
type Family struct {
	Name     string
	Task     Task
	Variants []Variant // sorted by ascending accuracy
}

// MostAccurate returns the highest-accuracy variant.
func (f Family) MostAccurate() Variant { return f.Variants[len(f.Variants)-1] }

// Variant returns the named variant and whether it exists.
func (f Family) Variant(name string) (Variant, bool) {
	for _, v := range f.Variants {
		if v.Name == name {
			return v, true
		}
	}
	return Variant{}, false
}

func fam(name string, task Task, vs ...Variant) Family {
	for i := range vs {
		vs[i].Family = name
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].Accuracy < vs[j].Accuracy })
	return Family{Name: name, Task: task, Variants: vs}
}

// Zoo returns the full Table 3 model zoo: nine families, 51 variants.
// Accuracies are family-normalized percentages; GFLOPs and ParamsM follow
// the public characteristics of each architecture.
func Zoo() []Family {
	return []Family{
		fam("resnet", Classification,
			Variant{Name: "18", Accuracy: 89.1, GFLOPs: 1.8, ParamsM: 11.7},
			Variant{Name: "34", Accuracy: 93.6, GFLOPs: 3.6, ParamsM: 21.8},
			Variant{Name: "50", Accuracy: 97.2, GFLOPs: 4.1, ParamsM: 25.6},
			Variant{Name: "101", Accuracy: 98.9, GFLOPs: 7.8, ParamsM: 44.5},
			Variant{Name: "152", Accuracy: 100, GFLOPs: 11.5, ParamsM: 60.2},
		),
		fam("densenet", Classification,
			Variant{Name: "121", Accuracy: 96.5, GFLOPs: 2.9, ParamsM: 8.0},
			Variant{Name: "169", Accuracy: 98.1, GFLOPs: 3.4, ParamsM: 14.1},
			Variant{Name: "201", Accuracy: 99.7, GFLOPs: 4.3, ParamsM: 20.0},
			Variant{Name: "161", Accuracy: 100, GFLOPs: 7.8, ParamsM: 28.7},
		),
		fam("resnest", Classification,
			Variant{Name: "14", Accuracy: 89.3, GFLOPs: 2.8, ParamsM: 10.6},
			Variant{Name: "26", Accuracy: 92.9, GFLOPs: 3.6, ParamsM: 17.1},
			Variant{Name: "50", Accuracy: 96.0, GFLOPs: 5.4, ParamsM: 27.5},
			Variant{Name: "269", Accuracy: 100, GFLOPs: 46.0, ParamsM: 110.9},
		),
		fam("efficientnet", Classification,
			Variant{Name: "b0", Accuracy: 91.5, GFLOPs: 0.39, ParamsM: 5.3},
			Variant{Name: "b1", Accuracy: 93.8, GFLOPs: 0.70, ParamsM: 7.8},
			Variant{Name: "b2", Accuracy: 95.0, GFLOPs: 1.0, ParamsM: 9.2},
			Variant{Name: "b3", Accuracy: 96.8, GFLOPs: 1.8, ParamsM: 12.0},
			Variant{Name: "b4", Accuracy: 98.3, GFLOPs: 4.2, ParamsM: 19.0},
			Variant{Name: "b5", Accuracy: 99.2, GFLOPs: 9.9, ParamsM: 30.0},
			Variant{Name: "b6", Accuracy: 99.6, GFLOPs: 19.0, ParamsM: 43.0},
			Variant{Name: "b7", Accuracy: 100, GFLOPs: 37.0, ParamsM: 66.0},
		),
		fam("mobilenet", Classification,
			Variant{Name: "0.25", Accuracy: 80.2, GFLOPs: 0.041, ParamsM: 0.5},
			Variant{Name: "0.5", Accuracy: 89.3, GFLOPs: 0.15, ParamsM: 1.3},
			Variant{Name: "0.75", Accuracy: 96.5, GFLOPs: 0.32, ParamsM: 2.6},
			Variant{Name: "1.0", Accuracy: 100, GFLOPs: 0.57, ParamsM: 4.2},
		),
		fam("yolov5", ObjectDetection,
			Variant{Name: "n", Accuracy: 80.5, GFLOPs: 4.5, ParamsM: 1.9},
			Variant{Name: "s", Accuracy: 87.6, GFLOPs: 16.5, ParamsM: 7.2},
			Variant{Name: "m", Accuracy: 93.9, GFLOPs: 49.0, ParamsM: 21.2},
			Variant{Name: "l", Accuracy: 97.5, GFLOPs: 109.0, ParamsM: 46.5},
			Variant{Name: "x", Accuracy: 100, GFLOPs: 205.0, ParamsM: 86.7},
		),
		fam("bert", SentimentAnalysis,
			Variant{Name: "bert-tiny", Accuracy: 86.3, GFLOPs: 0.6, ParamsM: 4.4},
			Variant{Name: "bert-mini", Accuracy: 89.1, GFLOPs: 1.2, ParamsM: 11.3},
			Variant{Name: "bert-small", Accuracy: 93.0, GFLOPs: 3.7, ParamsM: 29.1},
			Variant{Name: "albert-base", Accuracy: 93.7, GFLOPs: 22.5, ParamsM: 12.0},
			Variant{Name: "bert-medium", Accuracy: 94.5, GFLOPs: 7.4, ParamsM: 41.7},
			Variant{Name: "albert-large", Accuracy: 95.1, GFLOPs: 78.0, ParamsM: 18.0},
			Variant{Name: "bert-base", Accuracy: 96.2, GFLOPs: 22.5, ParamsM: 110.0},
			Variant{Name: "albert-xlarge", Accuracy: 95.9, GFLOPs: 290.0, ParamsM: 60.0},
			Variant{Name: "bert-large", Accuracy: 97.0, GFLOPs: 80.0, ParamsM: 340.0},
			Variant{Name: "albert-xxlarge", Accuracy: 98.3, GFLOPs: 450.0, ParamsM: 235.0},
			Variant{Name: "roberta-base", Accuracy: 98.3, GFLOPs: 22.5, ParamsM: 125.0},
			Variant{Name: "roberta-large", Accuracy: 100, GFLOPs: 80.0, ParamsM: 355.0},
		),
		fam("t5", Translation,
			Variant{Name: "small", Accuracy: 87.9, GFLOPs: 7.0, ParamsM: 60.0},
			Variant{Name: "base", Accuracy: 92.6, GFLOPs: 25.0, ParamsM: 220.0},
			Variant{Name: "large", Accuracy: 95.8, GFLOPs: 85.0, ParamsM: 770.0},
			Variant{Name: "3b", Accuracy: 98.2, GFLOPs: 450.0, ParamsM: 3000.0},
			Variant{Name: "11b", Accuracy: 100, GFLOPs: 1600.0, ParamsM: 11000.0},
		),
		fam("gpt2", QuestionAnswering,
			Variant{Name: "base", Accuracy: 84.8, GFLOPs: 30.0, ParamsM: 124.0},
			Variant{Name: "medium", Accuracy: 91.4, GFLOPs: 90.0, ParamsM: 355.0},
			Variant{Name: "large", Accuracy: 96.6, GFLOPs: 180.0, ParamsM: 774.0},
			Variant{Name: "xl", Accuracy: 100, GFLOPs: 350.0, ParamsM: 1558.0},
		),
	}
}

// FamilyNames returns the family names in Zoo order.
func FamilyNames(zoo []Family) []string {
	out := make([]string, len(zoo))
	for i, f := range zoo {
		out[i] = f.Name
	}
	return out
}

// Registry resolves families and variants by name. It plays the role of the
// controller's model registry (§3): applications register a family and the
// system chooses among its variants.
type Registry struct {
	families []Family
	byName   map[string]int
	variants map[string]Variant
}

// NewRegistry builds a registry over the given families. Duplicate family
// names are rejected.
func NewRegistry(families []Family) (*Registry, error) {
	r := &Registry{
		byName:   make(map[string]int, len(families)),
		variants: make(map[string]Variant),
	}
	for _, f := range families {
		if len(f.Variants) == 0 {
			return nil, fmt.Errorf("models: family %q has no variants", f.Name)
		}
		if _, dup := r.byName[f.Name]; dup {
			return nil, fmt.Errorf("models: duplicate family %q", f.Name)
		}
		r.byName[f.Name] = len(r.families)
		r.families = append(r.families, f)
		for _, v := range f.Variants {
			r.variants[v.ID()] = v
		}
	}
	return r, nil
}

// MustRegistry is NewRegistry that panics on error, for static zoos.
func MustRegistry(families []Family) *Registry {
	r, err := NewRegistry(families)
	if err != nil {
		panic(err)
	}
	return r
}

// Families returns the registered families in registration order.
func (r *Registry) Families() []Family { return r.families }

// Family returns a family by name.
func (r *Registry) Family(name string) (Family, bool) {
	i, ok := r.byName[name]
	if !ok {
		return Family{}, false
	}
	return r.families[i], true
}

// Variant resolves a "family/name" identifier.
func (r *Registry) Variant(id string) (Variant, bool) {
	v, ok := r.variants[id]
	return v, ok
}

// AllVariants returns every registered variant in deterministic order
// (family registration order, then ascending accuracy).
func (r *Registry) AllVariants() []Variant {
	var out []Variant
	for _, f := range r.families {
		out = append(out, f.Variants...)
	}
	return out
}
