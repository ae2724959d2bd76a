package experiments

import (
	"time"

	"proteus/internal/allocator"
	"proteus/internal/cluster"
	"proteus/internal/models"
	"proteus/internal/profiles"
)

// Fig10Point is one measurement of the MILP scalability sweep: solve time
// of the paper's per-device formulation as one input dimension grows.
type Fig10Point struct {
	Dimension string // "devices", "variants", "types"
	Value     int
	SolveTime time.Duration
	TimedOut  bool
}

// Fig10Options parameterize the scalability sweep.
type Fig10Options struct {
	// Devices, Variants and Types are the sweep points per dimension.
	Devices  []int
	Variants []int
	Types    []int
	// TimeLimit is the per-solve cap (the paper uses 60 s; the default
	// here is 10 s to keep the bench suite fast — growth shape is what
	// matters).
	TimeLimit time.Duration
}

func (o Fig10Options) withDefaults() Fig10Options {
	if len(o.Devices) == 0 {
		o.Devices = []int{4, 8, 12, 16, 24, 32}
	}
	if len(o.Variants) == 0 {
		o.Variants = []int{9, 17, 26, 38, 51}
	}
	if len(o.Types) == 0 {
		o.Types = []int{1, 3, 5, 7, 9}
	}
	if o.TimeLimit <= 0 {
		o.TimeLimit = 10 * time.Second
	}
	return o
}

// fig10Input builds a per-device MILP instance with the requested number
// of devices (split 2:1:1), query types (a prefix of the zoo) and total
// variants (a per-family prefix). Demand is sized to ~60% of a rough
// capacity estimate so instances are feasible but non-trivial.
func fig10Input(devices, variants, types int) *allocator.Input {
	zoo := models.Zoo()
	if types > len(zoo) {
		types = len(zoo)
	}
	fams := make([]models.Family, 0, types)
	remaining := variants
	for i := 0; i < types; i++ {
		f := zoo[i]
		// Spread the variant budget across families.
		take := remaining / (types - i)
		if take < 1 {
			take = 1
		}
		if take > len(f.Variants) {
			take = len(f.Variants)
		}
		fams = append(fams, models.Family{
			Name:     f.Name,
			Task:     f.Task,
			Variants: f.Variants[:take],
		})
		remaining -= take
	}
	c := cluster.ScaledTestbed(devices)
	slos := make([]time.Duration, len(fams))
	demand := make([]float64, len(fams))
	for q, f := range fams {
		slos[q] = profiles.FamilySLO(f, 2)
	}
	in := &allocator.Input{Cluster: c, Families: fams, SLOs: slos, Demand: demand}
	// Demand: feasible by construction. Round-robin the devices over the
	// families, give each device its highest-capacity variant for its
	// family, and ask for 80% of the resulting per-family capacity — the
	// round-robin assignment is a feasibility witness, so every sweep point
	// costs exactly one MILP solve (no β back-off inside the measurement).
	capacity := make([]float64, len(fams))
	for i, d := range c.Devices() {
		q := i % len(fams)
		best := 0.0
		for _, ref := range in.Variants() {
			if ref.Family != q {
				continue
			}
			if p := in.Peak(d, ref); p > best {
				best = p
			}
		}
		capacity[q] += best
	}
	for q := range demand {
		demand[q] = 0.8 * capacity[q]
	}
	return in
}

// Fig10 reproduces the §6.8 MILP scalability study: per-device-formulation
// solve time as devices, model variants, and query types grow, each swept
// with the other two dimensions fixed at the paper's defaults.
func Fig10(o Fig10Options) ([]Fig10Point, error) {
	o = o.withDefaults()
	const (
		baseDevices  = 12
		baseVariants = 17
		baseTypes    = 3
	)
	var out []Fig10Point
	run := func(dim string, value, devices, variants, types int) error {
		in := fig10Input(devices, variants, types)
		// The figure measures a single solve of the per-device MILP, as the
		// paper does — MaxBackoffs 1 keeps the β demand loop out of the
		// measurement; a point the solver cannot finish inside the limit is
		// reported as timed out (the paper's curves likewise stop at their
		// 60-second ceiling).
		a := allocator.NewMILP(&allocator.MILPOptions{
			PerDevice:   true,
			TimeLimit:   o.TimeLimit,
			RelGap:      0.01,
			MaxBackoffs: 1,
		})
		start := time.Now()
		_, err := a.Allocate(in)
		elapsed := time.Since(start)
		out = append(out, Fig10Point{
			Dimension: dim,
			Value:     value,
			SolveTime: elapsed,
			TimedOut:  err != nil || elapsed >= o.TimeLimit,
		})
		return nil
	}

	for _, d := range o.Devices {
		if err := run("devices", d, d, baseVariants, baseTypes); err != nil {
			return nil, err
		}
	}
	for _, m := range o.Variants {
		if err := run("variants", m, baseDevices, m, maxTypesFor(m)); err != nil {
			return nil, err
		}
	}
	for _, q := range o.Types {
		if err := run("types", q, baseDevices, q*5, q); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// maxTypesFor picks enough families to absorb the variant budget.
func maxTypesFor(variants int) int {
	switch {
	case variants <= 12:
		return 3
	case variants <= 30:
		return 6
	default:
		return 9
	}
}
