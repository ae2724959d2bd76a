package allocator

import "fmt"

// WithoutSelection is the "Proteus w/o MS" ablation (§6.5): optimal MILP
// placement and query assignment with adaptive batching, but no accuracy
// scaling — every family is pinned to its most accurate feasible variant,
// so effective accuracy stays at 100% while overload turns into SLO
// violations.
type WithoutSelection struct {
	inner *MILP
}

// NewWithoutSelection returns the w/o-MS ablation allocator.
func NewWithoutSelection(opts *MILPOptions) *WithoutSelection {
	return &WithoutSelection{inner: NewMILP(withFilter(opts, extremeVariantFilter(true)))}
}

// Name implements Allocator.
func (*WithoutSelection) Name() string { return "proteus-wo-ms" }

// Dynamic implements Allocator.
func (*WithoutSelection) Dynamic() bool { return true }

// Features implements Allocator.
func (*WithoutSelection) Features() Features {
	return Features{DynamicPlacement: true, DynamicSelection: false, AccuracyScaling: false, Method: "MILP"}
}

// Allocate implements Allocator.
func (a *WithoutSelection) Allocate(in *Input) (*Allocation, error) {
	return a.inner.Allocate(in)
}

// WithoutAssignment is the "Proteus w/o QA" ablation (§6.5): the MILP's
// model selection and placement are kept, but queries are spread uniformly
// across the devices hosting each family's variants, ignoring their serving
// capacities.
type WithoutAssignment struct {
	inner *MILP
}

// NewWithoutAssignment returns the w/o-QA ablation allocator.
func NewWithoutAssignment(opts *MILPOptions) *WithoutAssignment {
	return &WithoutAssignment{inner: NewMILP(opts)}
}

// Name implements Allocator.
func (*WithoutAssignment) Name() string { return "proteus-wo-qa" }

// Dynamic implements Allocator.
func (*WithoutAssignment) Dynamic() bool { return true }

// Features implements Allocator.
func (*WithoutAssignment) Features() Features {
	return Features{DynamicPlacement: true, DynamicSelection: true, AccuracyScaling: true, Method: "MILP"}
}

// Allocate implements Allocator.
func (a *WithoutAssignment) Allocate(in *Input) (*Allocation, error) {
	alloc, err := a.inner.Allocate(in)
	if err != nil {
		return nil, err
	}
	// Replace the optimal assignment with a uniform spread: y_{d,q} =
	// scale/|D_q| for every hosting device, regardless of capacity.
	for q := range alloc.Routing {
		hosts := 0
		for d := range alloc.Routing[q] {
			if alloc.Hosted[d] != nil && alloc.Hosted[d].Family == q {
				hosts++
			}
		}
		for d := range alloc.Routing[q] {
			if alloc.Hosted[d] != nil && alloc.Hosted[d].Family == q {
				alloc.Routing[q][d] = alloc.DemandScale / float64(hosts)
			} else {
				alloc.Routing[q][d] = 0
			}
		}
	}
	return alloc, nil
}

// ByName constructs an allocator from the artifact's model_allocation
// config names: "ilp" (Proteus), "infaas_v2", "sommelier", "clipper-ht",
// "clipper-ha", and the ablation names "proteus-wo-ms", "proteus-wo-mp",
// "proteus-wo-qa".
func ByName(name string, opts *MILPOptions) (Allocator, error) {
	switch name {
	case "ilp":
		return NewMILP(opts), nil
	case "infaas_v2":
		return NewInfaasAccuracy(), nil
	case "sommelier":
		return NewSommelier(opts), nil
	case "clipper-ht":
		return NewClipperHT(opts), nil
	case "clipper-ha":
		return NewClipperHA(opts), nil
	case "proteus-wo-ms":
		return NewWithoutSelection(opts), nil
	case "proteus-wo-mp":
		return NewWithoutPlacement(opts), nil
	case "proteus-wo-qa":
		return NewWithoutAssignment(opts), nil
	}
	return nil, fmt.Errorf("allocator: unknown allocator %q", name)
}
