package allocator

// feasibleSomewhere reports whether the variant can serve its family's SLO
// on at least one device type in the cluster.
func feasibleSomewhere(in *Input, ref VariantRef) bool {
	for _, g := range in.Cluster.GroupByType() {
		if peakFor(g.Spec, ref, in) > 0 {
			return true
		}
	}
	return false
}

// extremeVariantFilter returns a Filter admitting, per family, only the
// most (or least) accurate variant that is SLO-feasible somewhere in the
// cluster. Clipper-HA/HT and the w/o-MS ablation use it.
func extremeVariantFilter(most bool) func(ref VariantRef, in *Input) bool {
	return func(ref VariantRef, in *Input) bool {
		f := in.Families[ref.Family]
		if most {
			for i := len(f.Variants) - 1; i >= 0; i-- {
				cand := VariantRef{Family: ref.Family, Variant: f.Variants[i]}
				if feasibleSomewhere(in, cand) {
					return ref.Variant.ID() == cand.Variant.ID()
				}
			}
		} else {
			for i := 0; i < len(f.Variants); i++ {
				cand := VariantRef{Family: ref.Family, Variant: f.Variants[i]}
				if feasibleSomewhere(in, cand) {
					return ref.Variant.ID() == cand.Variant.ID()
				}
			}
		}
		return false
	}
}

// Clipper is the fully static baseline (§6.1.1): the paper extends Clipper
// to obtain one initial allocation from the MILP and never changes it.
// Two flavours exist: Clipper-HT pins every family to its least accurate
// (highest-throughput) variant; Clipper-HA to its most accurate one. The
// same plan is returned on every call; Dynamic() is false so the control
// plane never re-invokes it. Clipper is also representative of
// TensorFlow-Serving and Triton (§6.1.1), which likewise leave allocation
// static.
type Clipper struct {
	name   string
	inner  *MILP
	cached *Allocation
}

// NewClipperHT returns the high-throughput static baseline ("clipper-ht").
func NewClipperHT(opts *MILPOptions) *Clipper {
	return &Clipper{name: "clipper-ht", inner: NewMILP(withFilter(opts, extremeVariantFilter(false)))}
}

// NewClipperHA returns the high-accuracy static baseline ("clipper-ha").
func NewClipperHA(opts *MILPOptions) *Clipper {
	return &Clipper{name: "clipper-ha", inner: NewMILP(withFilter(opts, extremeVariantFilter(true)))}
}

// Name implements Allocator.
func (c *Clipper) Name() string { return c.name }

// Dynamic implements Allocator.
func (c *Clipper) Dynamic() bool { return false }

// Features implements Allocator.
func (c *Clipper) Features() Features {
	return Features{Method: "Static"}
}

// Allocate implements Allocator. The first call computes the static plan
// (for the demand it is given — the experiment's initial provisioning
// point); later calls return it unchanged.
func (c *Clipper) Allocate(in *Input) (*Allocation, error) {
	if c.cached != nil {
		return c.cached, nil
	}
	a, err := c.inner.Allocate(in)
	if err != nil {
		return nil, err
	}
	c.cached = a
	return a, nil
}
