// Package cluster models the heterogeneous fixed-size device fleet that
// Proteus serves on: device types with distinct compute efficiency and
// memory, and clusters composed of counts of each type. The paper's testbed
// is 20 Intel Xeon Gold 6126 CPU workers, 10 NVIDIA GTX 1080 Ti workers and
// 10 NVIDIA V100 workers (§6.1.5).
package cluster

import (
	"fmt"
	"sort"
)

// DeviceType identifies a hardware class. All devices of a type are
// interchangeable: same memory, same performance profile.
type DeviceType string

// The paper's three device types.
const (
	CPU       DeviceType = "cpu"
	GTX1080Ti DeviceType = "gtx1080ti"
	V100      DeviceType = "v100"
)

// TypeSpec is the performance/capacity profile of a device type. The
// efficiency numbers are calibrated so that the synthetic model zoo in
// internal/models reproduces the accuracy-throughput curves of the paper's
// Figure 1a (see internal/profiles).
type TypeSpec struct {
	Type DeviceType
	// MemoryMB is the memory available for model weights and activations.
	MemoryMB float64
	// FixedOverheadMS is the per-batch fixed latency (framework dispatch,
	// kernel launch, transfer setup).
	FixedOverheadMS float64
	// EffGFLOPsPerMS is the effective compute rate applied to a variant's
	// scaled compute cost; see profiles.Latency.
	EffGFLOPsPerMS float64
}

// builtinSpecs holds the three standard device types.
var builtinSpecs = map[DeviceType]TypeSpec{
	CPU:       {Type: CPU, MemoryMB: 65536, FixedOverheadMS: 10, EffGFLOPsPerMS: 0.0067},
	GTX1080Ti: {Type: GTX1080Ti, MemoryMB: 11264, FixedOverheadMS: 22, EffGFLOPsPerMS: 0.173},
	V100:      {Type: V100, MemoryMB: 16384, FixedOverheadMS: 16, EffGFLOPsPerMS: 0.26},
}

// SpecFor returns the built-in spec for a device type, or an error on
// unknown types. Config-driven entry points (proteusd, proteus-sim) use it
// to surface typos as validation errors instead of panicking the daemon.
func SpecFor(t DeviceType) (TypeSpec, error) {
	s, ok := builtinSpecs[t]
	if !ok {
		return TypeSpec{}, fmt.Errorf("cluster: unknown device type %q (known: %v)", t, KnownTypes())
	}
	return s, nil
}

// Spec returns the built-in spec for a device type. It panics on unknown
// types, which indicate a programming error; validate config-driven types
// with SpecFor first.
func Spec(t DeviceType) TypeSpec {
	s, err := SpecFor(t)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// KnownTypes returns the built-in device types in deterministic order.
func KnownTypes() []DeviceType {
	return []DeviceType{CPU, GTX1080Ti, V100}
}

// Device is one worker machine in the cluster.
type Device struct {
	ID   int
	Name string
	Spec TypeSpec
}

// Cluster is an ordered, fixed set of devices, with an optional
// health/availability dimension: devices can be marked down (failed) and the
// allocator then plans only over the healthy subset, while device IDs stay
// stable so worker arrays and allocation shapes never shift. A Cluster value
// is immutable — health changes produce a new view via WithHealth.
type Cluster struct {
	devices []Device
	// down[id] marks device id unavailable; nil means all healthy.
	down []bool
}

// New builds a cluster from per-type counts, ordering devices by the order
// of the counts slice and numbering them densely from zero.
func New(counts []TypeCount) *Cluster {
	c := &Cluster{}
	id := 0
	for _, tc := range counts {
		spec := tc.Spec
		if spec == (TypeSpec{}) {
			spec = Spec(tc.Type)
		}
		for i := 0; i < tc.Count; i++ {
			c.devices = append(c.devices, Device{
				ID:   id,
				Name: fmt.Sprintf("%s-%d", tc.Type, i),
				Spec: spec,
			})
			id++
		}
	}
	return c
}

// TypeCount is a homogeneous slice of a cluster: Count devices of Type.
// Spec optionally overrides the built-in TypeSpec (used by scalability
// benches to synthesize artificial heterogeneity).
type TypeCount struct {
	Type  DeviceType
	Count int
	Spec  TypeSpec
}

// ScaledTestbed returns a cluster with the paper's 2:1:1 type ratio scaled
// to the given total size (rounded to multiples of four). Used as the
// default end-to-end experiment cluster so that exact MILP solves fit the
// control period with the pure-Go solver (see DESIGN.md).
func ScaledTestbed(total int) *Cluster {
	if total < 4 {
		total = 4
	}
	quarter := total / 4
	return New([]TypeCount{
		{Type: CPU, Count: 2 * quarter},
		{Type: GTX1080Ti, Count: quarter},
		{Type: V100, Count: quarter},
	})
}

// NewFromSpec builds a cluster from per-type counts like New, but validates
// device types and counts instead of panicking. Config-driven entry points
// use it so an unknown type in a config file surfaces as an error.
func NewFromSpec(counts []TypeCount) (*Cluster, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("cluster: no device counts given")
	}
	for _, tc := range counts {
		if tc.Count < 0 {
			return nil, fmt.Errorf("cluster: negative count %d for device type %q", tc.Count, tc.Type)
		}
		if tc.Spec == (TypeSpec{}) {
			if _, err := SpecFor(tc.Type); err != nil {
				return nil, err
			}
		}
	}
	c := New(counts)
	if c.Size() == 0 {
		return nil, fmt.Errorf("cluster: all device counts are zero")
	}
	return c, nil
}

// Devices returns the devices in ID order, healthy or not. The returned
// slice must not be modified.
func (c *Cluster) Devices() []Device { return c.devices }

// WithHealth returns a view of the cluster with the given down-mask (true =
// failed). The device set and IDs are unchanged — only GroupByType,
// HealthyDevices and Healthy reflect the mask, so allocation shapes stay
// aligned with the full fleet. The mask is copied; a short mask leaves the
// remaining devices healthy, and nil clears all failures.
func (c *Cluster) WithHealth(down []bool) *Cluster {
	out := &Cluster{devices: c.devices}
	for id := range down {
		if id >= len(c.devices) {
			break
		}
		if down[id] {
			if out.down == nil {
				out.down = make([]bool, len(c.devices))
			}
			out.down[id] = true
		}
	}
	return out
}

// Healthy reports whether the device with the given ID is available.
// Out-of-range IDs are reported unhealthy.
func (c *Cluster) Healthy(id int) bool {
	if id < 0 || id >= len(c.devices) {
		return false
	}
	return c.down == nil || !c.down[id]
}

// HealthyDevices returns the available devices in ID order.
func (c *Cluster) HealthyDevices() []Device {
	if c.down == nil {
		return c.devices
	}
	out := make([]Device, 0, len(c.devices))
	for _, d := range c.devices {
		if !c.down[d.ID] {
			out = append(out, d)
		}
	}
	return out
}

// WithExtra returns a new cluster with one additional device of the given
// type appended (IDs of existing devices are unchanged). Used by the §7
// hardware-scaling-in-tandem extension, where provisioned servers join the
// fleet after their start-up delay.
func (c *Cluster) WithExtra(t DeviceType) *Cluster {
	out := &Cluster{devices: make([]Device, len(c.devices), len(c.devices)+1)}
	copy(out.devices, c.devices)
	if c.down != nil {
		out.down = make([]bool, len(c.devices)+1)
		copy(out.down, c.down)
	}
	id := len(out.devices)
	out.devices = append(out.devices, Device{
		ID:   id,
		Name: fmt.Sprintf("%s-extra-%d", t, id),
		Spec: Spec(t),
	})
	return out
}

// Size returns the number of devices.
func (c *Cluster) Size() int { return len(c.devices) }

// Device returns the device with the given ID. It panics on out-of-range
// IDs.
func (c *Cluster) Device(id int) Device {
	if id < 0 || id >= len(c.devices) {
		panic(fmt.Sprintf("cluster: device id %d out of range [0,%d)", id, len(c.devices)))
	}
	return c.devices[id]
}

// TypeGroup is the set of device IDs sharing one TypeSpec.
type TypeGroup struct {
	Spec    TypeSpec
	Devices []int
}

// GroupByType partitions the *healthy* devices into groups with identical
// specs, in deterministic order. The resource allocator aggregates identical
// devices into one integer variable per group, which shrinks the MILP
// exactly (see DESIGN.md); excluding failed devices here means every
// group-based allocator automatically plans only over the available fleet.
func (c *Cluster) GroupByType() []TypeGroup {
	byKey := map[TypeSpec][]int{}
	var keys []TypeSpec
	for _, d := range c.devices {
		if !c.Healthy(d.ID) {
			continue
		}
		if _, ok := byKey[d.Spec]; !ok {
			keys = append(keys, d.Spec)
		}
		byKey[d.Spec] = append(byKey[d.Spec], d.ID)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Type != keys[j].Type {
			return keys[i].Type < keys[j].Type
		}
		return keys[i].EffGFLOPsPerMS < keys[j].EffGFLOPsPerMS
	})
	groups := make([]TypeGroup, 0, len(keys))
	for _, k := range keys {
		groups = append(groups, TypeGroup{Spec: k, Devices: byKey[k]})
	}
	return groups
}
