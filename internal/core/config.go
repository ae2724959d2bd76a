// Package core is the Proteus simulator: it drives the shared serving engine
// (internal/dataplane — routing with admission, per-device queues and
// batching steps, accounting, fault and overload reactions) from the
// discrete-event engine's virtual clock, and owns what only a simulation
// has: the run loop and its events — among them the ones the controller's
// re-plan policy asks for — the control-path apply delay, asking about a
// burst on every arrival, elastic provisioning. It is the paper's simulator
// (§6.1.5), which tracks their 40-machine cluster testbed within ~1%.
package core

import (
	"errors"
	"fmt"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/dataplane"
)

// modelLoadDelay is the time a device is unavailable while switching hosted
// variants (container start + weight load).
const modelLoadDelay = 2 * time.Second

// planApplyDelay models the control-path latency between invoking the
// resource manager and the new plan taking effect (solver + propagation
// time, off the critical path per §4).
const planApplyDelay = time.Second

// Config describes one simulated serving system: the engine's one
// configuration, which dataplane.Config documents. The simulator refuses the
// live server's InitialDemand, ModelLoadDelay and ExecNoiseFrac and fills in
// Elastic's defaults; dataplane.New checks the rest and fills in the
// engine's.
type Config = dataplane.Config

// ElasticConfig parameterizes hardware scaling in tandem with accuracy
// scaling (§7 of the paper, described there as future work).
type ElasticConfig = dataplane.ElasticConfig

// simConfig refuses what the virtual clock cannot serve and fills in the
// elastic fleet's defaults, the only ones the simulator owns.
func simConfig(c Config) (Config, error) {
	switch {
	case len(c.InitialDemand) > 0:
		return c, errors.New("core: Config.InitialDemand is the live server's: a simulation takes its initial demand from the trace or RunArrivals")
	case c.ModelLoadDelay != 0:
		return c, fmt.Errorf("core: Config.ModelLoadDelay is the live server's: a simulated model load takes %v", modelLoadDelay)
	case c.ExecNoiseFrac != 0:
		return c, errors.New("core: Config.ExecNoiseFrac is the live server's: a simulated batch takes its profiled latency")
	}
	if e := c.Elastic; e != nil {
		out := *e
		if out.Type == "" {
			out.Type = cluster.V100
		}
		if out.ProvisionDelay <= 0 {
			out.ProvisionDelay = 60 * time.Second
		}
		if out.MaxExtra < 0 {
			out.MaxExtra = 0
		}
		c.Elastic = &out
	}
	return c, nil
}
