package core

import (
	"proteus/internal/simulation"
	"proteus/internal/telemetry"
)

// failDevice takes device d down at the current simulation time: its queued
// and in-flight queries drain back to the router (the batch's completion
// event is cancelled — the hardware died mid-execution), the routing table
// stops admitting it, and a failure-triggered re-allocation is requested
// (honoring the control plane's cooldown).
func (s *System) failDevice(d int) {
	now := s.engine.Now()
	if !s.plane.SetHealth(now, d, false) {
		return
	}
	s.syncClusterHealth()
	w := s.workers[d]
	queued, inflight := w.dev.Fail(now)
	s.cancelWake(w)
	s.engine.Cancel(w.done)
	w.done = simulation.Handle{}
	s.plane.FailureIncident(now, d)
	s.rebuildTable()
	for _, q := range append(queued, inflight...) {
		s.requeue(now, q, telemetry.CauseDeviceFailure)
	}
	s.faultRealloc("failure")
}

// recoverDevice brings device d back at the current simulation time. The
// device rejoins with no model loaded; it reloads whatever the current plan
// hosts on it (usually nothing, since post-failure plans avoid it) and a
// recovery-triggered re-allocation puts it back to work.
func (s *System) recoverDevice(d int) {
	now := s.engine.Now()
	if !s.plane.SetHealth(now, d, true) {
		return
	}
	s.syncClusterHealth()
	w := s.workers[d]
	w.dev.Recover(s.plane.Hosted(d), now+s.cfg.ModelLoadDelay)
	s.step(w)
	s.afterLoad(w, now)
	s.rebuildTable()
	s.faultRealloc("recovery")
}

// syncClusterHealth tells the controller which devices it may plan over.
func (s *System) syncClusterHealth() {
	ctl := s.plane.Controller
	ctl.SetCluster(ctl.Cluster().WithHealth(s.plane.Down()))
}

// faultRealloc requests a failure- or recovery-triggered re-allocation. If
// the cooldown since the last plan has not elapsed, the request is deferred
// to the cooldown boundary instead of being dropped; coalesced requests keep
// the most recent trigger.
func (s *System) faultRealloc(trigger string) {
	if !s.plane.Controller.Dynamic() {
		// Static baselines never re-plan; degradation is handled entirely by
		// the routing-table mask and the recovery reload.
		return
	}
	now := s.engine.Now()
	s.pendingFaultTrigger = trigger
	if s.pendingFaultRetry {
		return
	}
	if rem := s.plane.Controller.CooldownRemaining(now); rem > 0 {
		s.pendingFaultRetry = true
		s.engine.Schedule(now+rem, func() {
			s.pendingFaultRetry = false
			s.reallocate(s.pendingFaultTrigger)
		})
		return
	}
	s.reallocate(trigger)
}
