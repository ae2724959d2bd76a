package core

import (
	"proteus/internal/simulation"
	"proteus/internal/telemetry"
)

// failDevice takes device d down at the current simulation time: its queued
// and in-flight queries drain back to the router (the batch's completion
// event is cancelled — the hardware died mid-execution), the routing table
// stops admitting it, and a failure trigger goes to the re-plan policy.
func (s *System) failDevice(d int) {
	now := s.engine.Now()
	if !s.plane.SetHealth(now, d, false) {
		return
	}
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
	s.trigger("failure")
}

// recoverDevice brings device d back at the current simulation time. The
// device rejoins with no model loaded; it reloads whatever the current plan
// hosts on it (usually nothing, since post-failure plans avoid it) and a
// recovery-triggered re-plan puts it back to work.
func (s *System) recoverDevice(d int) {
	now := s.engine.Now()
	if !s.plane.SetHealth(now, d, true) {
		return
	}
	w := s.workers[d]
	w.dev.Recover(s.plane.Hosted(d), now+modelLoadDelay)
	s.step(w)
	s.afterLoad(w, now)
	s.rebuildTable()
	s.trigger("recovery")
}
