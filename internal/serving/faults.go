package serving

import (
	"sort"
	"time"

	"proteus/internal/telemetry"
)

// faultLoop replays the failure schedule on wall-clock timers.
func (s *Server) faultLoop() {
	defer s.wg.Done()
	type action struct {
		at     time.Duration
		device int
		fail   bool
	}
	var acts []action
	for _, ev := range s.cfg.Faults.Events {
		acts = append(acts, action{at: ev.FailAt, device: ev.Device, fail: true})
		if ev.RecoverAt > 0 {
			acts = append(acts, action{at: ev.RecoverAt, device: ev.Device})
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	for _, a := range acts {
		if delay := a.at - s.now(); delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-s.stop:
				timer.Stop()
				return
			}
		}
		if a.fail {
			s.failDevice(a.device)
		} else {
			s.recoverDevice(a.device)
		}
	}
}

// failDevice kills device d: its worker stops executing, queued (and, once
// its worker notices, in-flight) queries are re-dispatched to surviving
// replicas, and the control loop gets a failure trigger.
func (s *Server) failDevice(d int) {
	now := s.now()
	s.mu.Lock()
	ok := s.plane.SetHealth(now, d, false)
	s.mu.Unlock()
	if !ok {
		return
	}
	stranded := s.workers[d].fail(now)
	s.plane.FailureIncident(now, d)
	s.rebuildTable()
	for _, q := range stranded {
		s.requeue(now, q, telemetry.CauseDeviceFailure)
	}
	s.requestRealloc("failure")
}

// recoverDevice brings device d back with an empty memory: it reloads
// whatever the current plan hosts on it (usually nothing) and the control
// loop gets a recovery trigger, whose re-plan puts it back to work.
func (s *Server) recoverDevice(d int) {
	now := s.now()
	s.mu.Lock()
	ok := s.plane.SetHealth(now, d, true)
	ref := s.plane.Hosted(d)
	s.mu.Unlock()
	if !ok {
		return
	}
	w := s.workers[d]
	w.mu.Lock()
	w.dev.Recover(ref, now+s.cfg.ModelLoadDelay)
	w.mu.Unlock()
	w.wake()
	s.rebuildTable()
	s.requestRealloc("recovery")
}
