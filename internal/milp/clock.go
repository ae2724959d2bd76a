package milp

import "time"

// wallNow is the package's single wall-clock read, shared by the solver's
// TimeLimit anchor and enforcement sites. Solves are byte-deterministic
// unless a configured time limit fires; reading the clock is the caller's
// explicit latency/optimality trade.
func wallNow() time.Time {
	return time.Now() //lint:allow determinism wall-clock TimeLimit anchor and enforcement; solves are deterministic unless a time limit fires
}

// sinceStart measures elapsed wall time for Solution.Elapsed, which is
// reporting-only and zeroed at every byte-deterministic serialization
// surface (see controlplane.SanitizePlanRecord).
func sinceStart(start time.Time) time.Duration {
	return time.Since(start) //lint:allow determinism reporting-only wall-clock measurement
}
