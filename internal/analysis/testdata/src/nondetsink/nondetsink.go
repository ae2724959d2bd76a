// Package nondetsink is the sink side of the determinism checker's
// call-chain corpus: it stands in for a seed-reproducible package (the test
// wires it as the checker's sink prefix). Every call edge through which
// nondeterminism taint enters this package must be flagged, with the full
// call chain in the message.
package nondetsink

import (
	"os"

	"example.com/lintcheck/nondethelper"
)

// Sample reaches a wall-clock read hidden two calls deep:
// Sample → Stamp → nowNanos → time.Now.
func Sample() int64 {
	return nondethelper.Stamp() // want determinism
}

// Total calls the sorted-keys helper; no taint, no finding.
func Total(m map[string]int) int {
	return nondethelper.SortedTotal(m)
}

// Spread reaches a map range without the sorted-keys idiom.
func Spread(m map[string]int) int {
	return nondethelper.Shuffled(m) // want determinism
}

// Environ reaches a process-environment read through the helper.
func Environ() []string {
	return nondethelper.Env() // want determinism
}

// FromEnv reads the environment directly inside the sink package.
func FromEnv() string {
	return os.Getenv("PROTEUS_SEED") // want determinism
}

// Ticks dispatches through an interface: the call is over-approximated to
// every in-module implementation, and WallClock's is tainted.
func Ticks(c nondethelper.Clock) int64 {
	return c.Ticks() // want determinism
}

// ViaFuncValue routes the tainted helper through a function-typed variable;
// bindings are tracked one assignment deep.
func ViaFuncValue() int64 {
	f := nondethelper.Stamp
	return f() // want determinism
}

// AuditedUse calls a helper whose source is suppressed in place — audited
// sources do not taint, so this stays clean.
func AuditedUse() int64 {
	return nondethelper.Audited()
}

// Allowed shows the sink-side escape hatch: the finding on this edge is
// suppressed with a reasoned directive.
func Allowed() int64 {
	return nondethelper.Stamp() //lint:allow determinism corpus demo: audited call, value feeds a log line only
}
