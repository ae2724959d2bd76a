// Package nondethelper is the source side of the determinism checker's
// call-chain corpus: an unrestricted helper package whose functions hide
// nondeterminism sources from their callers. None of these are flagged
// here — the findings land in the seed-reproducible caller package
// (nondetsink), with the call chain back to these lines in the message.
package nondethelper

import (
	"os"
	"sort"
	"time"
)

// Stamp hides a wall-clock read two calls deep from the sink:
// sink → Stamp → nowNanos → time.Now.
func Stamp() int64 { return nowNanos() }

func nowNanos() int64 { return time.Now().UnixNano() }

// Env reads the process environment.
func Env() []string { return os.Environ() }

// SortedTotal iterates a map through the sorted-keys idiom; it carries no
// taint and its callers must stay clean (false-positive guard).
func SortedTotal(m map[string]int) int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// Shuffled iterates a map in randomized order — a source.
func Shuffled(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Audited wraps a wall-clock read that is suppressed in place: the directive
// is an audited statement that the value never feeds seed-reproducible
// results, so callers of Audited must stay clean.
func Audited() int64 {
	return time.Now().UnixNano() //lint:allow determinism corpus demo: reporting-only value, never feeds results
}

// Clock exists so the sink can exercise interface dispatch
// over-approximation: one implementation is tainted, one is not.
type Clock interface{ Ticks() int64 }

// WallClock reads the wall clock — tainted.
type WallClock struct{}

// Ticks implements Clock.
func (WallClock) Ticks() int64 { return time.Now().Unix() }

// FixedClock returns an injected value — clean.
type FixedClock struct{ T int64 }

// Ticks implements Clock.
func (f FixedClock) Ticks() int64 { return f.T }
