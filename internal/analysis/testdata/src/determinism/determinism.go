// Package determinism is the golden corpus for the determinism checker.
// Lines carrying a `// want determinism` comment must be reported; every
// other line must stay quiet.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

// A package-level initializer runs outside every function body.
var epoch = time.Now() // want determinism

func wallClock() time.Duration {
	start := time.Now() // want determinism
	doWork()
	return time.Since(start) // want determinism
}

func timers(ch chan int) {
	time.Sleep(time.Millisecond) // want determinism
	select {                     // ok: a multi-way select is not a source
	case <-time.After(time.Second): // want determinism
	case <-ch:
	}
}

func allowedWallClock() int64 {
	return time.Now().UnixNano() //lint:allow determinism suppression demo: measurement never feeds simulated state
}

func globalRand(xs []int) int {
	n := rand.Intn(10)                                                    // want determinism
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want determinism
	return n
}

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // ok: source constructed and seeded in place
	return r.Intn(10)                   // ok: method on the injected generator
}

func opaqueRand(src rand.Source) int {
	r := rand.New(src) // want determinism
	return r.Intn(10)
}

func mapReduce(m map[string]int) int {
	total := 0
	for _, v := range m { // want determinism
		total += v
	}
	return total
}

func mapReduceAllowed(m map[string]int) int {
	total := 0
	//lint:allow determinism order-insensitive sum, standalone directive form
	for _, v := range m {
		total += v
	}
	for k := range m { //lint:allow determinism trailing directive form
		delete(m, k)
	}
	return total
}

func sortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m { // ok: canonical sorted-keys idiom
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m { // want determinism
		keys = append(keys, k)
	}
	return keys
}

func doWork() {}
