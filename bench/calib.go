package main

import "time"

// The sandboxes this benchmark runs in share their host: the same
// single-threaded loop takes anywhere between 1× and 2× as long from one
// minute to the next, in regimes that last seconds to minutes. Raw times
// therefore cannot be compared between two runs. Every timed region of a
// CPU-bound workload is bracketed by a fixed calibration kernel, and its wall
// and CPU times are reported in reference seconds: measured time × machine
// speed, where speed = calibNominal ÷ the kernel's measured time. The
// calibration is not part of any timed region. live_steady is not
// normalised: its latencies are sleeps and its CPU time is dominated by
// wall-clock-bounded waiting, neither of which scales with machine speed.

// calibNominal is the kernel's time on an idle machine of the class the first
// baseline was recorded on; it only fixes the unit.
const calibNominal = 25 * time.Millisecond

var calibBuf = make([]uint64, 1<<20)

// calibrate runs the kernel — an LCG scattering read-modify-writes over 8 MB,
// so both the core and the memory system are exercised — and returns how long
// it took.
func calibrate() time.Duration {
	t := time.Now()
	x := uint64(1)
	const mask = 1<<20 - 1
	for k := 0; k < 8; k++ {
		for range calibBuf {
			x = x*6364136223846793005 + 1442695040888963407
			calibBuf[(x>>40)&mask] += x
		}
	}
	sink += int(x & 1)
	return time.Since(t)
}

// speedOf converts calibration readings taken around a timed region into the
// machine-speed factor of that region (1 = nominal, 0.5 = half speed).
func speedOf(readings ...time.Duration) float64 {
	var sum time.Duration
	for _, r := range readings {
		sum += r
	}
	return float64(calibNominal) * float64(len(readings)) / float64(sum)
}
