package milp

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkSolveFig10 measures solver wall-time on the paper's Fig. 10
// shape — allocation MILPs growing in devices d and variants q — at
// parallelism 1, 2, 4 and the machine width. The solve result is identical
// at every parallelism level (see TestParallelismByteIdentical); only
// wall-clock time may differ. CI archives these numbers as BENCH_milp.json
// via proteus-benchjson.
func BenchmarkSolveFig10(b *testing.B) {
	shapes := []struct {
		name  string
		build func() *Problem
	}{
		{"d2q6", func() *Problem { return buildAllocInstance(42, 2, 6) }},
		{"d3q10", func() *Problem { return buildAllocInstance(42, 3, 10) }},
		{"d4q14", func() *Problem { return buildAllocInstance(42, 4, 14) }},
	}
	levels := []int{1, 2, 4}
	if w := runtime.GOMAXPROCS(0); w != 1 && w != 2 && w != 4 {
		levels = append(levels, w)
	}
	for _, sh := range shapes {
		for _, par := range levels {
			b.Run(fmt.Sprintf("%s/par%d", sh.name, par), func(b *testing.B) {
				p := sh.build()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sol := Solve(p, &Options{MaxNodes: 20_000, Parallelism: par})
					if sol.Status != Optimal && sol.Status != Feasible {
						b.Fatalf("status %v", sol.Status)
					}
				}
			})
		}
	}
}
