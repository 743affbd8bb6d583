package approx

import (
	"testing"

	"scshare/internal/markov"
)

// BenchmarkApproxSweepBox times the approx half of a cold Fig. 7a sweep:
// the 20 SolveAll calls of the sweep box (see sweepBox), one after
// another, each on a fresh handle, with one fresh warm cache per iteration
// threaded through the box. It does not depend on the order a sweep primes
// the box in. Each solve steps its levels' groups and runs its readouts on
// up to GOMAXPROCS workers, so -cpu 1 is the kernel row: it attributes
// kernel changes (generator assembly, transient stepping) on their own,
// and higher -cpu rows add the idle-core helpers. Run with -benchmem.
func BenchmarkApproxSweepBox(b *testing.B) {
	box := sweepBox()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := solveSweepBox(box, nil, markov.SteadyStateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
