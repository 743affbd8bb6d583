package approx

import (
	"testing"

	"scshare/internal/markov"
)

// BenchmarkApproxSweepBox times the approx half of a cold Fig. 7a sweep:
// the 20 serial SolveAll calls of the sweep box (see sweepBox), each on a
// fresh handle, with one fresh warm cache per iteration threaded through
// the box. It depends neither on the order a sweep primes the box in nor
// on the core count, so it attributes kernel changes (generator assembly,
// transient stepping) on their own. Run with -benchmem.
func BenchmarkApproxSweepBox(b *testing.B) {
	box := sweepBox()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := solveSweepBox(box, nil, markov.SteadyStateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
