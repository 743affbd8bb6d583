package claim

import (
	"slices"
	"sync/atomic"
	"testing"
)

// TestRunClaimsEachIndexOnce pins Run's contract: every index runs exactly
// once, worker ids stay below Workers(n, workers) with no two calls of one
// worker overlapping, and a single worker runs the items in index order on
// the caller.
func TestRunClaimsEachIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{0, 4}, {1, 4}, {7, 1}, {7, 3}, {100, 4}, {5, 0}} {
		hits := make([]atomic.Int32, tc.n)
		w := Workers(tc.n, tc.workers)
		busy := make([]atomic.Bool, w)
		var order []int
		Run(tc.n, tc.workers, func(worker, i int) {
			if worker < 0 || worker >= w {
				t.Errorf("n=%d workers=%d: worker id %d outside [0,%d)", tc.n, tc.workers, worker, w)
				return
			}
			if busy[worker].Swap(true) {
				t.Errorf("n=%d workers=%d: worker %d runs two items at once", tc.n, tc.workers, worker)
			}
			hits[i].Add(1)
			if w == 1 {
				order = append(order, i)
			}
			busy[worker].Store(false)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, got)
			}
		}
		if w == 1 && tc.n > 0 && !slices.IsSorted(order) {
			t.Errorf("n=%d workers=%d: one worker ran %v, want index order", tc.n, tc.workers, order)
		}
	}
}

// TestRunSerialAllocFree pins the serial path to zero allocations: with
// one worker, or at most one item, Run is a plain loop on the caller.
func TestRunSerialAllocFree(t *testing.T) {
	sum := 0
	fn := func(_, i int) { sum += i }
	for _, tc := range []struct{ n, workers int }{{8, 1}, {1, 4}, {0, 4}, {1, 0}} {
		if allocs := testing.AllocsPerRun(100, func() { Run(tc.n, tc.workers, fn) }); allocs != 0 {
			t.Errorf("n=%d workers=%d: Run allocates %v times", tc.n, tc.workers, allocs)
		}
	}
}
