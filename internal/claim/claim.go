// Package claim spreads independent work items over the calling goroutine
// and a bounded number of helpers. A sweep's price points, the market
// game's best responses and multi-starts, the memo's batch of uncached
// probes, WelfareEvaluator.Prime's speculative solves, and an approx
// solve's transient stepping blocks and readouts all run through Run.
package claim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls fn(w, i) for every i in [0, n) and returns once every call has
// returned. The calling goroutine (worker 0) and up to min(workers, n)-1
// helpers (workers 1, 2, ...) claim indices in ascending order from one
// shared counter until none are left, so n <= 1 or workers = 1 starts no
// goroutine and runs the items in index order. w identifies the claiming
// worker, so a caller can hand each worker its own scratch: no two calls
// with the same w ever overlap. workers <= 0 means GOMAXPROCS. A single
// worker runs a plain loop, so the serial path allocates nothing.
func Run(n, workers int, fn func(w, i int)) {
	all := Workers(n, workers)
	if all == 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < all; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// Workers returns how many workers Run starts for n items under the given
// bound (workers <= 0 means GOMAXPROCS): the size a caller gives its
// per-worker scratch.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}
