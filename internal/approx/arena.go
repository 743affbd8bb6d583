package approx

import "scshare/internal/markov"

// levelSlot is one reusable level arena: the level scaffolding (state
// indexing, steady state, summaries), the interaction scratch, the
// generator builder, and the steady-state workspace, all cycled across
// passes, grid points, and solves. A Solver owns one slot per chain
// position plus one per readout worker of SolveAll; slot reuse across
// builds is safe because every level is fully rebuilt before it is read and
// readers only ever consume the immediately previous level.
type levelSlot struct {
	lv    level
	inter interactions
	bl    *markov.Builder
	work  markov.Workspace
	// stats is the steady-state solver effort of the slot's last build;
	// the Solver folds it into Config.Solver.Stats.
	stats markov.SolveStats
	// acc, hit and touched merge one state's transition contributions
	// before they reach the builder (see build): the dense per-destination
	// sums, which destinations the row has touched, and their list.
	acc     []float64
	hit     []bool
	touched []int
	// locSlot[l] and remSlot[o] are the interactions' tauSlots of the l
	// local and o remote departure rates.
	locSlot, remSlot []int
	// peers carries the peer-share vector handed to the interactions.
	peers []int
}

// newLevelSlot returns an empty arena whose level steps its transients in
// the given per-worker scratch (see level.stepAll).
func newLevelSlot(steps *[]stepWork) *levelSlot {
	// A state typically reaches a few dozen destinations; sizing touched
	// up front spares the first builds their growth steps.
	sl := &levelSlot{bl: markov.NewBuilder(0), touched: make([]int, 0, 64)}
	sl.lv.iter.work = steps
	return sl
}

// growFloats resizes s to length n, reusing capacity when possible. The
// contents are unspecified; callers overwrite or zero them.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts is growFloats for int slices.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
