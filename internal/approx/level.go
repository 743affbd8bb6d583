package approx

import (
	"fmt"
	"math"
	"slices"

	"scshare/internal/claim"
	"scshare/internal/cloud"
	"scshare/internal/markov"
	"scshare/internal/queueing"
	"scshare/internal/sparse"
)

// level is one chain M^i of the hierarchy. Levels live inside levelSlot
// arenas and are recycled across builds via reset; every field is either
// rebuilt or fully overwritten per build.
type level struct {
	sc    cloud.SC
	share int // S_i of this level's SC
	pool  int // B_i = sum of the other SCs' shares (declared pool)
	// poolDim truncates the modeled (o, a) grid: shared-VM usage beyond it
	// has negligible probability (it is sized from the federation's
	// overflow demand), so states above it are not enumerated and the pool
	// is treated as exhausted there.
	poolDim int
	qmax    int

	// Compact state indexing: idx = (q*(share+1) + s)*nOA + oaIdx[o][a].
	nOA    int
	oaIdx  [][]int
	oaList [][2]int

	// pnf memoizes pNoForward over (q, aloc, o) for one build; NaN marks an
	// entry not yet computed.
	pnf []float64

	chain   *markov.CTMC
	uniform *markov.DTMC // uniformized chain reused by interaction iterates
	gamma   float64      // uniformization rate of uniform
	steady  []float64
	// demandDriven marks a predecessor-less level whose s dimension tracks
	// lending to successors (the feedback refinement); such lending must
	// not be re-exported to the next level as predecessor usage.
	demandDriven bool

	// cell maps each state to its cell of the summary space the next level
	// reads this level through (see summaryStrides): the pool usage
	// excluding this SC F = o+a, this SC's VMs serving predecessors
	// P = s, the share headroom it cannot back with an idle VM, and
	// whether it has waiting requests.
	cell []int

	// groups[g] lists states with total shared usage s+o+a == g, and
	// groupMass[g] is their steady mass, summed in list order.
	groups    [][]int
	groupMass []float64
	// iter caches the stepped transient iterates the next level's
	// interaction vectors mix (see stepAll).
	iter iterateCache

	// forward is the per-state probability that an arrival at this SC is
	// forwarded to the public cloud, accumulated during assembly.
	forward []float64
}

// numStates returns the size of this level's state space.
func (lv *level) numStates() int { return (lv.qmax + 1) * (lv.share + 1) * lv.nOA }

func (lv *level) index(q, s, oa int) int {
	return (q*(lv.share+1)+s)*lv.nOA + oa
}

func (lv *level) decode(idx int) (q, s, o, a int) {
	oa := idx % lv.nOA
	rest := idx / lv.nOA
	s = rest % (lv.share + 1)
	q = rest / (lv.share + 1)
	return q, s, lv.oaList[oa][0], lv.oaList[oa][1]
}

// queueTailEps is the steady-mass bound at which queueCap cuts the queue:
// the unit roundoff of a double, so the first row cut off is lost next to
// the level's total mass of one.
const queueTailEps = 0x1p-53

// queueCapLimit is the largest truncation level queueCap returns: a 6σ
// margin on the admission window's Poisson count with every modeled shared
// VM assisting the SC, past which P^NF has decayed to numerical zero.
func queueCapLimit(sc cloud.SC, poolDim int) int {
	m := float64(sc.VMs+poolDim) * sc.ServiceRate * sc.SLA
	return sc.VMs + int(math.Ceil(m+6*math.Sqrt(m))) + 4
}

// queueCap picks the truncation level qmax for q from the level's own
// rates: the first q >= VMs at which a flux bound on the steady mass of
// row q+1 falls below queueTailEps, never above queueCapLimit.
//
// The bound is flux balance across the cut between rows q and q+1 (row q
// is every state with that q). Every transition of build moves q by at
// most one: C1 (only reachable at q < VMs) and C3 raise it; every C4
// branch and C5's "own queue keeps the VM busy" lower it; C2, the other
// C5 branches and the successor-demand process leave it. For q >= VMs the
// only upward move is C3, at rate at most λ·pNoForward(q, s, o), whose
// maximum over s and o is at s = 0, o = poolDim:
// PNoForward(q+poolDim, VMs+poolDim, μ, SLA). Every state of row q+1 > VMs
// has VMs-s >= VMs-share busy local VMs, each of whose departures (C4)
// lowers q, so the down-flux is at least π(q+1)·(VMs-share)·μ. In steady
// state the two fluxes are equal, so π(q+1) <= π(q)·r(q) with
// r(q) = λ·PNoForward(q+poolDim, VMs+poolDim, μ, SLA) / ((VMs-share)·μ),
// and from π(VMs) <= 1 the running product b(q) = min(1, b(q-1)·r(q))
// bounds π(q+1). The truncation itself (q >= qmax forwards every C3
// arrival) only removes up-flux, so the rows it keeps obey the same bound.
// With share == VMs no local departure is guaranteed and the limit is
// returned.
func queueCap(sc cloud.SC, share, poolDim int) int {
	limit := queueCapLimit(sc, poolDim)
	down := float64(sc.VMs-share) * sc.ServiceRate
	if down <= 0 {
		return limit
	}
	b := 1.0
	for q := sc.VMs; q < limit; q++ {
		up := sc.ArrivalRate * queueing.PNoForward(q+poolDim, sc.VMs+poolDim, sc.ServiceRate, sc.SLA)
		if b = min(1, b*up/down); b < queueTailEps {
			return q
		}
	}
	return limit
}

// reset re-dimensions the level scaffolding in place. poolDim <= pool
// bounds the modeled shared-VM usage; the (o, a) index grid is rebuilt only
// when that bound actually changes.
func (lv *level) reset(sc cloud.SC, share, pool, poolDim int) {
	if poolDim <= 0 || poolDim > pool {
		poolDim = pool
	}
	sameGrid := lv.oaIdx != nil && lv.poolDim == poolDim
	lv.sc, lv.share, lv.pool, lv.poolDim, lv.qmax = sc, share, pool, poolDim, queueCap(sc, share, poolDim)
	_, _, dim := lv.summaryStrides()
	lv.iter.reset(share+poolDim+1, dim)
	if sameGrid {
		return
	}
	if cap(lv.oaIdx) < poolDim+1 {
		lv.oaIdx = make([][]int, poolDim+1)
	}
	lv.oaIdx = lv.oaIdx[:poolDim+1]
	lv.oaList = lv.oaList[:0]
	for o := 0; o <= poolDim; o++ {
		row := growInts(lv.oaIdx[o], poolDim+1)
		lv.oaIdx[o] = row
		for a := 0; a <= poolDim; a++ {
			row[a] = -1
			if o+a <= poolDim {
				row[a] = len(lv.oaList)
				lv.oaList = append(lv.oaList, [2]int{o, a})
			}
		}
	}
	lv.nOA = len(lv.oaList)
}

// pNoForward is the SLA admission probability for an arrival at this SC
// when it commands V = N - s + o servers and has q + o requests in its
// system (the excess q - (N - s) is exactly the q' of the paper's
// performance-parameter formulas). Many states share a (q, s, o), so each
// value is computed once per build into the pnf table.
func (lv *level) pNoForward(q, s, o int) float64 {
	i := (q*(lv.share+1)+s)*(lv.poolDim+1) + o
	if p := lv.pnf[i]; !math.IsNaN(p) {
		return p
	}
	v := lv.sc.VMs - s + o
	p := queueing.PNoForward(q+o, v, lv.sc.ServiceRate, lv.sc.SLA)
	lv.pnf[i] = p
	return p
}

// build assembles the generator of the slot's level from the predecessor
// interactions and solves for the steady state, entirely in the slot's
// arenas: the builder is Reset, the chain Rebuilt in place, and the solve
// runs through the slot's workspace into the level's steady buffer. For the
// first level (no predecessors) demand > 0 adds an explicit
// successor-demand process: idle shareable VMs are acquired at rate demand
// and released at the service rate — the feedback refinement described in
// the package documentation.
func (sl *levelSlot) build(demand float64, opts markov.SteadyStateOptions) error {
	lv, inter := &sl.lv, &sl.inter
	n := lv.numStates()
	bl := sl.bl
	bl.Reset(n)
	lv.forward = growFloats(lv.forward, n)
	for i := range lv.forward {
		lv.forward[i] = 0
	}
	lv.pnf = growFloats(lv.pnf, (lv.qmax+1)*(lv.share+1)*(lv.poolDim+1))
	for i := range lv.pnf {
		lv.pnf[i] = math.NaN()
	}
	lv.demandDriven = inter.prev == nil && demand > 0
	lambda, mu := lv.sc.ArrivalRate, lv.sc.ServiceRate
	// Every event rate of the level — arrivals, l local and o remote
	// departures — gets its tau-bucket slot up front (see alloc).
	arrSlot := inter.tauSlot(lambda)
	sl.locSlot = growInts(sl.locSlot, lv.sc.VMs+1)
	for l := 1; l <= lv.sc.VMs; l++ {
		sl.locSlot[l] = inter.tauSlot(float64(l) * mu)
	}
	sl.remSlot = growInts(sl.remSlot, lv.poolDim+1)
	for o := 1; o <= lv.poolDim; o++ {
		sl.remSlot[o] = inter.tauSlot(float64(o) * mu)
	}
	inter.startMemo(lv.share, lv.poolDim)
	// Per-state contributions merge in a dense per-destination accumulator
	// (many interaction atoms land on the same destination); touched lists
	// the row's destinations so the row is emitted in ascending column
	// order and cleared in O(touched).
	sl.acc = growFloats(sl.acc, n)
	acc := sl.acc
	clear(acc)
	if cap(sl.hit) < n {
		sl.hit = make([]bool, n)
	}
	hit := sl.hit[:n]
	clear(hit)
	touched := sl.touched[:0]
	add := func(dst int, rate float64) {
		if !hit[dst] {
			hit[dst] = true
			touched = append(touched, dst)
		}
		acc[dst] += rate
	}
	for idx := 0; idx < n; idx++ {
		q, s, o, a := lv.decode(idx)
		// Predecessor allocations can never exceed the VMs this SC's own
		// in-service requests leave free.
		capAloc := lv.share
		if free := lv.sc.VMs - min(q, lv.sc.VMs-s); free < capAloc {
			capAloc = free
		}

		// Successor-demand process (first level under feedback only).
		if inter.prev == nil && demand > 0 {
			if s < lv.share && q+s < lv.sc.VMs {
				add(lv.index(q, s+1, lv.oaIdx[o][a]), demand)
			}
			if s > 0 {
				add(lv.index(q, s-1, lv.oaIdx[o][a]), float64(s)*mu)
			}
		}

		// Arrival event (C1-C3).
		arr := inter.alloc(s, a, arrSlot, capAloc, lv.poolDim-o)
		for _, e := range arr {
			switch {
			case q+e.aloc < lv.sc.VMs: // C1: local idle VM
				add(lv.index(q+1, e.aloc, lv.oaIdx[o][e.arem]), lambda*e.p)
			case o+e.arem < min(lv.pool-e.dead, lv.poolDim): // C2: borrow a shared VM
				add(lv.index(q, e.aloc, lv.oaIdx[o+1][e.arem]), lambda*e.p)
			default: // C3: queue with P^NF, else forward
				pq := lv.pNoForward(q, e.aloc, o)
				if q >= lv.qmax {
					pq = 0 // truncated: treat as certain forwarding
				}
				if pq > 0 {
					add(lv.index(q+1, e.aloc, lv.oaIdx[o][e.arem]), lambda*e.p*pq)
				}
				lv.forward[idx] += e.p * (1 - pq)
			}
		}

		// Local departure event (C4).
		if l := min(q, lv.sc.VMs-s); l > 0 {
			rate := float64(l) * mu
			dep := inter.alloc(s, a, sl.locSlot[l], capAloc, lv.poolDim-o)
			for _, e := range dep {
				switch {
				case q-1+e.aloc >= lv.sc.VMs: // own queue absorbs the VM
					add(lv.index(q-1, e.aloc, lv.oaIdx[o][e.arem]), rate*e.p)
				case e.cong && e.aloc < capAloc: // lend to waiting predecessors
					add(lv.index(q-1, e.aloc+1, lv.oaIdx[o][e.arem]), rate*e.p)
				default:
					add(lv.index(q-1, e.aloc, lv.oaIdx[o][e.arem]), rate*e.p)
				}
			}
		}

		// Remote departure event (C5).
		if o > 0 {
			rate := float64(o) * mu
			dep := inter.alloc(s, a, sl.remSlot[o], capAloc, lv.poolDim-(o-1))
			for _, e := range dep {
				switch {
				case e.cong && o-1+e.arem+1 <= lv.poolDim: // predecessors take it
					add(lv.index(q, e.aloc, lv.oaIdx[o-1][e.arem+1]), rate*e.p)
				case q+e.aloc > lv.sc.VMs: // own queue keeps the VM busy
					add(lv.index(q-1, e.aloc, lv.oaIdx[o][e.arem]), rate*e.p)
				default: // returned to its owner
					add(lv.index(q, e.aloc, lv.oaIdx[o-1][e.arem]), rate*e.p)
				}
			}
		}

		slices.Sort(touched)
		for _, dst := range touched {
			bl.Add(idx, dst, acc[dst])
			acc[dst], hit[dst] = 0, false
		}
		touched = touched[:0]
	}
	sl.touched = touched
	chain, err := bl.Rebuild(lv.chain)
	if err != nil {
		return fmt.Errorf("approx: level for %s: %w", lv.sc.Name, err)
	}
	lv.chain = chain
	lv.uniform, lv.gamma = chain.UniformizedUnit()
	pi, err := chain.SteadyStateGaussSeidel(opts)
	if err != nil {
		// Power iteration is slower but more robust; fall back.
		pi, err = chain.SteadyState(opts)
		if err != nil {
			return fmt.Errorf("approx: level for %s: %w", lv.sc.Name, err)
		}
	}
	lv.steady = pi
	lv.summarize()
	return nil
}

// summarize precomputes the per-state quantities consumed by the next
// level's interaction computation, reusing the level's summary buffers.
func (lv *level) summarize() {
	n := lv.numStates()
	strideD, strideL, _ := lv.summaryStrides()
	lv.cell = growInts(lv.cell, n)
	ng := lv.share + lv.poolDim + 1
	if cap(lv.groups) < ng {
		g2 := make([][]int, ng)
		copy(g2, lv.groups[:cap(lv.groups)])
		lv.groups = g2
	}
	lv.groups = lv.groups[:ng]
	for g := range lv.groups {
		lv.groups[g] = lv.groups[g][:0]
	}
	for idx := 0; idx < n; idx++ {
		q, s, o, a := lv.decode(idx)
		lent := s
		if lv.demandDriven {
			// s serves successors, not predecessors: it is invisible to
			// the next level's a_rem but still occupies real VMs (dead).
			lent = 0
		}
		cong := 0
		if q > lv.sc.VMs-s {
			cong = 1
		}
		// Share headroom this SC advertises but cannot back with an idle
		// VM right now; the next level subtracts it from the borrowable
		// pool (lender-availability refinement, see package doc).
		dead := max(0, lv.share-s-max(0, lv.sc.VMs-q-s))
		lv.cell[idx] = (o+a)*strideL + lent*strideD + dead*2 + cong
		g := lent + o + a
		lv.groups[g] = append(lv.groups[g], idx)
	}
	lv.groupMass = growFloats(lv.groupMass, ng)
	for g, members := range lv.groups {
		mass := 0.0
		for _, idx := range members {
			mass += lv.steady[idx]
		}
		lv.groupMass[g] = mass
	}
}

// metrics evaluates the paper's performance parameters on this level's
// steady state.
func (lv *level) metrics() cloud.Metrics {
	var lend, borrow, busy, fwd float64
	for idx, p := range lv.steady {
		if p == 0 {
			continue
		}
		q, s, o, _ := lv.decode(idx)
		lend += p * float64(s)
		borrow += p * float64(o)
		busy += p * float64(min(q, lv.sc.VMs-s)+s)
		fwd += p * lv.forward[idx]
	}
	return cloud.Metrics{
		PublicRate:  lv.sc.ArrivalRate * fwd,
		BorrowRate:  borrow,
		LendRate:    lend,
		Utilization: busy / float64(lv.sc.VMs),
		ForwardProb: fwd,
	}
}

// summaryStrides returns the flat layout of the summary space (foreign,
// lent, dead, cong) the next level's interaction vectors read this level
// through: cell (f, l, d, c) sits at f*strideL + l*strideD + d*2 + c, and
// dim is the number of cells.
func (lv *level) summaryStrides() (strideD, strideL, dim int) {
	strideD = 2 * (lv.share + 1)
	strideL = strideD * (lv.share + 1)
	return strideD, strideL, strideL * (lv.poolDim + 1)
}

// collapse accumulates a distribution over this level's states into the
// summary joint dst, which the caller has zeroed.
func (lv *level) collapse(dst, p []float64) {
	for idx, w := range p {
		if w != 0 {
			dst[lv.cell[idx]] += w
		}
	}
}

// resolveGroup maps a conditioning aggregate to the group whose restriction
// actually starts the transient: g clamped to the group range, then the
// nearest group with non-negligible steady mass, lower side first. It
// returns -1, the unrestricted steady start, when every group is empty.
func (lv *level) resolveGroup(g int) int {
	ng := len(lv.groups)
	g = max(0, min(g, ng-1))
	usable := func(gg int) bool { return gg >= 0 && gg < ng && lv.groupMass[gg] > groupMassEps }
	if usable(g) {
		return g
	}
	for d := 1; d < ng; d++ {
		if usable(g - d) {
			return g - d
		}
		if usable(g + d) {
			return g + d
		}
	}
	return -1
}

// iterateCache holds a solved level's stepped transients: for each
// resolved conditioning group r (slot r+1; slot 0 is the steady start
// r = -1), the summary joints of the uniformization iterates
// v_k = pi^X P^k up to the first that has relaxed to the steady state. The
// joints are collapsed but neither shifted nor truncated, so every reader —
// the next chain level, or any SolveAll readout whatever its
// self-exclusion shift — copies them and applies its own shift and
// truncation. The cache belongs to the level: reset empties it while the
// slab keeps its storage across builds.
type iterateCache struct {
	spans []iterSpan // per group, slot r+1 for group r
	// slab stores the joints, dim floats each: the i-th stepped group owns
	// the maxIterates+1 joints from position i*(maxIterates+1) on.
	slab []float64
	dim  int
	// stepped reports that stepAll has filled the cache; todo lists the
	// groups it stepped, in ascending order.
	stepped bool
	todo    []int
	// work is the solver's stepping scratch, one entry per worker, shared
	// by all its levels: one level is stepped at a time.
	work *[]stepWork
}

// iterSpan locates one group's stored iterates: first is the slab position
// of iterate 0 and count how many are stored, later ones having relaxed.
type iterSpan struct{ first, count int }

// stepWork is one stepping worker's scratch: the lane-interleaved iterates
// of a block before and after a step, and the joint that relaxed and
// padding lanes collapse into.
type stepWork struct {
	v, next, sink []float64
}

// reset empties the cache for a level with ng conditioning groups and
// dim-cell summary joints.
func (c *iterateCache) reset(ng, dim int) {
	if cap(c.spans) < ng+1 {
		c.spans = make([]iterSpan, ng+1)
	}
	c.spans = c.spans[:ng+1]
	clear(c.spans)
	c.dim = dim
	c.stepped = false
}

// joint returns the stored joint at slab position i.
func (c *iterateCache) joint(i int) []float64 {
	return c.slab[i*c.dim : (i+1)*c.dim]
}

// iterates returns the slab position and count of resolved group r's
// stored iterates, stepping the whole level on first request (stepAll).
// Iterates from index count on have relaxed: their L1 distance to the
// steady state fell below steadyRelaxTol (further stepping would only
// accumulate rounding), and readers substitute the steady joint.
func (lv *level) iterates(r int) (first, count int) {
	lv.stepAll()
	sp := lv.iter.spans[r+1]
	return sp.first, sp.count
}

// stepAll steps the transient of every usable conditioning group — every
// group resolveGroup can return, or the unrestricted steady start when
// none is usable — from its restriction through the level's uniformized
// chain, and keeps the collapsed iterates. The groups go sparse.Lanes to a
// block through the 4-lane step, and the caller and up to GOMAXPROCS-1
// helpers claim the blocks (claim.Run), each in its own scratch. Every
// lane's iterates, relaxation checks and joints are the floats a lone
// group's stepping produces, so the cache is the same whatever the worker
// count. Later calls return at once, so a level read by concurrent
// readouts must be stepped before they start.
func (lv *level) stepAll() {
	c := &lv.iter
	if c.stepped {
		return
	}
	c.stepped = true
	todo := c.todo[:0]
	for g, m := range lv.groupMass {
		if m > groupMassEps {
			todo = append(todo, g)
		}
	}
	if len(todo) == 0 {
		todo = append(todo, -1)
	}
	c.todo = todo
	c.slab = growFloats(c.slab, len(todo)*(maxIterates+1)*c.dim)
	blocks := (len(todo) + sparse.Lanes - 1) / sparse.Lanes
	workers := claim.Workers(blocks, 0)
	if len(*c.work) < workers {
		*c.work = append(*c.work, make([]stepWork, workers-len(*c.work))...)
	}
	work := *c.work
	claim.Run(blocks, workers, func(w, b int) {
		lv.stepBlock(&work[w], b*sparse.Lanes)
	})
}

// stepBlock steps the groups todo[lo:lo+sparse.Lanes] (fewer at the end of
// the list; the missing lanes stay zero) as the lanes of one interleaved
// block. Iterate 0 is each group's restriction; every later one is one
// Step4 of the whole block followed by one fused pass over the states
// that, per lane, sums the L1 distance to the steady state and collapses
// the iterate into the lane's next joint. A lane whose distance falls below
// steadyRelaxTol has relaxed: that joint is dropped, and the lane stops
// storing while the others step on.
func (lv *level) stepBlock(sw *stepWork, lo int) {
	const lanes = sparse.Lanes
	c := &lv.iter
	n := len(lv.steady)
	group := c.todo[lo:min(lo+lanes, len(c.todo))]
	sw.v = growFloats(sw.v, lanes*n)
	sw.next = growFloats(sw.next, lanes*n)
	sw.sink = growFloats(sw.sink, c.dim)
	v, next := sw.v, sw.next
	clear(v)
	per := (maxIterates + 1) * c.dim
	var region [lanes][]float64 // each lane's joints; padding lanes have none
	var count [lanes]int
	live := len(group)
	for l, r := range group {
		region[l] = c.slab[(lo+l)*per : (lo+l+1)*per]
		if r < 0 {
			for i, p := range lv.steady {
				v[i*lanes+l] = p
			}
			continue
		}
		mass := lv.groupMass[r]
		for _, idx := range lv.groups[r] {
			v[idx*lanes+l] = lv.steady[idx] / mass
		}
	}
	for k := 0; k <= maxIterates && live > 0; k++ {
		if k > 0 {
			if err := lv.uniform.Step4(next, v); err != nil {
				break // cannot happen for matching dimensions; degrade to steady
			}
			v, next = next, v
		}
		// Lanes that store iterate k collapse into their k-th joint, the
		// others into the sink.
		var dst [lanes][]float64
		for l := range dst {
			dst[l] = sw.sink
			if region[l] != nil && count[l] == k {
				dst[l] = region[l][k*c.dim : (k+1)*c.dim]
				clear(dst[l])
			}
		}
		d := lv.collapse4(&dst, v)
		for l := range group {
			if count[l] != k {
				continue
			}
			if k > 0 && d[l] < steadyRelaxTol {
				live--
				continue
			}
			count[l] = k + 1
		}
	}
	for l, r := range group {
		c.spans[r+1] = iterSpan{first: (lo + l) * (maxIterates + 1), count: count[l]}
	}
}

// collapse4 is one fused pass over a lane-interleaved block of iterates v:
// lane l is collapsed into dst[l] (collapse, adding its zeros too, which
// changes no sum) and its L1 distance to the steady state is summed in
// state order, as numeric.L1Diff sums it.
func (lv *level) collapse4(dst *[sparse.Lanes][]float64, v []float64) (d [sparse.Lanes]float64) {
	const lanes = sparse.Lanes
	j0, j1, j2, j3 := dst[0], dst[1], dst[2], dst[3]
	cell := lv.cell[:len(lv.steady)]
	var d0, d1, d2, d3 float64
	for i, p := range lv.steady {
		x := v[i*lanes : i*lanes+lanes : i*lanes+lanes]
		d0 += math.Abs(x[0] - p)
		d1 += math.Abs(x[1] - p)
		d2 += math.Abs(x[2] - p)
		d3 += math.Abs(x[3] - p)
		c := cell[i]
		j0[c] += x[0]
		j1[c] += x[1]
		j2[c] += x[2]
		j3[c] += x[3]
	}
	return [lanes]float64{d0, d1, d2, d3}
}
