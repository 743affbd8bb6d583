package approx

import (
	"math"

	"scshare/internal/numeric"
)

// allocEntry is one atom of an interaction probability vector: with
// probability p the predecessors hold aloc of the current SC's shared VMs
// and arem other shared VMs; cong reports whether they have waiting
// requests (deciding the lend-or-keep branches of C4/C5) and dead is the
// share headroom the previous SC advertises but cannot back with idle VMs
// (subtracted from the borrowable pool in C2).
type allocEntry struct {
	aloc, arem int
	dead       int
	cong       bool
	p          float64
}

// tauBucketWidth is the log-spacing used to quantize inter-event durations
// so interaction vectors can be cached across states.
const tauBucketWidth = 0.4

// relaxationCutoff is the number of expected uniformized jumps beyond which
// the conditional distribution is treated as fully relaxed to the steady
// state.
const relaxationCutoff = 10.0

// maxIterates is the last uniformization iterate a transient mixture reads:
// the far right tail of a Poisson with mean relaxationCutoff. Later jumps
// mix in the steady joint.
var maxIterates = int(relaxationCutoff+6*math.Sqrt(relaxationCutoff)) + 4

// DefaultPrune is the Config.Prune used when it is zero or negative: atoms
// below it are dropped from interaction vectors and the remainder is
// renormalized, so total event rates are preserved.
const DefaultPrune = 1e-6

// transientEps is the Poisson mass the Fox-Glynn weights of a transient
// mixture may leave out.
const transientEps = 1e-9

// steadyRelaxTol declares a transient iterate fully relaxed once its L1
// distance to the steady state falls below it; further stepping only
// accumulates rounding error.
const steadyRelaxTol = 1e-8

// jointMassEps skips joint-distribution atoms whose weight is numerically
// zero when re-binning conditional vectors.
const jointMassEps = 1e-15

// groupMassEps is the group probability mass below which conditioning on
// the group is numerically meaningless and the atom is dropped.
const groupMassEps = 1e-14

type cacheKey struct {
	group  int
	bucket int
}

// foxGlynnMemo is one build's Poisson weights for one duration bucket.
type foxGlynnMemo struct {
	bucket int
	fg     numeric.FoxGlynn
}

// interactions produces the P^A / P^D_loc / P^D_rem vectors of one level
// from the solved previous level. A nil prev represents M^1, which has no
// predecessors: the vectors collapse to the point mass (0, 0, idle).
//
// The transient analysis is organized around a key linearity: the
// uniformization iterates v_k = pi^X P^k do not depend on the event
// duration tau — only the Poisson weights do. Each conditioning group
// therefore has its iterates stepped once, collapsed to the small summary
// space (F, lent, dead, cong), and serves any tau bucket as a
// Poisson-weighted mixture of those summaries. The stepping itself belongs
// to the previous level (level.stepAll), which keeps the collapsed
// iterates in its own cache: every consumer of that level — SolveAll's
// readouts above all — reuses them and only applies its own shift and
// truncation here.
//
// An interactions value lives inside a levelSlot arena and is recycled via
// reset: the caches are cleared but their storage (summary-joint pool,
// entry slab, merge scratch) survives, so steady-state builds after the
// first one run nearly allocation-free.
type interactions struct {
	prev     *level
	curShare int // S of the SC whose level is being built (marked pool)
	// peerShares are the shares of the other pool members (everyone except
	// the previous level's SC and the current SC). The foreign usage F is
	// split with lender weights min(S_j, F): a declared share only grabs
	// demand up to the concurrent demand itself, so over-declaring shares
	// buys no extra lending — without this saturation the market game
	// degenerates into a share-declaration arms race.
	peerShares []int
	// preserveS keeps the current s across events for a predecessor-less
	// level whose s is driven by the explicit successor-demand process;
	// without that process s must collapse to 0 or the chain decomposes
	// into disconnected closed classes.
	preserveS bool
	prune     float64
	// truncEps is the adaptive truncation budget each summarized joint may
	// shed (already resolved by the Solver: <= 0 disables truncation).
	truncEps float64
	// dropped lists the mass each truncated summary shed, in shedding
	// order, since reset; the Solver folds it into Config.PruneStats.
	dropped []float64
	// shiftF and shiftLent are the SolveAll readout self-exclusion shifts
	// (in VMs); see setSelfExclusion.
	shiftF, shiftLent float64

	gamma       float64
	steadyJoint []float64
	groupJoints map[int][][]float64 // g -> J_0..J_maxIterates (summary joints)
	cache       map[cacheKey][]allocEntry
	// foxGlynn holds the Poisson weights of every bucket mixed so far: gamma
	// is fixed for the build, so each bucket's weights are computed once
	// and serve every group.
	foxGlynn []foxGlynnMemo

	// The clamped-vector memo of the level under construction (see
	// startMemo): buckets lists the distinct tau-buckets of its event
	// rates, and memo holds the clamped vector of each (group, bucket
	// slot, capAloc, capArem), nil until first requested.
	buckets                       []int
	memo                          [][]allocEntry
	memoSlots, memoAloc, memoArem int // bucket-slot, capAloc and capArem extents

	// Summary-space strides (see level.summaryStrides).
	strideC, strideD, strideL, dim int

	// Arena scratch, reused across resets.
	jointPool    [][]float64  // summary-joint buffers handed out by nextJoint
	jointN       int          // jointPool[:jointN] are in use this build
	jsSlab       [][]float64  // backing storage for groupJoints' iterate lists
	mixBuf       []float64    // Fox-Glynn mixture accumulator
	accBuf       []float64    // disaggregation accumulator
	entrySlab    []allocEntry // backing storage for cached vectors
	entryScratch []allocEntry // buildVector assembly buffer
	entryBuf     []allocEntry // clamp assembly buffer and preserveS result
	lineBuf      []float64    // shiftAxisDown line scratch
	scratch      []float64    // dense merge buffer reused by clamp
	scratchDim   int
}

// reset re-aims the interactions at a new previous level, clearing the
// caches and the truncation log while keeping their storage. truncEps must
// already be resolved (<= 0 disables truncation).
func (in *interactions) reset(prev *level, curShare int, peerShares []int, prune, truncEps float64) {
	if prune <= 0 {
		prune = DefaultPrune
	}
	in.prev = prev
	in.curShare = curShare
	in.peerShares = peerShares
	in.prune = prune
	in.truncEps = truncEps
	in.dropped = in.dropped[:0]
	in.preserveS = false
	in.shiftF, in.shiftLent = 0, 0
	in.jointN = 0
	in.jsSlab = in.jsSlab[:0]
	in.entrySlab = in.entrySlab[:0]
	in.foxGlynn = in.foxGlynn[:0]
	in.buckets = in.buckets[:0]
	if in.groupJoints == nil {
		in.groupJoints = make(map[int][][]float64)
		in.cache = make(map[cacheKey][]allocEntry)
	} else {
		clear(in.groupJoints)
		clear(in.cache)
	}
	in.gamma = 0
	in.steadyJoint = nil
	in.strideC, in.strideD, in.strideL, in.dim = 0, 0, 0, 0
	if prev != nil {
		in.gamma = prev.gamma
		in.strideC = 2
		in.strideD, in.strideL, in.dim = prev.summaryStrides()
		in.steadyJoint = in.summarize(prev.steady)
	}
}

// nextJoint hands out a summary-joint buffer of the current dimension from
// the pool, growing it on first use; its contents are unspecified. Buffers
// stay checked out until the next reset (they back groupJoints and
// steadyJoint).
func (in *interactions) nextJoint() []float64 {
	var j []float64
	if in.jointN < len(in.jointPool) {
		j = growFloats(in.jointPool[in.jointN], in.dim)
		in.jointPool[in.jointN] = j
	} else {
		j = make([]float64, in.dim)
		in.jointPool = append(in.jointPool, j)
	}
	in.jointN++
	return j
}

// nextJS hands out a maxIterates+1-long iterate list backed by the slab.
// Earlier lists keep pointing at whatever backing array they were carved
// from, so slab growth never invalidates them.
func (in *interactions) nextJS() [][]float64 {
	start := len(in.jsSlab)
	want := start + maxIterates + 1
	for len(in.jsSlab) < want {
		in.jsSlab = append(in.jsSlab, nil)
	}
	return in.jsSlab[start:want:want]
}

// persist copies a finished interaction vector into the entry slab so it
// can live in the cache while the assembly buffers are recycled.
func (in *interactions) persist(src []allocEntry) []allocEntry {
	start := len(in.entrySlab)
	in.entrySlab = append(in.entrySlab, src...)
	return in.entrySlab[start : start+len(src) : start+len(src)]
}

var pointMass = []allocEntry{{p: 1}}

// tauSlot registers the tau-bucket of an event occurring at the given total
// rate — its mean inter-event duration 1/rate, log-quantized — with the
// clamped-vector memo and returns its slot. The level build registers
// every event rate of the level before startMemo and then hands the slots
// to alloc, so no state recomputes a bucket.
func (in *interactions) tauSlot(rate float64) int {
	b := int(math.Round(math.Log(1/rate) / tauBucketWidth))
	for slot, x := range in.buckets {
		if x == b {
			return slot
		}
	}
	in.buckets = append(in.buckets, b)
	return len(in.buckets) - 1
}

// startMemo sizes the clamped-vector memo for a level whose conditioning
// groups, capAloc and capArem range over [0, share+poolDim], [0, share] and
// [0, poolDim], once every event rate has its tauSlot. A predecessor-less
// level never consults the memo.
func (in *interactions) startMemo(share, poolDim int) {
	if in.prev == nil {
		return
	}
	in.memoSlots, in.memoAloc, in.memoArem = len(in.buckets), share+1, poolDim+1
	n := (share + poolDim + 1) * in.memoSlots * in.memoAloc * in.memoArem
	if cap(in.memo) < n {
		in.memo = make([][]allocEntry, n)
	}
	in.memo = in.memo[:n]
	clear(in.memo)
}

// alloc returns the interaction vector for a state of the level under
// construction: the current allocations s and a, the tauSlot of the event's
// rate, and the state's legality clamps (aloc <= capAloc, arem <= capArem).
// The conditioning group is s+a — the previous level's usage as visible
// from a chain level — plus, on readout levels, the share of the current o
// that the previous SC's own lent count carries (see setSelfExclusion).
// Without predecessors the current allocations are preserved: they belong
// to the successor-demand process, which has its own explicit transitions.
//
// Clamped vectors are memoized per (group, bucket, capAloc, capArem) and
// persisted in the entry slab, where they stay valid until reset. Only the
// predecessor-less preserveS vector lives in the result buffer, valid until
// the next alloc call.
func (in *interactions) alloc(s, a, slot, capAloc, capArem int) []allocEntry {
	if in.prev == nil {
		if in.preserveS {
			in.entryBuf = append(in.entryBuf[:0], allocEntry{aloc: min(s, capAloc), p: 1})
			return in.entryBuf
		}
		return pointMass
	}
	capAloc, capArem = max(capAloc, 0), max(capArem, 0)
	g := s + a
	i := ((g*in.memoSlots+slot)*in.memoAloc+capAloc)*in.memoArem + capArem
	if v := in.memo[i]; v != nil {
		return v
	}
	v := in.persist(in.clamp(in.lookup(g, in.buckets[slot]), capAloc, capArem))
	in.memo[i] = v
	return v
}

// summarize collapses a full distribution over the previous level's states
// to a summary joint and finishes it (see finish).
func (in *interactions) summarize(p []float64) []float64 {
	out := in.nextJoint()
	clear(out)
	in.prev.collapse(out, p)
	in.finish(out)
	return out
}

// finish applies the self-exclusion shifts, when installed, to a collapsed
// summary joint and then the adaptive truncation: cells below the per-cell
// slice of the truncEps budget are zeroed and the survivors rescaled, so
// the summary keeps its total mass (event rates are preserved) while the
// downstream mixing and disaggregation loops skip the dropped support. The
// discarded mass is appended to the truncation log.
func (in *interactions) finish(out []float64) {
	if in.shiftLent > 0 {
		in.shiftAxisDown(out, in.strideD, in.strideL/in.strideD, in.shiftLent)
	}
	if in.shiftF > 0 {
		in.shiftAxisDown(out, in.strideL, len(out)/in.strideL, in.shiftF)
	}
	if in.truncEps > 0 {
		cell := in.truncEps / float64(len(out))
		var dropped, kept float64
		for i, w := range out {
			if w == 0 {
				continue
			}
			if w < cell {
				dropped += w
				out[i] = 0
			} else {
				kept += w
			}
		}
		if dropped > 0 {
			if kept > 0 {
				scale := (kept + dropped) / kept
				for i, w := range out {
					if w != 0 {
						out[i] = w * scale
					}
				}
			}
			in.dropped = append(in.dropped, dropped)
		}
	}
}

// setSelfExclusion installs the SolveAll readout correction: the previous
// level's summary counts the readout SC's own expected borrowing (the
// readout SC was one of the spine's predecessors), so before the summary
// feeds this level's interaction vectors that usage is subtracted in
// expectation — shiftF VMs off the foreign-usage axis and shiftLent VMs off
// the previous SC's lent axis, each as a deterministic linear-interpolation
// translation. Must be called before the first alloc; it re-derives the
// cached steady joint so every subsequent summary (steady and transient
// iterates alike) carries the shift.
//
// The groups need the same correction from the other side: a readout
// level's conditioning aggregate s+a measures the previous level's usage
// *excluding* what it lent to the readout SC, while prev.groups are indexed
// by the unshifted lent+o+a. groupIterates therefore adds the expected
// self-lending (shiftLent, floored) back before resolving the group, so the
// group aggregates line up with the unshifted states the groups index; the
// summaries of the selected states then carry the shift.
func (in *interactions) setSelfExclusion(shiftF, shiftLent float64) {
	if in.prev == nil {
		return
	}
	in.shiftF = shiftF
	in.shiftLent = shiftLent
	in.steadyJoint = in.summarize(in.prev.steady)
}

// shiftAxisDown translates probability mass down one axis of a summary
// joint by a possibly fractional number of units: each cell's mass moves to
// coordinate max(c-n, 0) with weight 1-frac and max(c-n-1, 0) with weight
// frac, where shift = n + frac. Mass that would land below zero piles up at
// zero, so the total is preserved. The axis is addressed by its stride and
// extent within the flat layout.
func (in *interactions) shiftAxisDown(joint []float64, stride, extent int, shift float64) {
	if shift <= 0 || extent <= 1 {
		return
	}
	n := int(shift)
	frac := shift - float64(n)
	outer := len(joint) / (stride * extent)
	in.lineBuf = growFloats(in.lineBuf, extent)
	line := in.lineBuf[:extent]
	for o := 0; o < outer; o++ {
		for r := 0; r < stride; r++ {
			base := o*stride*extent + r
			for c := 0; c < extent; c++ {
				line[c] = joint[base+c*stride]
				joint[base+c*stride] = 0
			}
			for c, w := range line {
				if w == 0 {
					continue
				}
				joint[base+max(c-n, 0)*stride] += w * (1 - frac)
				if frac > 0 {
					joint[base+max(c-n-1, 0)*stride] += w * frac
				}
			}
		}
	}
}

// groupIterates returns (building if needed) the summary joints of the
// uniformization iterates for conditioning group g: the transient starts
// from the previous level's steady state restricted to g's resolved group
// (see level.resolveGroup and restrictInto). On SolveAll readout levels the
// expected self-lending shiftLent is added back first — floored, because
// conditioning feeds the lend dynamics back into the aggregate and rounding
// the bias up overdrives that loop — since the caller's aggregate excludes
// the readout SC's own borrowing while the groups do not.
//
// The previous level steps every resolved group once and caches the
// collapsed iterates; this level copies them and finishes each copy with
// its own shift and truncation, in iterate order. Once an iterate has
// relaxed to the steady state the remaining slots alias the steady joint.
func (in *interactions) groupIterates(g int) [][]float64 {
	if js, ok := in.groupJoints[g]; ok {
		return js
	}
	prev := in.prev
	first, count := prev.iterates(prev.resolveGroup(g + int(in.shiftLent)))
	js := in.nextJS()
	for k := range js {
		if k >= count {
			js[k] = in.steadyJoint
			continue
		}
		out := in.nextJoint()
		copy(out, prev.iter.joint(first+k))
		in.finish(out)
		js[k] = out
	}
	in.groupJoints[g] = js
	return js
}

// lookup returns (building if needed) the unclamped interaction vector for
// the conditioning group and duration bucket.
func (in *interactions) lookup(g, bucket int) []allocEntry {
	key := cacheKey{group: g, bucket: bucket}
	if v, ok := in.cache[key]; ok {
		return v
	}
	v := in.buildVector(g, bucket)
	in.cache[key] = v
	return v
}

// foxGlynnFor returns the Poisson(jumps) weights of a duration bucket,
// computing them on the bucket's first use in this build.
func (in *interactions) foxGlynnFor(bucket int, jumps float64) numeric.FoxGlynn {
	for _, m := range in.foxGlynn {
		if m.bucket == bucket {
			return m.fg
		}
	}
	fg := numeric.NewFoxGlynn(jumps, transientEps)
	in.foxGlynn = append(in.foxGlynn, foxGlynnMemo{bucket: bucket, fg: fg})
	return fg
}

// buildVector mixes the cached iterate summaries with Poisson(gamma*tau)
// weights, tau being the bucket's representative duration, and
// disaggregates the result into interaction atoms. The returned vector is
// persisted in the entry slab (or is the shared point mass), so it stays
// valid for the cache while the assembly buffers are reused.
func (in *interactions) buildVector(g, bucket int) []allocEntry {
	prev := in.prev
	tau := math.Exp(float64(bucket) * tauBucketWidth)
	jumps := in.gamma * tau
	var joint []float64
	switch {
	case jumps > relaxationCutoff:
		joint = in.steadyJoint
	case jumps < 0.05:
		joint = in.groupIterates(g)[0]
	default:
		js := in.groupIterates(g)
		fg := in.foxGlynnFor(bucket, jumps)
		in.mixBuf = growFloats(in.mixBuf, in.dim)
		mixed := in.mixBuf[:in.dim]
		for i := range mixed {
			mixed[i] = 0
		}
		for k := fg.Left; k <= fg.Right; k++ {
			w := fg.Weights[k-fg.Left]
			src := in.steadyJoint
			if k <= maxIterates {
				src = js[k]
			}
			for i, x := range src {
				mixed[i] += w * x
			}
		}
		joint = mixed
	}

	// Disaggregate: the foreign usage F splits hypergeometrically between
	// the current SC's pool slice and the rest of the previous level's
	// pool, with every lender's weight saturated at F itself (a share can
	// only capture as much lending as there is concurrent demand); the
	// previous SC's own lent VMs land in arem.
	maxArem := prev.poolDim + prev.share
	maxDead := prev.share
	strideC := 2
	strideD := strideC * (maxDead + 1)
	strideA := strideD * (maxArem + 1)
	in.accBuf = growFloats(in.accBuf, strideA*(in.curShare+1))
	acc := in.accBuf[:strideA*(in.curShare+1)]
	for i := range acc {
		acc[i] = 0
	}
	for i, w := range joint {
		if w < jointMassEps {
			continue
		}
		f := i / in.strideL
		lent := (i % in.strideL) / in.strideD
		dead := (i % in.strideD) / in.strideC
		c := i % 2
		marked := min(in.curShare, f)
		total := marked
		for _, s := range in.peerShares {
			total += min(s, f)
		}
		hi := min(marked, f)
		for k := 0; k <= hi; k++ {
			ph := numeric.HypergeomPMF(k, marked, total, f)
			if ph == 0 {
				continue
			}
			arem := f - k + lent
			acc[k*strideA+arem*strideD+dead*strideC+c] += w * ph
		}
	}
	out := in.entryScratch[:0]
	total := 0.0
	for i, w := range acc {
		if w <= in.prune {
			continue
		}
		out = append(out, allocEntry{
			aloc: i / strideA,
			arem: (i % strideA) / strideD,
			dead: (i % strideD) / strideC,
			cong: i%2 == 1,
			p:    w,
		})
		total += w
	}
	in.entryScratch = out
	if len(out) == 0 || total == 0 {
		return pointMass
	}
	for i := range out {
		out[i].p /= total
	}
	return in.persist(out)
}

// clamp projects an unclamped vector onto the legal region capAloc, capArem
// >= 0, merging atoms that collide after clamping. The result lives in the
// interactions' assembly buffer until alloc persists it.
func (in *interactions) clamp(base []allocEntry, capAloc, capArem int) []allocEntry {
	maxDead := in.prev.share
	strideC := 2
	strideD := strideC * (maxDead + 1)
	strideA := strideD * (capArem + 1)
	dim := strideA * (capAloc + 1)
	if in.scratchDim < dim {
		in.scratch = make([]float64, dim)
		in.scratchDim = dim
	}
	buf := in.scratch[:dim]
	for i := range buf {
		buf[i] = 0
	}
	for _, e := range base {
		aloc := min(e.aloc, capAloc)
		arem := min(e.arem, capArem)
		c := 0
		if e.cong {
			c = 1
		}
		buf[aloc*strideA+arem*strideD+e.dead*strideC+c] += e.p
	}
	out := in.entryBuf[:0]
	for i, w := range buf {
		if w == 0 {
			continue
		}
		out = append(out, allocEntry{
			aloc: i / strideA,
			arem: (i % strideA) / strideD,
			dead: (i % strideD) / strideC,
			cong: i%2 == 1,
			p:    w,
		})
	}
	in.entryBuf = out
	return out
}
