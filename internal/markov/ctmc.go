// Package markov implements the continuous- and discrete-time Markov-chain
// machinery required by the SC-Share performance models: sparse generator
// assembly, steady-state solution (adaptively over-relaxed Gauss-Seidel on
// the balance equations, and power iteration on the uniformized chain for
// the exact model and as the robust fallback), and transient analysis via
// uniformization with Fox-Glynn truncation of the Poisson weights
// (Sect. III-C of the paper, refs. [23][24]).
package markov

import (
	"errors"
	"fmt"
	"math"

	"scshare/internal/numeric"
	"scshare/internal/sparse"
)

var (
	// ErrNoConvergence is returned when an iterative solver exhausts its
	// iteration budget before reaching the requested tolerance.
	ErrNoConvergence = errors.New("markov: solver did not converge")
	// ErrEmptyChain is returned for chains with no states.
	ErrEmptyChain = errors.New("markov: chain has no states")
)

// probVecTol bounds the acceptable drift of a solved distribution from unit
// mass (and from entrywise non-negativity) before it is handed to callers;
// every steady-state solver asserts its output against it.
const probVecTol = 1e-9

// Builder assembles a CTMC generator from individual transition rates.
type Builder struct {
	n   int
	b   *sparse.Builder
	err error
}

// NewBuilder returns a builder for a CTMC with n states.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, b: sparse.NewBuilder(n, n)}
}

// Reset discards all accumulated transitions and re-dimensions the builder
// to n states, retaining its entry storage. Together with Rebuild it lets a
// long-lived builder assemble successive chains without reallocating.
func (bl *Builder) Reset(n int) {
	bl.n = n
	bl.err = nil
	bl.b.Reset(n, n)
}

// Add accumulates a transition at the given rate. Self-loops and
// non-positive rates are ignored (a CTMC has no self-transitions, and a
// zero rate is the absence of a transition). A NaN or infinite rate is a
// model-assembly bug — `rate <= 0` is false for NaN, so without an explicit
// check it would silently poison the row sums; the builder records the
// first such rate and Build reports it.
func (bl *Builder) Add(from, to int, rate float64) {
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		if bl.err == nil {
			bl.err = fmt.Errorf("markov: non-finite rate %v for transition %d->%d", rate, from, to)
		}
		return
	}
	if rate <= 0 || from == to {
		return
	}
	bl.b.Add(from, to, rate)
}

// Build produces the CTMC. It fails for empty chains and when any Add was
// handed a non-finite rate; duplicate (from, to) rates have been summed.
func (bl *Builder) Build() (*CTMC, error) {
	return bl.Rebuild(nil)
}

// Rebuild assembles the accumulated transitions into c, reusing c's
// generator, exit-rate, and derived-cache storage (c may be nil, which is
// equivalent to Build). Any uniformized or transposed caches are
// invalidated but keep their allocations, so re-solving a rebuilt chain of
// similar size allocates nothing. Previously returned views of the chain
// (cached DTMCs, steady-state vectors written through Dst) are overwritten.
func (bl *Builder) Rebuild(c *CTMC) (*CTMC, error) {
	if bl.err != nil {
		return nil, bl.err
	}
	if bl.n == 0 {
		return nil, ErrEmptyChain
	}
	if c == nil {
		c = &CTMC{}
	}
	c.n = bl.n
	c.rates = bl.b.BuildInto(c.rates)
	c.exit = c.rates.RowSumsInto(c.exit)
	c.uniOK, c.qtOK, c.ssOK = false, false, false
	return c, nil
}

// CTMC is a continuous-time Markov chain represented by its off-diagonal
// transition-rate matrix.
type CTMC struct {
	n     int
	rates *sparse.CSR
	exit  []float64

	// uniCache caches the inflation-1 uniformized chain used by Transient
	// and the approximate model's interaction computation, which step it
	// thousands of times per chain. The struct (and its CSR storage) is
	// retained across Rebuild cycles; uniOK marks whether its contents
	// reflect the current generator.
	uniCache *DTMC
	uniGamma float64
	uniOK    bool

	// qtCache caches the transposed rate matrix consumed by the Gauss-Seidel
	// solver, which otherwise rebuilds it on every call — the dominant
	// allocation when a chain is re-solved with successive start vectors.
	qtCache *sparse.CSR
	qtOK    bool
	// ssCache caches the inflation-1.05 uniformized chain behind the power
	// iteration solver, for the same reason.
	ssCache *DTMC
	ssOK    bool
}

// NumStates returns the number of states.
func (c *CTMC) NumStates() int { return c.n }

// NumTransitions returns the number of distinct transitions.
func (c *CTMC) NumTransitions() int { return c.rates.NNZ() }

// Rate returns the transition rate from state a to state b (0 if absent or
// a == b). Intended for tests and diagnostics.
func (c *CTMC) Rate(a, b int) float64 {
	if a == b {
		return 0
	}
	return c.rates.At(a, b)
}

// ExitRate returns the total outgoing rate of a state.
func (c *CTMC) ExitRate(s int) float64 { return c.exit[s] }

// MaxExitRate returns the largest total outgoing rate across states.
func (c *CTMC) MaxExitRate() float64 {
	m := 0.0
	for _, e := range c.exit {
		if e > m {
			m = e
		}
	}
	return m
}

// Uniformized returns the DTMC P = I + Q/gamma together with the chosen
// uniformization rate gamma = inflation * max exit rate. Inflation must be
// >= 1; values slightly above 1 guarantee aperiodicity via self-loops. The
// returned chain is freshly allocated; the internally cached variants (see
// UniformizedUnit) reuse their storage instead.
func (c *CTMC) Uniformized(inflation float64) (*DTMC, float64) {
	d := &DTMC{}
	gamma := c.uniformizedInto(d, inflation)
	return d, gamma
}

// UniformizedUnit returns the cached inflation-1 uniformized chain and its
// rate — the pair Transient steps — building it on first use. The returned
// DTMC is owned by the chain and is rewritten in place by the next Rebuild;
// callers that outlive the chain must use Uniformized instead.
func (c *CTMC) UniformizedUnit() (*DTMC, float64) {
	if !c.uniOK {
		if c.uniCache == nil {
			c.uniCache = &DTMC{}
		}
		c.uniGamma = c.uniformizedInto(c.uniCache, 1.0)
		c.uniOK = true
	}
	return c.uniCache, c.uniGamma
}

// uniformizedInto assembles P = I + Q/gamma into d, reusing d's CSR
// storage. It needs no builder: the generator's rows are already
// column-sorted and hold no diagonal, so the self-loop slots in at its
// ordered position during a single merge pass.
func (c *CTMC) uniformizedInto(d *DTMC, inflation float64) float64 {
	if inflation < 1 {
		inflation = 1
	}
	gamma := c.MaxExitRate() * inflation
	if gamma == 0 {
		gamma = 1 // absorbing-everywhere chain: P = I
	}
	if d.p == nil {
		d.p = &sparse.CSR{}
	}
	p := d.p
	p.Rows, p.Cols = c.n, c.n
	if cap(p.RowPtr) < c.n+1 {
		p.RowPtr = make([]int, c.n+1)
	}
	p.RowPtr = p.RowPtr[:c.n+1]
	p.ColIdx = p.ColIdx[:0]
	p.Val = p.Val[:0]
	p.RowPtr[0] = 0
	for r := 0; r < c.n; r++ {
		stay := 1 - c.exit[r]/gamma
		placed := stay <= 0 // a zero self-loop is simply absent
		for i := c.rates.RowPtr[r]; i < c.rates.RowPtr[r+1]; i++ {
			col := c.rates.ColIdx[i]
			if !placed && col > r {
				p.ColIdx = append(p.ColIdx, r)
				p.Val = append(p.Val, stay)
				placed = true
			}
			if v := c.rates.Val[i] / gamma; v != 0 {
				p.ColIdx = append(p.ColIdx, col)
				p.Val = append(p.Val, v)
			}
		}
		if !placed {
			p.ColIdx = append(p.ColIdx, r)
			p.Val = append(p.Val, stay)
		}
		p.RowPtr[r+1] = len(p.ColIdx)
	}
	d.n = c.n
	return gamma
}

// SolveStats accumulates solver effort across one or more solves. Pass one
// instance through SteadyStateOptions.Stats to measure, e.g., how many
// iterations a warm start saves over a cold one.
type SolveStats struct {
	// Iterations is the total number of solver sweeps performed.
	Iterations int
	// Solves is the number of solver invocations that contributed.
	Solves int
}

// SteadyStateOptions controls the iterative steady-state solvers.
type SteadyStateOptions struct {
	// Tol is the L1 convergence tolerance between successive iterates
	// (default 1e-10).
	Tol float64
	// MaxIter bounds the number of iterations (default 200000).
	MaxIter int
	// Start is an optional initial distribution; uniform when nil. The
	// solvers copy it — a warm-start vector is never written through.
	Start []float64
	// Stats, when non-nil, accumulates iteration counts across solves. The
	// caller owns the instance; solvers only add to it, so it must not be
	// shared across goroutines.
	Stats *SolveStats
	// Dst optionally receives the solution: the solver resizes it (reusing
	// its capacity), writes the stationary distribution into it, and
	// returns it, so a caller cycling one buffer through repeated solves
	// stops allocating. Dst must not alias Start. When nil the result is a
	// fresh vector that never aliases solver scratch.
	Dst []float64
	// Work optionally lends the solver its iteration scratch. A Workspace
	// must not be shared across goroutines or concurrently running solves.
	Work *Workspace
}

// Workspace owns the iteration buffers of the steady-state solvers. The
// zero value is ready for use; buffers grow to the largest chain solved and
// are reused across solves, which removes the per-solve vector allocations
// from the approximate model's level loop.
type Workspace struct {
	a, b []float64
}

// pair returns two length-n buffers with unspecified contents, reusing the
// workspace storage; a nil receiver falls back to fresh allocations.
func (w *Workspace) pair(n int) ([]float64, []float64) {
	if w == nil {
		return make([]float64, n), make([]float64, n)
	}
	w.a = growVec(w.a, n)
	w.b = growVec(w.b, n)
	return w.a, w.b
}

// growVec returns s resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growVec(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// result returns the buffer a solver should deliver its solution in: Dst
// (resized over its capacity) when provided, a fresh vector otherwise.
func (o *SteadyStateOptions) result(n int) []float64 {
	if o.Dst != nil && cap(o.Dst) >= n {
		return o.Dst[:n]
	}
	return make([]float64, n)
}

// record adds one solve's effort to the optional stats sink. Solvers call
// it on every return once iterating has begun, failures included, so a
// solve that exhausts MaxIter shows in the totals.
func (o *SteadyStateOptions) record(iterations int) {
	if o.Stats != nil {
		o.Stats.Iterations += iterations
		o.Stats.Solves++
	}
}

func (o *SteadyStateOptions) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200000
	}
}

// SteadyState computes the stationary distribution of an irreducible CTMC
// by power iteration on the uniformized DTMC. For reducible chains it
// returns a stationary distribution that depends on the starting vector.
func (c *CTMC) SteadyState(opts SteadyStateOptions) ([]float64, error) {
	opts.defaults()
	if !c.ssOK {
		if c.ssCache == nil {
			c.ssCache = &DTMC{}
		}
		c.uniformizedInto(c.ssCache, 1.05)
		c.ssOK = true
	}
	return c.ssCache.SteadyState(opts)
}

// Over-relaxation schedule of SteadyStateGaussSeidel. The first sorProbe
// sweeps are plain Gauss-Seidel and measure its contraction rate; a relaxed
// solve that sets no new smallest L1 step within sorGuard sweeps goes back
// to plain sweeps for the rest of the solve.
const (
	sorProbe = 10
	sorGuard = 3 * sorProbe
)

// SteadyStateGaussSeidel solves the global balance equations piQ = 0 with
// Gauss-Seidel sweeps, normalizing every iteration, and over-relaxes them
// adaptively. It is the primary steady-state solver of the approximate
// model's levels, which fall back to SteadyState (power iteration) when
// it fails, and of the queueing models.
//
// The first sorProbe sweeps are plain (pi_j = in_j / exit_j). Their L1
// steps shrink by a factor rho per sweep, and if the last two probe steps
// give 0 < rho < 1 the remaining sweeps are successive over-relaxation
// with Young's factor omega = 2 / (1 + sqrt(1 - rho)):
// pi_j += omega * (in_j/exit_j - pi_j), clamped at 0. Young's factor is
// optimal when the matrix is consistently ordered with real Jacobi
// eigenvalues. Chains far from that, such as some MMPP and phase-type
// queues, can oscillate under it, so a relaxed solve that sets no new
// smallest L1 step within sorGuard sweeps returns to plain sweeps.
// The stopping rule is the same for both: the L1 step between successive
// normalized iterates falls below Tol.
//
// Each iteration is one fused sweep followed by one normalize-and-compare
// pass. The sweep saves pi[j] into prev and adds the updated pi[j] to the
// running mass as it visits row j; the second pass normalizes and sums the
// L1 step.
func (c *CTMC) SteadyStateGaussSeidel(opts SteadyStateOptions) ([]float64, error) {
	opts.defaults()
	// pi_j * exit_j = sum_{i != j} pi_i * q_ij: we need column access, i.e.
	// rows of the transposed rate matrix (cached across solves).
	if !c.qtOK {
		c.qtCache = c.rates.TransposeInto(c.qtCache)
		c.qtOK = true
	}
	qt := c.qtCache
	pi := opts.result(c.n)
	if opts.Start != nil {
		if len(opts.Start) != c.n {
			return nil, fmt.Errorf("markov: start vector has %d entries, chain has %d states", len(opts.Start), c.n)
		}
		copy(pi, opts.Start)
	} else {
		numeric.Fill(pi, 1/float64(c.n))
	}
	prev, _ := opts.Work.pair(c.n)
	// Equal lengths let the compiler drop the bounds checks on pi[j] and
	// prev[j].
	exit := c.exit[:c.n]
	pi, prev = pi[:len(exit)], prev[:len(exit)]
	// omega is 0 while the sweeps are plain; lastDiff is the previous L1
	// step, best the smallest since relaxing began, and bestAt its sweep.
	omega, lastDiff, best, bestAt := 0.0, 0.0, 0.0, 0
	for iter := 0; iter < opts.MaxIter; iter++ {
		mass := 0.0
		for j, e := range exit {
			p := pi[j]
			prev[j] = p
			if e != 0 { // an absorbing state keeps its mass
				lo, hi := qt.RowPtr[j], qt.RowPtr[j+1]
				cols := qt.ColIdx[lo:hi]
				vals := qt.Val[lo:hi]
				vals = vals[:len(cols)]
				in := 0.0
				for i, col := range cols {
					in += vals[i] * pi[col]
				}
				if omega == 0 {
					p = in / e
				} else if p += omega * (in/e - p); p < 0 {
					p = 0
				}
				pi[j] = p
			}
			mass += p
		}
		if mass == 0 {
			opts.record(iter + 1)
			return nil, ErrNoConvergence
		}
		inv := 1 / mass
		diff := 0.0
		for j, p := range pi {
			p *= inv
			pi[j] = p
			diff += math.Abs(p - prev[j])
		}
		if diff < opts.Tol {
			opts.record(iter + 1)
			if err := numeric.CheckProbVec(pi, probVecTol); err != nil {
				return nil, err
			}
			return pi, nil
		}
		switch {
		case iter+1 == sorProbe:
			if rho := diff / lastDiff; rho > 0 && rho < 1 {
				omega = 2 / (1 + math.Sqrt(1-rho))
				best, bestAt = diff, iter
			}
		case omega != 0:
			if diff < best {
				best, bestAt = diff, iter
			} else if iter-bestAt >= sorGuard {
				omega = 0
			}
		}
		lastDiff = diff
	}
	opts.record(opts.MaxIter)
	return nil, ErrNoConvergence
}

// TransientOptions controls uniformization-based transient analysis.
type TransientOptions struct {
	// Epsilon bounds the truncated Poisson mass (default 1e-10).
	Epsilon float64
}

// Transient returns the state distribution at time t starting from p0,
// computed by uniformization: p(t) = sum_k Poisson(gamma t; k) p0 P^k with
// the summation truncated by Fox-Glynn bounds.
func (c *CTMC) Transient(p0 []float64, t float64, opts TransientOptions) ([]float64, error) {
	if len(p0) != c.n {
		return nil, fmt.Errorf("markov: initial vector has %d entries, chain has %d states", len(p0), c.n)
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 1e-10
	}
	if t <= 0 {
		return numeric.Clone(p0), nil
	}
	dt, gamma := c.UniformizedUnit()
	fg := numeric.NewFoxGlynn(gamma*t, opts.Epsilon)
	out := make([]float64, c.n)
	cur := numeric.Clone(p0)
	next := make([]float64, c.n)
	for k := 0; k <= fg.Right; k++ {
		if k > 0 {
			if err := dt.Step(next, cur); err != nil {
				return nil, err
			}
			cur, next = next, cur
		}
		if k >= fg.Left {
			w := fg.Weights[k-fg.Left]
			for i := range out {
				out[i] += w * cur[i]
			}
		}
	}
	// A zero-mass result means the Fox-Glynn window and the stepped vectors
	// disagree — returning the all-zero vector would silently zero every
	// downstream expectation.
	if numeric.Normalize(out) == 0 {
		return nil, fmt.Errorf("markov: transient distribution at t=%g lost all probability mass (gamma=%g)", t, gamma)
	}
	return out, nil
}

// ExpectedValue returns sum_s pi[s] * f(s).
func ExpectedValue(pi []float64, f func(state int) float64) float64 {
	s := 0.0
	for i, p := range pi {
		if p != 0 {
			s += p * f(i)
		}
	}
	return s
}
