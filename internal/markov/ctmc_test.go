package markov

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"scshare/internal/numeric"
)

// mm1 builds a truncated M/M/1 birth-death chain with arrival rate lambda,
// service rate mu, and states 0..cap.
func mm1(t testing.TB, lambda, mu float64, capacity int) *CTMC {
	t.Helper()
	b := NewBuilder(capacity + 1)
	for q := 0; q < capacity; q++ {
		b.Add(q, q+1, lambda)
		b.Add(q+1, q, mu)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSteadyStateMM1Geometric(t *testing.T) {
	lambda, mu := 0.6, 1.0
	capacity := 60
	c := mm1(t, lambda, mu, capacity)
	pi, err := c.SteadyState(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	// Truncated geometric: pi_q = (1-rho) rho^q / (1 - rho^(cap+1)).
	norm := 1 - math.Pow(rho, float64(capacity+1))
	for q := 0; q <= 10; q++ {
		want := (1 - rho) * math.Pow(rho, float64(q)) / norm
		if numeric.RelErr(pi[q], want, 1e-12) > 1e-6 {
			t.Errorf("pi[%d] = %v, want %v", q, pi[q], want)
		}
	}
}

func TestGaussSeidelMatchesPowerIteration(t *testing.T) {
	c := mm1(t, 0.8, 1.0, 40)
	p1, err := c.SteadyState(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.SteadyStateGaussSeidel(SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := numeric.MaxAbsDiff(p1, p2); d > 1e-7 {
		t.Errorf("solvers disagree by %v", d)
	}
}

func TestSteadyStateBalanceResidual(t *testing.T) {
	// For any steady state, inflow must equal outflow at every state.
	c := mm1(t, 0.5, 1.0, 30)
	pi, err := c.SteadyState(SteadyStateOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < c.NumStates(); s++ {
		out := pi[s] * c.ExitRate(s)
		in := 0.0
		for u := 0; u < c.NumStates(); u++ {
			in += pi[u] * c.Rate(u, s)
		}
		if math.Abs(in-out) > 1e-8 {
			t.Errorf("state %d: inflow %v != outflow %v", s, in, out)
		}
	}
}

func TestTransientTwoStateAnalytic(t *testing.T) {
	// Two-state chain 0 <-> 1 with rates a (0->1) and b (1->0):
	// p1(t) = a/(a+b) + (p1(0) - a/(a+b)) e^{-(a+b)t}.
	a, bRate := 2.0, 3.0
	bl := NewBuilder(2)
	bl.Add(0, 1, a)
	bl.Add(1, 0, bRate)
	c, err := bl.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.01, 0.1, 0.5, 2, 10} {
		p, err := c.Transient([]float64{1, 0}, tt, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eq := a / (a + bRate)
		want := eq + (0-eq)*math.Exp(-(a+bRate)*tt)
		if math.Abs(p[1]-want) > 1e-8 {
			t.Errorf("t=%v: p1 = %v, want %v", tt, p[1], want)
		}
	}
}

func TestTransientZeroTime(t *testing.T) {
	c := mm1(t, 1, 2, 5)
	p0 := []float64{0, 1, 0, 0, 0, 0}
	p, err := c.Transient(p0, 0, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if numeric.MaxAbsDiff(p, p0) != 0 {
		t.Errorf("t=0 changed the distribution: %v", p)
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	c := mm1(t, 0.7, 1.0, 20)
	pi, err := c.SteadyState(SteadyStateOptions{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	p0 := make([]float64, c.NumStates())
	p0[0] = 1
	p, err := c.Transient(p0, 400, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := numeric.MaxAbsDiff(p, pi); d > 1e-5 {
		t.Errorf("long-run transient differs from steady state by %v", d)
	}
}

func TestTransientIsDistributionProperty(t *testing.T) {
	c := mm1(t, 1.3, 1.0, 15)
	f := func(start uint8, tRaw uint16) bool {
		p0 := make([]float64, c.NumStates())
		p0[int(start)%c.NumStates()] = 1
		tt := float64(tRaw%1000)/100 + 0.001
		p, err := c.Transient(p0, tt, TransientOptions{})
		if err != nil {
			return false
		}
		sum := 0.0
		for _, x := range p {
			if x < -1e-12 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBuilderIgnoresSelfLoopsAndNonPositive(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 5)
	b.Add(0, 1, -1)
	b.Add(0, 1, 0)
	b.Add(1, 2, 2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTransitions() != 1 {
		t.Errorf("transitions = %d, want 1", c.NumTransitions())
	}
	if c.Rate(0, 0) != 0 || c.Rate(0, 1) != 0 || c.Rate(1, 2) != 2 {
		t.Error("unexpected rates stored")
	}
}

func TestEmptyChain(t *testing.T) {
	if _, err := NewBuilder(0).Build(); err != ErrEmptyChain {
		t.Errorf("got %v, want ErrEmptyChain", err)
	}
}

func TestUniformizedIsStochastic(t *testing.T) {
	c := mm1(t, 2, 3, 10)
	dt, gamma := c.Uniformized(1.05)
	if gamma < c.MaxExitRate() {
		t.Errorf("gamma %v below max exit %v", gamma, c.MaxExitRate())
	}
	// DTMC construction would have failed if rows were not stochastic, but
	// we check the wrapper explicitly too.
	for s := 0; s < dt.NumStates(); s++ {
		sum := 0.0
		for u := 0; u < dt.NumStates(); u++ {
			sum += dt.Prob(s, u)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", s, sum)
		}
	}
}

func TestExpectedValue(t *testing.T) {
	pi := []float64{0.25, 0.25, 0.5}
	got := ExpectedValue(pi, func(s int) float64 { return float64(s) })
	if got != 1.25 {
		t.Errorf("ExpectedValue = %v", got)
	}
}

func TestSteadyStateStartVectorValidation(t *testing.T) {
	c := mm1(t, 1, 2, 3)
	if _, err := c.SteadyStateGaussSeidel(SteadyStateOptions{Start: []float64{1}}); err == nil {
		t.Error("expected error for wrong-sized start vector")
	}
	dt, _ := c.Uniformized(1.05)
	if _, err := dt.SteadyState(SteadyStateOptions{Start: []float64{1}}); err == nil {
		t.Error("expected error for wrong-sized start vector")
	}
}

func TestTransientWrongSize(t *testing.T) {
	c := mm1(t, 1, 2, 3)
	if _, err := c.Transient([]float64{1}, 1, TransientOptions{}); err == nil {
		t.Error("expected error for wrong-sized p0")
	}
}

func TestBuilderRejectsNonFiniteRate(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := NewBuilder(3)
		b.Add(0, 1, 2)
		b.Add(1, 2, rate)
		if _, err := b.Build(); err == nil {
			t.Errorf("Build accepted a generator containing rate %v", rate)
		}
	}
}

// gaussSeidelReference is the textbook Gauss-Seidel loop, with no
// over-relaxation: copy the iterate, sweep the rows in place, Normalize,
// then L1Diff against the copy. It returns the solution and the number of
// iterations taken. Run at a tight tolerance it locates the fixed point
// SteadyStateGaussSeidel must land near.
func gaussSeidelReference(c *CTMC, opts SteadyStateOptions) ([]float64, int, error) {
	opts.defaults()
	qt := c.rates.Transpose()
	pi := make([]float64, c.n)
	if opts.Start != nil {
		copy(pi, opts.Start)
	} else {
		numeric.Fill(pi, 1/float64(c.n))
	}
	prev := make([]float64, c.n)
	for iter := 0; iter < opts.MaxIter; iter++ {
		copy(prev, pi)
		for j := 0; j < c.n; j++ {
			if c.exit[j] == 0 {
				continue
			}
			in := 0.0
			for i := qt.RowPtr[j]; i < qt.RowPtr[j+1]; i++ {
				in += qt.Val[i] * pi[qt.ColIdx[i]]
			}
			pi[j] = in / c.exit[j]
		}
		if numeric.Normalize(pi) == 0 {
			return nil, iter + 1, ErrNoConvergence
		}
		if numeric.L1Diff(pi, prev) < opts.Tol {
			return pi, iter + 1, nil
		}
	}
	return nil, opts.MaxIter, ErrNoConvergence
}

// gsReferenceTol is the tolerance the reference loop runs at: tight
// enough that its answer stands in for the exact fixed point.
const gsReferenceTol = 1e-14

// checkGaussSeidelMatchesReference solves c with SteadyStateGaussSeidel
// under opts and with the reference loop at gsReferenceTol, and requires
// the two solutions to lie within 10·Tol of each other in L1.
func checkGaussSeidelMatchesReference(t *testing.T, name string, c *CTMC, opts SteadyStateOptions) {
	t.Helper()
	ref := opts
	ref.Tol = gsReferenceTol
	want, _, err := gaussSeidelReference(c, ref)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := c.SteadyStateGaussSeidel(opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	opts.defaults()
	if d := numeric.L1Diff(got, want); d > 10*opts.Tol {
		t.Errorf("%s: L1 distance %.3g from the reference fixed point, want <= %g", name, d, 10*opts.Tol)
	}
}

// TestGaussSeidelMatchesReference checks that the over-relaxed solver
// lands on the reference loop's fixed point on random irreducible chains
// (cold and from a warm Start), and on a chain with an absorbing state,
// whose mass the sweep leaves alone; and that an exhausted budget fails
// with ErrNoConvergence.
func TestGaussSeidelMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		bl := NewBuilder(n)
		randomChainInto(bl, rng, n)
		c, err := bl.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkGaussSeidelMatchesReference(t, fmt.Sprintf("seed %d cold", seed), c, SteadyStateOptions{})
		start := make([]float64, n)
		for i := range start {
			start[i] = rng.Float64()
		}
		numeric.Normalize(start)
		checkGaussSeidelMatchesReference(t, fmt.Sprintf("seed %d warm", seed), c, SteadyStateOptions{Start: start, Tol: 1e-12})
	}

	c := absorbingChain(t)
	checkGaussSeidelMatchesReference(t, "absorbing", c, SteadyStateOptions{})
	if _, err := c.SteadyStateGaussSeidel(SteadyStateOptions{MaxIter: 3}); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("absorbing, capped: error %v, want ErrNoConvergence", err)
	}
}

// absorbingChain is a birth-death chain whose last state is absorbing: the
// iterates drain into it while it keeps its own mass through every sweep.
func absorbingChain(t *testing.T) *CTMC {
	t.Helper()
	const n = 12
	bl := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		bl.Add(i, i+1, 1.5)
		if i > 0 {
			bl.Add(i, i-1, 0.5)
		}
	}
	c, err := bl.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.ExitRate(n-1) != 0 {
		t.Fatalf("state %d is not absorbing", n-1)
	}
	return c
}

// TestFailedSolveRecordsStats pins that a solve which exhausts its budget
// still reports its sweeps: SolveStats must show the blow-up before a
// caller falls back to another solver.
func TestFailedSolveRecordsStats(t *testing.T) {
	c := absorbingChain(t)
	for _, tc := range []struct {
		name  string
		solve func(SteadyStateOptions) ([]float64, error)
	}{
		{"gauss-seidel", c.SteadyStateGaussSeidel},
		{"power", c.SteadyState},
	} {
		stats := SolveStats{Iterations: 5, Solves: 2}
		if _, err := tc.solve(SteadyStateOptions{MaxIter: 3, Stats: &stats}); !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("%s: error %v, want ErrNoConvergence", tc.name, err)
		}
		if stats != (SolveStats{Iterations: 8, Solves: 3}) {
			t.Errorf("%s: stats %+v after a capped 3-sweep solve, want 3 iterations and 1 solve added to {5 2}", tc.name, stats)
		}
	}
}
