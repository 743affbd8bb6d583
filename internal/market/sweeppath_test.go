package market

// Regression tests for the sweep-path fixes: skip-aware equilibrium checks,
// partial outcomes from an all-diverging multi-start, the memoized
// whole-vector fast path, and the lock-free participation baselines.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"scshare/internal/cloud"
)

// eqTol absorbs numerical noise in Nash-deviation probes.
const eqTol = 1e-9

// TestIsEquilibriumSkipsFrozen pins the RunWithFrozen/IsEquilibrium
// contract: a frozen SC never best-responds, so its (deliberately stale)
// decision must not count as a profitable deviation against the outcome.
func TestIsEquilibriumSkipsFrozen(t *testing.T) {
	fed := toyFederation(0.3)
	g := &Game{Federation: fed, Evaluator: Memoize(newToyEvaluator(t, fed)), Gamma: UF0}
	out, err := g.RunWithFrozen([]int{7, 1, 1}, map[int]bool{0: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Frozen == nil || !out.Frozen[0] || out.Frozen[1] || out.Frozen[2] {
		t.Fatalf("frozen flags not recorded: %v", out.Frozen)
	}
	ok, err := g.IsEquilibrium(out, eqTol)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("frozen-player outcome %v reported as non-Nash", out.Shares)
	}
	// The guard must be load-bearing: with the flags stripped, the frozen
	// SC's stale share is a profitable deviation and the check fails.
	stripped := *out
	stripped.Frozen = nil
	ok, err = g.IsEquilibrium(&stripped, eqTol)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Skip("frozen share happens to be a best response; pick a staler one")
	}
}

// TestRunMultiStartAllDivergeReturnsPartial covers the dead-market path:
// when no start converges, RunMultiStart must hand back the best terminal
// state alongside ErrNoEquilibrium instead of discarding it.
func TestRunMultiStartAllDivergeReturnsPartial(t *testing.T) {
	fed := toyFederation(0.2)
	g := &Game{
		Federation: fed,
		Evaluator:  Memoize(newToyEvaluator(t, fed)),
		Gamma:      UF0,
		MaxRounds:  1,
	}
	out, err := g.RunMultiStart([][]int{{0, 0, 0}, {9, 9, 9}}, AlphaUtilitarian)
	if !errors.Is(err, ErrNoEquilibrium) {
		t.Fatalf("err = %v, want ErrNoEquilibrium", err)
	}
	if out == nil {
		t.Fatal("partial outcome discarded")
	}
	if out.Converged {
		t.Fatal("non-converged outcome flagged as converged")
	}
	if out.Rounds != 1 {
		t.Errorf("rounds = %d, want the 1-round budget", out.Rounds)
	}
	if len(out.Shares) != 3 || len(out.Utilities) != 3 || len(out.Costs) != 3 {
		t.Errorf("terminal state incomplete: shares %v utilities %v costs %v",
			out.Shares, out.Utilities, out.Costs)
	}
}

// TestMemoizeKeepsWholeVectorPath checks that the whole-vector entry is
// solved once across EvaluateAll and Evaluate.
func TestMemoizeKeepsWholeVectorPath(t *testing.T) {
	fed := testFederation()
	inner := &countingAllEvaluator{fed: fed}
	ev := Memoize(inner)
	for round := 0; round < 3; round++ {
		ms, err := ev.EvaluateAll([]int{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 3 || ms[2].Utilization != 3.2 {
			t.Fatalf("round %d: metrics %v", round, ms)
		}
	}
	if _, err := ev.Evaluate([]int{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if got := inner.solves.Load(); got != 1 {
		t.Errorf("underlying evaluator solved %d times, want 1", got)
	}
}

// TestFillOutcomeWholeVectorSolve pins the final-evaluation fast path: one
// whole-vector solve instead of K per-target evaluations.
func TestFillOutcomeWholeVectorSolve(t *testing.T) {
	fed := testFederation()
	inner := &countingAllEvaluator{fed: fed}
	g := &Game{Federation: fed, Evaluator: inner, Gamma: UF0}
	baseCosts, baseUtils, err := baselineTerms(fed, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := &Outcome{Shares: []int{1, 2, 3}, BaselineCosts: baseCosts, BaselineUtils: baseUtils}
	if err := g.fillOutcome(out); err != nil {
		t.Fatal(err)
	}
	if got := inner.solves.Load(); got != 1 {
		t.Errorf("final evaluation used %d solves, want 1 whole-vector solve", got)
	}
	if len(out.Metrics) != 3 || len(out.Costs) != 3 || len(out.Utilities) != 3 {
		t.Fatalf("outcome incomplete: %+v", out)
	}
	for i, m := range out.Metrics {
		if want := float64(out.Shares[i]) + float64(i)/10; m.Utilization != want {
			t.Errorf("SC %d utilization %v, want %v", i, m.Utilization, want)
		}
	}
}

// shortAllEvaluator returns fewer metrics than the federation has SCs.
type shortAllEvaluator struct{}

func (shortAllEvaluator) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	return cloud.Metrics{}, nil
}

func (shortAllEvaluator) EvaluateAll(shares []int) ([]cloud.Metrics, error) {
	return make([]cloud.Metrics, 1), nil
}

func TestFillOutcomeRejectsShortMetrics(t *testing.T) {
	fed := testFederation()
	g := &Game{Federation: fed, Evaluator: shortAllEvaluator{}, Gamma: UF0}
	out := &Outcome{
		Shares:        []int{1, 1, 1},
		BaselineCosts: []float64{1, 1, 1},
		BaselineUtils: []float64{0.5, 0.5, 0.5},
	}
	if err := g.fillOutcome(out); err == nil {
		t.Error("length-mismatched whole-vector solve accepted")
	}
}

// TestParticipationBaselineConcurrent stresses the per-SC baseline cells
// under -race: distinct baselines must solve concurrently (no evaluator-wide
// lock), repeat requests must agree, and sub-evaluator lookups interleave
// freely with the solves.
func TestParticipationBaselineConcurrent(t *testing.T) {
	fed := testFederation()
	ev := WithParticipation(fed, func(sub cloud.Federation) Evaluator {
		return allTargets{EvaluatorFunc(func(shares []int, target int) (cloud.Metrics, error) {
			return cloud.Metrics{Utilization: float64(len(shares))}, nil
		})}
	})

	const goroutines = 32
	const rounds = 40
	baselines := make([][]cloud.Metrics, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			baselines[gi] = make([]cloud.Metrics, len(fed.SCs))
			for r := 0; r < rounds; r++ {
				target := (gi + r) % len(fed.SCs)
				// The zero-share target takes the baseline path…
				m, err := ev.Evaluate([]int{0, 0, 0}, target)
				if err != nil {
					t.Errorf("goroutine %d baseline %d: %v", gi, target, err)
					return
				}
				baselines[gi][target] = m
				// …while a contributor vector exercises the sub-evaluator
				// cache the old lock serialized behind the solves.
				if _, err := ev.Evaluate([]int{1, 2, 1}, target); err != nil {
					t.Errorf("goroutine %d sub-federation: %v", gi, err)
					return
				}
			}
		}(gi)
	}
	wg.Wait()

	for gi := 1; gi < goroutines; gi++ {
		for i := range fed.SCs {
			if baselines[gi][i] != baselines[0][i] {
				t.Fatalf("SC %d baseline diverged across goroutines: %+v vs %+v",
					i, baselines[gi][i], baselines[0][i])
			}
		}
	}
}

// TestPrimePopulatesVectorCache pins the sweep driver's speculative
// enumeration: Prime must solve every vector in the box exactly once, turn
// subsequent empirical-max searches into pure cache hits, refuse boxes
// beyond primeCap, and stay a no-op without a worker pool to amortize the
// extra work.
func TestPrimePopulatesVectorCache(t *testing.T) {
	fed := testFederation()
	inner := &countingAllEvaluator{fed: fed}
	we, err := NewWelfareEvaluator(fed, Memoize(inner), 0.5)
	if err != nil {
		t.Fatal(err)
	}

	we.Prime(context.Background(), []int{1, 1, 1}, 4)
	if got := inner.solves.Load(); got != 8 {
		t.Fatalf("priming a 2x2x2 box took %d solves, want 8", got)
	}
	// Re-priming the same box must be all cache hits.
	we.Prime(context.Background(), []int{1, 1, 1}, 4)
	if got := inner.solves.Load(); got != 8 {
		t.Fatalf("re-priming solved again: %d solves", got)
	}
	// A search inside the primed box must not solve anything new, and must
	// agree with an unprimed evaluator.
	shares, w, err := we.MaximizeWelfareAt(0.3, 0, []int{1, 1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := inner.solves.Load(); got != 8 {
		t.Fatalf("primed search still solved: %d solves", got)
	}
	cold := &countingAllEvaluator{fed: fed}
	we2, err := NewWelfareEvaluator(fed, cold, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	shares2, w2, err := we2.MaximizeWelfareAt(0.3, 0, []int{1, 1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w != w2 || len(shares) != len(shares2) {
		t.Fatalf("primed search diverged: (%v, %v) vs (%v, %v)", shares, w, shares2, w2)
	}
	for i := range shares {
		if shares[i] != shares2[i] {
			t.Fatalf("primed search diverged: %v vs %v", shares, shares2)
		}
	}

	// Oversized boxes are refused outright (16^3 > primeCap)...
	big := &countingAllEvaluator{fed: fed}
	web, err := NewWelfareEvaluator(fed, Memoize(big), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	web.Prime(context.Background(), []int{15, 15, 15}, 4)
	if got := big.solves.Load(); got != 0 {
		t.Fatalf("oversized box still primed: %d solves", got)
	}
	// ...and so is a single-worker pool: serial priming is the lazy path
	// with extra steps.
	web.Prime(context.Background(), []int{1, 1, 1}, 1)
	if got := big.solves.Load(); got != 0 {
		t.Fatalf("single-worker prime ran: %d solves", got)
	}
	// A nil box defaults to each SC's full VM count: 7*6*5 vectors.
	web.Prime(context.Background(), nil, 4)
	if got := big.solves.Load(); got != 210 {
		t.Fatalf("nil box primed %d vectors, want 210", got)
	}
}

// TestPrimeStopsOnCancel: a canceled Prime must stop dispatching the box.
// Every worker is parked inside a solve when the context is canceled, so
// exactly those solves may complete — never the rest of the 27-vector box.
func TestPrimeStopsOnCancel(t *testing.T) {
	fed := testFederation()
	// started holds one announcement per box vector, so no solve ever
	// blocks on it.
	inner := &countingAllEvaluator{fed: fed, started: make(chan []int, 27), release: make(chan struct{})}
	we, err := NewWelfareEvaluator(fed, inner, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workers = 2
	done := make(chan struct{})
	go func() {
		defer close(done)
		we.Prime(ctx, []int{2, 2, 2}, workers)
	}()
	for i := 0; i < workers; i++ {
		<-inner.started
	}
	cancel()
	close(inner.release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Prime did not return after cancellation")
	}
	if got := inner.solves.Load(); got > workers {
		t.Fatalf("canceled Prime solved %d vectors, want at most the %d in flight", got, workers)
	}
}

// TestPrimeOrderLongestFirst pins Prime's dispatch order: the whole box,
// each vector once, by participant count and then share total, both
// descending, with ties in odometer order (lowest index fastest).
func TestPrimeOrderLongestFirst(t *testing.T) {
	box := primeOrder([]int{2, 2, 2})
	if len(box) != 27 {
		t.Fatalf("box has %d vectors, want 27", len(box))
	}
	head := [][]int{{2, 2, 2}, {2, 2, 1}, {2, 1, 2}, {1, 2, 2}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2}, {1, 1, 1}, {2, 2, 0}}
	for i, want := range head {
		if !slices.Equal(box[i], want) {
			t.Fatalf("dispatch %d is %v, want %v (order %v)", i, box[i], want, box[:len(head)])
		}
	}
	if last := box[len(box)-1]; !slices.Equal(last, []int{0, 0, 0}) {
		t.Fatalf("last dispatch is %v, want the empty vector", last)
	}
	seen := map[[3]int]bool{}
	odometer := func(v []int) int { return v[0] + 3*v[1] + 9*v[2] }
	for i, v := range box {
		key := [3]int{v[0], v[1], v[2]}
		if seen[key] {
			t.Fatalf("vector %v dispatched twice", v)
		}
		seen[key] = true
		if i == 0 {
			continue
		}
		pp, pt := primeCost(box[i-1])
		p, tot := primeCost(v)
		if p > pp || (p == pp && tot > pt) || (p == pp && tot == pt && odometer(v) < odometer(box[i-1])) {
			t.Fatalf("dispatch %d (%v) out of order after %v", i, v, box[i-1])
		}
	}
}
