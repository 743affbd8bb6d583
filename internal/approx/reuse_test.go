package approx

import (
	"math"
	"testing"

	"scshare/internal/cloud"
)

func fedK(k int) (cloud.Federation, []int) {
	utils := []float64{0.7, 0.5, 0.8, 0.6, 0.75}
	fed := cloud.Federation{FederationPrice: 0.5}
	shares := make([]int, k)
	for i := 0; i < k; i++ {
		fed.SCs = append(fed.SCs, cloud.SC{
			Name: "sc", VMs: 8, ArrivalRate: 8 * utils[i%len(utils)],
			ServiceRate: 1, SLA: 0.2, PublicPrice: 1,
		})
		shares[i] = 2
	}
	return fed, shares
}

// TestSolverReuseBitIdentical pins the arena contract end to end: repeat
// solves on one handle — running entirely in the first solve's recycled
// storage — must be bit-identical to each other and to a fresh handle.
// Warm is left nil so every solve runs the same cold iteration path.
func TestSolverReuseBitIdentical(t *testing.T) {
	fed, shares := fedK(3)
	cfg := Config{Federation: fed, Shares: shares}
	reused, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for target := 0; target < len(shares); target++ {
		fresh, err := NewSolver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Solve(target)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			got, err := reused.Solve(target)
			if err != nil {
				t.Fatal(err)
			}
			if got.Metrics() != want.Metrics() {
				t.Fatalf("target %d round %d: reused handle drifted: %+v vs fresh %+v",
					target, round, got.Metrics(), want.Metrics())
			}
			if got.TotalStates() != want.TotalStates() {
				t.Fatalf("target %d round %d: states %d vs %d",
					target, round, got.TotalStates(), want.TotalStates())
			}
		}
	}
	// The whole-vector path through the same (already well-used) arenas.
	fresh, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.SolveAll()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, err := reused.SolveAll()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SolveAll round %d SC %d: reused %+v vs fresh %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestWithSharesPerCall pins the evaluator-pool pattern: a solver built
// without a share vector solves under per-call WithShares, never writes
// through to the caller's slice, and refuses to solve with no vector set.
func TestWithSharesPerCall(t *testing.T) {
	fed, shares := fedK(2)
	s, err := NewSolver(Config{Federation: fed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(0); err == nil {
		t.Fatal("solve with no share vector accepted")
	}
	callerOwned := append([]int(nil), shares...)
	m1, err := s.Solve(1, WithShares(callerOwned))
	if err != nil {
		t.Fatal(err)
	}
	// The vector sticks for subsequent calls.
	m2, err := s.Solve(1)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Metrics() != m2.Metrics() {
		t.Fatalf("sticky shares drifted: %+v vs %+v", m1.Metrics(), m2.Metrics())
	}
	if _, err := s.Solve(1, WithShares([]int{7})); err == nil {
		t.Fatal("invalid share vector accepted")
	}
	for i, v := range callerOwned {
		if v != shares[i] {
			t.Fatalf("caller's share slice mutated: %v", callerOwned)
		}
	}
}

// Allocation budgets for the warm (arena-reuse) paths. They are regression
// tripwires, not exact pins: the budgets sit ~1.5x above the measured
// steady-state counts, so a change that reintroduces per-level or per-state
// allocation blows through them while benign noise does not.
const (
	warmSingleLevelAllocBudget = 8
	warmSolveAllK6AllocBudget  = 1500
)

// TestWarmSolveAllocBudget pins the allocation diet. A reused handle's
// repeat solves run in recycled arenas: the single-level (K=1) solve must
// be allocation-free but for the returned Model, and the K=6 whole-vector
// solve is bounded by the per-build interaction-vector assembly (Fox-Glynn
// weights), not by level count times state count.
func TestWarmSolveAllocBudget(t *testing.T) {
	sc := cloud.SC{Name: "solo", VMs: 10, ArrivalRate: 8, ServiceRate: 1, SLA: 0.2, PublicPrice: 1}
	single, err := NewSolver(Config{
		Federation: cloud.Federation{SCs: []cloud.SC{sc}, FederationPrice: 0.5},
		Shares:     []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Solve(0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := single.Solve(0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm single-level solve: %v allocs/run", allocs)
	if allocs > warmSingleLevelAllocBudget {
		t.Errorf("warm single-level solve: %v allocs/run, budget %d", allocs, warmSingleLevelAllocBudget)
	}

	fed, shares := fedK(6)
	all, err := NewSolver(Config{Federation: fed, Shares: shares, Prune: 1e-5, PoolCap: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := all.SolveAll(); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(2, func() {
		if _, err := all.SolveAll(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm K=6 SolveAll: %v allocs/run", allocs)
	if allocs > warmSolveAllK6AllocBudget {
		t.Errorf("warm K=6 SolveAll: %v allocs/run, budget %d", allocs, warmSolveAllK6AllocBudget)
	}
}

// TestTruncationAccounting pins the adaptive-truncation observability loop:
// an aggressive budget must shed mass into the shared counter while the
// metrics stay inside a loose envelope of the untruncated solve, and the
// per-summary maximum must respect the configured budget.
func TestTruncationAccounting(t *testing.T) {
	fed, shares := fedK(3)
	exactRef, err := solveVec(Config{Federation: fed, Shares: shares, TruncEps: -1})
	if err != nil {
		t.Fatal(err)
	}
	counter := &PruneCounter{}
	got, err := solveVec(Config{Federation: fed, Shares: shares, TruncEps: 1e-4, PruneStats: counter})
	if err != nil {
		t.Fatal(err)
	}
	stats := counter.Stats()
	if stats.Joints == 0 || stats.TotalMass <= 0 {
		t.Fatalf("aggressive truncation recorded nothing: %+v", stats)
	}
	if stats.MaxMass > 1e-4 {
		t.Errorf("per-summary truncated mass %v exceeds the 1e-4 budget", stats.MaxMass)
	}
	for i := range exactRef {
		if d := math.Abs(got[i].BorrowRate - exactRef[i].BorrowRate); d > 0.05 {
			t.Errorf("SC %d: truncation moved borrow rate by %v", i, d)
		}
		if d := math.Abs(got[i].Utilization - exactRef[i].Utilization); d > 0.01 {
			t.Errorf("SC %d: truncation moved utilization by %v", i, d)
		}
	}
	// The default budget is far below the aggressive one: it must also
	// account its (much smaller) discard without disturbing anything.
	def := &PruneCounter{}
	if _, err := solveVec(Config{Federation: fed, Shares: shares, PruneStats: def}); err != nil {
		t.Fatal(err)
	}
	if s := def.Stats(); s.MaxMass > stats.MaxMass && stats.MaxMass > 0 {
		t.Errorf("default budget truncated more than the aggressive one: %+v vs %+v", s, stats)
	}
}
