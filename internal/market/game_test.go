package market

import (
	"context"
	"math"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/queueing"
)

// toyEvaluator is an analytic federation stand-in with the qualitative
// behavior of the real performance models: sharing lets loaded SCs replace
// public-cloud VMs with federation VMs, capped by the partners' shares,
// while lending raises the lender's utilization. It keeps the game tests
// fast and deterministic.
type toyEvaluator struct {
	fed cloud.Federation
	// need is each SC's unmet demand (the no-sharing public rate).
	need []float64
}

func newToyEvaluator(t *testing.T, fed cloud.Federation) AllEvaluator {
	t.Helper()
	ev := &toyEvaluator{fed: fed}
	for _, sc := range fed.SCs {
		m, err := queueing.Solve(sc)
		if err != nil {
			t.Fatal(err)
		}
		ev.need = append(ev.need, m.Metrics().PublicRate)
	}
	return allTargets{ev}
}

// allTargets gives a per-target test double the whole-vector shape that
// Memoize, WithParticipation and the welfare planner take: its EvaluateAll
// asks Evaluate for every SC in turn.
type allTargets struct{ Evaluator }

func (a allTargets) EvaluateAll(shares []int) ([]cloud.Metrics, error) {
	out := make([]cloud.Metrics, len(shares))
	for i := range shares {
		m, err := a.Evaluate(shares, i)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func (ev *toyEvaluator) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	if err := ValidateShares(ev.fed, shares, target); err != nil {
		return cloud.Metrics{}, err
	}
	// Total supply and demand in the pool, excluding the target.
	supply := float64(cloud.PoolExcluding(shares, target)) * 0.2
	borrow := math.Min(ev.need[target], supply)
	demand := 0.0
	for j := range ev.fed.SCs {
		if j != target {
			demand += ev.need[j]
		}
	}
	lend := math.Min(demand*float64(shares[target])/float64(ev.fed.SCs[target].VMs), float64(shares[target])*0.3)
	base, err := queueing.Solve(ev.fed.SCs[target])
	if err != nil {
		return cloud.Metrics{}, err
	}
	util := base.Metrics().Utilization + lend/float64(ev.fed.SCs[target].VMs)
	return cloud.Metrics{
		PublicRate:  ev.need[target] - borrow,
		BorrowRate:  borrow,
		LendRate:    lend,
		Utilization: math.Min(util, 1),
		ForwardProb: (ev.need[target] - borrow) / ev.fed.SCs[target].ArrivalRate,
	}, nil
}

func toyFederation(price float64) cloud.Federation {
	return cloud.Federation{
		SCs: []cloud.SC{
			{Name: "a", VMs: 10, ArrivalRate: 8.5, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "b", VMs: 10, ArrivalRate: 7, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "c", VMs: 10, ArrivalRate: 5, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
		FederationPrice: price,
	}
}

func TestGameConvergesToEquilibrium(t *testing.T) {
	fed := toyFederation(0.4)
	g := &Game{Federation: fed, Evaluator: Memoize(newToyEvaluator(t, fed)), Gamma: UF0}
	out, err := g.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("game did not converge")
	}
	if out.Rounds <= 0 || out.Evals <= 0 {
		t.Errorf("bookkeeping: rounds=%d evals=%d", out.Rounds, out.Evals)
	}
	ok, err := g.IsEquilibrium(out, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("reported outcome %v is not a Nash equilibrium", out.Shares)
	}
}

func TestGameCheapFederationPriceEncouragesSharing(t *testing.T) {
	cheap := toyFederation(0.1)
	gCheap := &Game{Federation: cheap, Evaluator: Memoize(newToyEvaluator(t, cheap)), Gamma: UF0}
	outCheap, err := gCheap.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	util := 0
	for _, s := range outCheap.Shares {
		util += s
	}
	if util == 0 {
		t.Error("nobody shares at a cheap federation price")
	}
	// Utilities must be non-negative and costs below baselines for sharers.
	for i, u := range outCheap.Utilities {
		if u < 0 {
			t.Errorf("SC %d utility %v < 0", i, u)
		}
		if outCheap.Shares[i] > 0 && outCheap.Costs[i] > outCheap.BaselineCosts[i]+1e-9 {
			t.Errorf("SC %d: sharing but cost %v above baseline %v",
				i, outCheap.Costs[i], outCheap.BaselineCosts[i])
		}
	}
}

func TestGameValidation(t *testing.T) {
	fed := toyFederation(0.4)
	ev := newToyEvaluator(t, fed)
	if _, err := (&Game{Federation: fed, Evaluator: ev, Gamma: 2}).Run(nil); err != ErrBadGamma {
		t.Errorf("bad gamma: %v", err)
	}
	if _, err := (&Game{Federation: fed, Gamma: 0}).Run(nil); err == nil {
		t.Error("nil evaluator accepted")
	}
	if _, err := (&Game{Federation: cloud.Federation{}, Evaluator: ev}).Run(nil); err == nil {
		t.Error("empty federation accepted")
	}
	if _, err := (&Game{Federation: fed, Evaluator: ev}).Run([]int{99, 0, 0}); err == nil {
		t.Error("invalid initial shares accepted")
	}
}

// TestGameRejectsBadMaxShares runs the three bad strategy boxes on three
// 4-VM SCs — too short, a negative entry, an entry above the VM count —
// through a bare Game and every other reader of MaxShares: each returns an
// error instead of panicking or failing mid-game, and Prime solves
// nothing.
func TestGameRejectsBadMaxShares(t *testing.T) {
	fed := toyFederation(0.4)
	for i := range fed.SCs {
		fed.SCs[i].VMs = 4
		fed.SCs[i].ArrivalRate /= 2.5
	}
	out := &Outcome{Shares: []int{1, 1, 1}, Utilities: []float64{0, 0, 0}, BaselineCosts: []float64{1, 1, 1}, BaselineUtils: []float64{0.5, 0.5, 0.5}}
	for _, box := range [][]int{{2, 2}, {-1, 2, 2}, {9, 2, 2}} {
		inner := &countingAllEvaluator{fed: fed}
		g := &Game{Federation: fed, Evaluator: Memoize(inner), Gamma: UF0, MaxShares: box}
		if got, err := g.Run(nil); err == nil || got != nil {
			t.Errorf("MaxShares %v: Run = (%v, %v), want an error", box, got, err)
		}
		if _, err := g.IsEquilibrium(out, eqTol); err == nil {
			t.Errorf("MaxShares %v: IsEquilibrium accepted the box", box)
		}
		if _, _, err := g.CoalitionDeviation(out, []int{0, 1}); err == nil {
			t.Errorf("MaxShares %v: CoalitionDeviation accepted the box", box)
		}
		we, err := NewWelfareEvaluator(fed, Memoize(inner), UF0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := we.MaximizeWelfareAt(0.4, AlphaUtilitarian, box, nil); err == nil {
			t.Errorf("MaxShares %v: MaximizeWelfareAt accepted the box", box)
		}
		we.Prime(context.Background(), box, 4)
		if n := inner.solves.Load(); n != 0 {
			t.Errorf("MaxShares %v: %d solves, want none", box, n)
		}
	}
}

func TestGameMultiStart(t *testing.T) {
	fed := toyFederation(0.4)
	g := &Game{Federation: fed, Evaluator: Memoize(newToyEvaluator(t, fed)), Gamma: UF0}
	out, err := g.RunMultiStart([][]int{{0, 0, 0}, {1, 1, 1}, {5, 5, 5}}, AlphaUtilitarian)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || !out.Converged {
		t.Fatal("multi-start returned no converged outcome")
	}
}

func TestMemoizeCaches(t *testing.T) {
	calls := 0
	ev := Memoize(allTargets{EvaluatorFunc(func(shares []int, target int) (cloud.Metrics, error) {
		calls++
		return cloud.Metrics{}, nil
	})})
	for i := 0; i < 3; i++ {
		if _, err := ev.Evaluate([]int{1, 2}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ev.Evaluate([]int{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	// Key must distinguish (12) from (1,2)-style collisions.
	if _, err := ev.Evaluate([]int{12}, 0); err != nil {
		t.Fatal(err)
	}
	// One solve of (1,2) asks for both SCs, one of (12) for its one SC.
	if calls != 3 {
		t.Errorf("underlying evaluator called %d times, want 3", calls)
	}
}

func TestWelfareEvaluatorAndPlanner(t *testing.T) {
	fed := toyFederation(0.3)
	we, err := NewWelfareEvaluator(fed, Memoize(newToyEvaluator(t, fed)), UF0)
	if err != nil {
		t.Fatal(err)
	}
	us, err := we.Utilities([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 3 {
		t.Fatalf("utilities: %v", us)
	}
	bestShares, bestW, err := we.MaximizeWelfare(AlphaUtilitarian, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(bestW, -1) {
		t.Fatal("planner found no finite-welfare allocation")
	}
	// The planner's optimum cannot be worse than an arbitrary allocation.
	w, err := we.Welfare(AlphaUtilitarian, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if bestW < w {
		t.Errorf("planner welfare %v below sample %v (shares %v)", bestW, w, bestShares)
	}
}

func TestWelfareEvaluatorValidation(t *testing.T) {
	fed := toyFederation(0.3)
	ev := newToyEvaluator(t, fed)
	if _, err := NewWelfareEvaluator(fed, ev, 5); err != ErrBadGamma {
		t.Errorf("bad gamma: %v", err)
	}
	we, err := NewWelfareEvaluator(fed, ev, UF0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := we.Utilities([]int{1}); err == nil {
		t.Error("bad share vector accepted")
	}
}

// The repeated game on an exact tiny federation: verifies the market and
// performance models compose end to end and the outcome is a true
// equilibrium of the exact model.
func TestGameWithExactModel(t *testing.T) {
	if testing.Short() {
		t.Skip("exact-model game is slow")
	}
	fed := cloud.Federation{
		SCs: []cloud.SC{
			{Name: "hot", VMs: 3, ArrivalRate: 2.6, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "cold", VMs: 3, ArrivalRate: 1.2, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
		FederationPrice: 0.3,
	}
	g := &Game{
		Federation: fed,
		Evaluator:  Memoize(ExactEvaluator(fed)),
		Gamma:      UF0,
		MaxRounds:  30,
	}
	out, err := g.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := g.IsEquilibrium(out, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("exact-model outcome %v is not an equilibrium", out.Shares)
	}
	// The cold SC should be willing to share at this price.
	if out.Shares[1] == 0 {
		t.Errorf("cold SC shares nothing: %v", out.Shares)
	}
}

func TestWithParticipation(t *testing.T) {
	fed := toyFederation(0.4)
	calls := 0
	ev := WithParticipation(fed, func(sub cloud.Federation) Evaluator {
		calls++
		return newToyEvaluator(t, sub)
	})
	if calls != 0 {
		t.Fatalf("construction built %d evaluators, want none", calls)
	}
	// A non-contributor gets its standalone baseline: no federation flows.
	m, err := ev.Evaluate([]int{0, 3, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.BorrowRate != 0 || m.LendRate != 0 {
		t.Errorf("free rider has federation flows: %+v", m)
	}
	// A contributor is evaluated on the contributor sub-federation.
	m, err = ev.Evaluate([]int{0, 3, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.LendRate <= 0 {
		t.Errorf("contributor lends nothing: %+v", m)
	}
	if calls != 1 {
		t.Errorf("sub-evaluators built: %d, want 1 (the contributor set)", calls)
	}
	// A lone contributor is effectively standalone.
	m, err = ev.Evaluate([]int{0, 3, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.BorrowRate != 0 || m.LendRate != 0 {
		t.Errorf("lone contributor has flows: %+v", m)
	}
	// Sub-federations are cached per participant set.
	if _, err := ev.Evaluate([]int{0, 4, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("participant-set cache miss: %d evaluator builds", calls)
	}
	// The all-contributors set is a set of its own.
	if _, err := ev.Evaluate([]int{1, 1, 1}, 0); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("sub-evaluators built: %d, want 2 (two participant sets)", calls)
	}
}
