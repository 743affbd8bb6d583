package core

import (
	"errors"
	"math"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/market"
	"scshare/internal/queueing"
)

func tinyFed() cloud.Federation {
	return cloud.Federation{
		SCs: []cloud.SC{
			{Name: "hot", VMs: 3, ArrivalRate: 2.6, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "cold", VMs: 3, ArrivalRate: 1.2, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
		FederationPrice: 0.3,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Federation: tinyFed(), Gamma: 7}); err != market.ErrBadGamma {
		t.Errorf("bad gamma: %v", err)
	}
	if _, err := New(Config{Federation: tinyFed(), Model: ModelKind(99)}); err == nil {
		t.Error("unknown model kind accepted")
	}
}

// fourVMFed is three 4-VM SCs, the federation the strategy-box checks
// run on.
func fourVMFed() cloud.Federation {
	fed := cloud.Federation{FederationPrice: 0.4}
	for _, lambda := range []float64{3, 2.5, 2} {
		fed.SCs = append(fed.SCs, cloud.SC{VMs: 4, ArrivalRate: lambda, ServiceRate: 1, SLA: 0.2, PublicPrice: 1})
	}
	return fed
}

// TestNewRejectsBadMaxShares: a MaxShares of the wrong length or with an
// entry outside [0, VMs] fails New, where the games and the planner would
// otherwise index past a strategy line or fail only mid-game; a valid box
// still plays.
func TestNewRejectsBadMaxShares(t *testing.T) {
	for _, box := range [][]int{{2, 2}, {-1, 2, 2}, {9, 2, 2}} {
		if f, err := New(Config{Federation: fourVMFed(), Model: ModelFluid, MaxShares: box}); err == nil || f != nil {
			t.Errorf("MaxShares %v: New = (%v, %v), want an error", box, f, err)
		}
	}
	f, err := New(Config{Federation: fourVMFed(), Model: ModelFluid, MaxShares: []int{0, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Equilibrium(nil, market.AlphaUtilitarian); err != nil && !errors.Is(err, market.ErrNoEquilibrium) {
		t.Fatal(err)
	}
}

// TestBaselinesMatchQueueingModel pins the baselines New solves once to
// the no-sharing model bit for bit: Framework.Baselines, and the C^0 and
// rho^0 every framework game reports, equal queueing.Solve's values.
func TestBaselinesMatchQueueingModel(t *testing.T) {
	f, err := New(Config{Federation: tinyFed(), Model: ModelFluid})
	if err != nil {
		t.Fatal(err)
	}
	bs := f.Baselines()
	out, err := f.Equilibrium(nil, market.AlphaUtilitarian)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, sc := range tinyFed().SCs {
		ref, err := queueing.Solve(sc)
		if err != nil {
			t.Fatal(err)
		}
		cost, util := ref.BaselineCost(), ref.Metrics().Utilization
		if !same(bs[i].Cost, cost) || !same(out.BaselineCosts[i], cost) {
			t.Errorf("SC %d cost %v (game %v), want %v", i, bs[i].Cost, out.BaselineCosts[i], cost)
		}
		if !same(bs[i].Utilization, util) || !same(out.BaselineUtils[i], util) {
			t.Errorf("SC %d utilization %v (game %v), want %v", i, bs[i].Utilization, out.BaselineUtils[i], util)
		}
		if !same(bs[i].ForwardProb, ref.Metrics().ForwardProb) {
			t.Errorf("SC %d forward probability %v, want %v", i, bs[i].ForwardProb, ref.Metrics().ForwardProb)
		}
	}
	// Baselines that do not match the federation are a caller error.
	g := &market.Game{
		Federation: tinyFed(),
		Evaluator:  f.Evaluator(),
		Baselines:  make([]cloud.Metrics, len(tinyFed().SCs)+1),
	}
	if _, err := g.Run(nil); err == nil {
		t.Error("game accepted 3 baselines for 2 SCs")
	}
}

func TestEquilibriumWithExactModel(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	f, err := New(Config{Federation: tinyFed(), Model: ModelExact, Gamma: market.UF0})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Equilibrium(nil, market.AlphaUtilitarian)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("no equilibrium")
	}
	if out.Shares[1] == 0 {
		t.Errorf("cold SC shares nothing at a cheap price: %v", out.Shares)
	}
}

func TestSweepPrices(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	f, err := New(Config{
		Federation: tinyFed(),
		Model:      ModelExact,
		Gamma:      market.UF0,
		MaxShares:  []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ratios := []float64{0.2, 0.6, 0.95}
	alphas := []float64{market.AlphaUtilitarian, market.AlphaMaxMin}
	pts, err := f.SweepPrices(ratios, alphas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(ratios) {
		t.Fatalf("got %d points", len(pts))
	}
	for _, pt := range pts {
		if len(pt.Efficiency) != len(alphas) {
			t.Fatalf("ratio %v: efficiency %v", pt.Ratio, pt.Efficiency)
		}
		for _, e := range pt.Efficiency {
			if e < 0 || e > 1 || math.IsNaN(e) {
				t.Errorf("ratio %v: efficiency %v out of range", pt.Ratio, e)
			}
		}
		if pt.Price != pt.Ratio*1.0 {
			t.Errorf("ratio %v: price %v", pt.Ratio, pt.Price)
		}
	}
	// At a cheap federation price the equilibrium must involve sharing.
	total := 0
	for _, s := range pts[0].Shares {
		total += s
	}
	if total == 0 {
		t.Error("no sharing at the cheapest price point")
	}
}

func TestSweepValidation(t *testing.T) {
	f, err := New(Config{Federation: tinyFed(), Model: ModelExact})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SweepPrices(nil, []float64{0}, nil); err == nil {
		t.Error("empty ratios accepted")
	}
	if _, err := f.SweepPrices([]float64{0.5}, nil, nil); err == nil {
		t.Error("empty alphas accepted")
	}
}

func TestSimModelEvaluator(t *testing.T) {
	f, err := New(Config{
		Federation: tinyFed(),
		Model:      ModelSim,
		SimHorizon: 4000,
		SimSeed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Evaluator().Evaluate([]int{1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Errorf("sim utilization %v", m.Utilization)
	}
}
