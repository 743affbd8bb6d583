package exact

import (
	"math"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/numeric"
	"scshare/internal/queueing"
	"scshare/internal/sim"
)

func fed2(lambda1, lambda2 float64) cloud.Federation {
	return cloud.Federation{
		SCs: []cloud.SC{
			{Name: "a", VMs: 5, ArrivalRate: lambda1, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "b", VMs: 5, ArrivalRate: lambda2, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
		FederationPrice: 0.5,
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Solve(Config{Federation: fed2(3, 3), Shares: []int{9, 0}}); err == nil {
		t.Error("oversized share accepted")
	}
}

// With K=1 the detailed model degenerates to the no-sharing chain of
// Sect. III-A and must agree with its product-form solution.
func TestSingleSCMatchesNoSharingModel(t *testing.T) {
	sc := cloud.SC{Name: "solo", VMs: 5, ArrivalRate: 4, ServiceRate: 1, SLA: 0.2, PublicPrice: 1}
	m, err := Solve(Config{
		Federation: cloud.Federation{SCs: []cloud.SC{sc}, FederationPrice: 0.5},
		Shares:     []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := queueing.Solve(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, want := m.Metrics(0), ref.Metrics()
	if numeric.RelErr(got.ForwardProb, want.ForwardProb, 1e-9) > 1e-6 {
		t.Errorf("forward prob %v, want %v", got.ForwardProb, want.ForwardProb)
	}
	if numeric.RelErr(got.Utilization, want.Utilization, 1e-9) > 1e-6 {
		t.Errorf("utilization %v, want %v", got.Utilization, want.Utilization)
	}
}

// Zero shares decouple the SCs: each must match its own no-sharing model.
func TestZeroSharesDecouple(t *testing.T) {
	fed := fed2(4, 2)
	m, err := Solve(Config{Federation: fed, Shares: []int{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range fed.SCs {
		ref, err := queueing.Solve(sc)
		if err != nil {
			t.Fatal(err)
		}
		got, want := m.Metrics(i), ref.Metrics()
		if numeric.RelErr(got.ForwardProb, want.ForwardProb, 1e-9) > 1e-5 {
			t.Errorf("SC %d forward prob %v, want %v", i, got.ForwardProb, want.ForwardProb)
		}
		if got.LendRate != 0 || got.BorrowRate != 0 {
			t.Errorf("SC %d has federation flows: %+v", i, got)
		}
	}
}

// Exact identity: sum_i I-bar_i == sum_i O-bar_i, because both aggregate
// the same E[s_{i,j}] terms.
func TestLendBorrowIdentity(t *testing.T) {
	m, err := Solve(Config{Federation: fed2(4.5, 2), Shares: []int{2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	lend, borrow := 0.0, 0.0
	for i := 0; i < 2; i++ {
		lend += m.Metrics(i).LendRate
		borrow += m.Metrics(i).BorrowRate
	}
	if math.Abs(lend-borrow) > 1e-9 {
		t.Errorf("lend %v != borrow %v", lend, borrow)
	}
}

// The headline cross-validation: detailed CTMC vs the discrete-event
// simulator on a 2-SC federation with asymmetric load.
func TestMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	fed := fed2(4.5, 2.5)
	shares := []int{2, 3}
	m, err := Solve(Config{Federation: fed, Shares: shares})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Federation: fed, Shares: shares, Horizon: 200000, Warmup: 5000, Seed: 123,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, want := m.Metrics(i), res.Metrics[i]
		if math.Abs(got.Utilization-want.Utilization) > 0.01 {
			t.Errorf("SC %d utilization: ctmc %v, sim %v", i, got.Utilization, want.Utilization)
		}
		if math.Abs(got.LendRate-want.LendRate) > 0.05 {
			t.Errorf("SC %d lend rate: ctmc %v, sim %v", i, got.LendRate, want.LendRate)
		}
		if math.Abs(got.BorrowRate-want.BorrowRate) > 0.05 {
			t.Errorf("SC %d borrow rate: ctmc %v, sim %v", i, got.BorrowRate, want.BorrowRate)
		}
		if math.Abs(got.ForwardProb-want.ForwardProb) > 0.01 {
			t.Errorf("SC %d forward prob: ctmc %v, sim %v", i, got.ForwardProb, want.ForwardProb)
		}
	}
}

// Sharing must cut the loaded SC's forwarding versus the no-sharing
// baseline (the federation's raison d'etre).
func TestSharingReducesForwarding(t *testing.T) {
	fed := fed2(4.5, 1.5)
	alone, err := Solve(Config{Federation: fed, Shares: []int{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Solve(Config{Federation: fed, Shares: []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Metrics(0).ForwardProb >= alone.Metrics(0).ForwardProb {
		t.Errorf("sharing did not reduce forwarding: %v >= %v",
			shared.Metrics(0).ForwardProb, alone.Metrics(0).ForwardProb)
	}
	if shared.Metrics(1).LendRate <= 0 {
		t.Error("cold SC lends nothing")
	}
}

func TestMetricsInRange(t *testing.T) {
	m, err := Solve(Config{Federation: fed2(4, 4), Shares: []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		g := m.Metrics(i)
		if g.Utilization < 0 || g.Utilization > 1 {
			t.Errorf("SC %d utilization %v", i, g.Utilization)
		}
		if g.ForwardProb < 0 || g.ForwardProb > 1 {
			t.Errorf("SC %d forward prob %v", i, g.ForwardProb)
		}
		if g.LendRate < 0 || g.LendRate > float64(2) {
			t.Errorf("SC %d lend %v outside [0,S]", i, g.LendRate)
		}
		if g.BorrowRate < 0 {
			t.Errorf("SC %d borrow %v", i, g.BorrowRate)
		}
	}
	if m.NumStates() == 0 {
		t.Error("no states enumerated")
	}
	if got := m.AllMetrics(); len(got) != 2 {
		t.Errorf("AllMetrics length %d", len(got))
	}
}

func TestStateSpaceSizeGrowsExponentially(t *testing.T) {
	mk := func(k int) (cloud.Federation, []int) {
		fed := cloud.Federation{FederationPrice: 0.5}
		shares := make([]int, k)
		for i := 0; i < k; i++ {
			fed.SCs = append(fed.SCs, cloud.SC{
				VMs: 10, ArrivalRate: 7, ServiceRate: 1, SLA: 0.2, PublicPrice: 1,
			})
			shares[i] = 5
		}
		return fed, shares
	}
	fed2x, sh2 := mk(2)
	fed10, sh10 := mk(10)
	small := StateSpaceSize(fed2x, sh2)
	big := StateSpaceSize(fed10, sh10)
	if big < 1e9 {
		t.Errorf("10-SC detailed model should exceed 1e9 states (paper: ~9e9), got %v", big)
	}
	if small > 1e7 {
		t.Errorf("2-SC detailed model unexpectedly large: %v", small)
	}
}

func TestCompositions(t *testing.T) {
	// Vectors of length 2 with sum <= 3: C(5,2) = 10.
	if got := compositions(3, 2); got != 10 {
		t.Errorf("compositions(3,2) = %v", got)
	}
	if got := compositions(5, 0); got != 1 {
		t.Errorf("compositions(5,0) = %v", got)
	}
}

// Heterogeneous service rates: a job's completion rate follows the VM's
// host. The detailed CTMC and the simulator must agree on this too.
func TestHeterogeneousServiceRates(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fed := cloud.Federation{
		SCs: []cloud.SC{
			{Name: "fast", VMs: 4, ArrivalRate: 3.5, ServiceRate: 1.5, SLA: 0.2, PublicPrice: 1},
			{Name: "slow", VMs: 5, ArrivalRate: 2.0, ServiceRate: 0.8, SLA: 0.3, PublicPrice: 1},
		},
		FederationPrice: 0.5,
	}
	shares := []int{2, 2}
	m, err := Solve(Config{Federation: fed, Shares: shares})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Federation: fed, Shares: shares, Horizon: 150000, Warmup: 3000, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, want := m.Metrics(i), res.Metrics[i]
		if math.Abs(got.Utilization-want.Utilization) > 0.015 {
			t.Errorf("SC %d utilization: ctmc %v, sim %v", i, got.Utilization, want.Utilization)
		}
		if math.Abs(got.LendRate-want.LendRate) > 0.05 {
			t.Errorf("SC %d lend: ctmc %v, sim %v", i, got.LendRate, want.LendRate)
		}
		if math.Abs(got.ForwardProb-want.ForwardProb) > 0.015 {
			t.Errorf("SC %d forward: ctmc %v, sim %v", i, got.ForwardProb, want.ForwardProb)
		}
	}
}
