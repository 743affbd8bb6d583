package fluid

import (
	"math"
	"testing"
	"testing/quick"

	"scshare/internal/cloud"
	"scshare/internal/sim"
)

func fed3() cloud.Federation {
	return cloud.Federation{
		SCs: []cloud.SC{
			{Name: "hot", VMs: 10, ArrivalRate: 9, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "warm", VMs: 10, ArrivalRate: 7, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "cold", VMs: 10, ArrivalRate: 4, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
		FederationPrice: 0.5,
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(cloud.Federation{}, nil); err == nil {
		t.Error("empty federation accepted")
	}
	if _, err := Solve(fed3(), []int{1}); err == nil {
		t.Error("short share vector accepted")
	}
}

func TestConservation(t *testing.T) {
	ms, err := Solve(fed3(), []int{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	lend, borrow := 0.0, 0.0
	for _, m := range ms {
		lend += m.LendRate
		borrow += m.BorrowRate
	}
	if math.Abs(lend-borrow) > 1e-6 {
		t.Errorf("lend %v != borrow %v", lend, borrow)
	}
}

func TestZeroSharesNoFlows(t *testing.T) {
	ms, err := Solve(fed3(), []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if m.LendRate != 0 || m.BorrowRate != 0 {
			t.Errorf("SC %d has flows with zero shares: %+v", i, m)
		}
		if m.ForwardProb <= 0 && i == 0 {
			t.Error("hot SC forwards nothing without federation")
		}
	}
}

func TestSharingReducesForwarding(t *testing.T) {
	alone, err := Solve(fed3(), []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Solve(fed3(), []int{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if shared[0].ForwardProb >= alone[0].ForwardProb {
		t.Errorf("sharing did not reduce forwarding: %v >= %v",
			shared[0].ForwardProb, alone[0].ForwardProb)
	}
	if shared[2].LendRate <= shared[0].LendRate {
		t.Errorf("cold SC should lend more than hot: %v <= %v",
			shared[2].LendRate, shared[0].LendRate)
	}
}

// Rough agreement with the simulator at moderate load: the fluid model is
// coarse by design, so tolerances are wide.
func TestRoughAgreementWithSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fed := fed3()
	shares := []int{2, 2, 4}
	ms, err := Solve(fed, shares)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Federation: fed, Shares: shares, Horizon: 40000, Warmup: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fed.SCs {
		if d := math.Abs(ms[i].Utilization - res.Metrics[i].Utilization); d > 0.08 {
			t.Errorf("SC %d utilization off by %v (fluid %v, sim %v)",
				i, d, ms[i].Utilization, res.Metrics[i].Utilization)
		}
		if d := math.Abs(ms[i].ForwardProb - res.Metrics[i].ForwardProb); d > 0.08 {
			t.Errorf("SC %d forward prob off by %v (fluid %v, sim %v)",
				i, d, ms[i].ForwardProb, res.Metrics[i].ForwardProb)
		}
	}
}

// Metrics stay in their physical ranges for arbitrary share vectors.
func TestMetricsRangeProperty(t *testing.T) {
	fed := fed3()
	f := func(a, b, c uint8) bool {
		shares := []int{int(a) % 11, int(b) % 11, int(c) % 11}
		ms, err := Solve(fed, shares)
		if err != nil {
			return false
		}
		for i, m := range ms {
			if m.Utilization < 0 || m.Utilization > 1 {
				return false
			}
			if m.ForwardProb < 0 || m.ForwardProb > 1 {
				return false
			}
			if m.LendRate < 0 || m.LendRate > float64(shares[i])+1e-9 {
				return false
			}
			if m.BorrowRate < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateAdapter(t *testing.T) {
	m, err := NewEvaluator(fed3()).Evaluate([]int{1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization <= 0 {
		t.Errorf("metrics %+v", m)
	}
}
