package profiles

import (
	"errors"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/fluid"
	"scshare/internal/market"
)

func twoProfiles() []Profile {
	general := cloud.Federation{
		SCs: []cloud.SC{
			{Name: "a", VMs: 10, ArrivalRate: 8, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "b", VMs: 10, ArrivalRate: 4, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
		FederationPrice: 0.4,
	}
	gpu := cloud.Federation{
		SCs: []cloud.SC{
			{Name: "a", VMs: 4, ArrivalRate: 3, ServiceRate: 1, SLA: 0.5, PublicPrice: 3},
			{Name: "b", VMs: 4, ArrivalRate: 1, ServiceRate: 1, SLA: 0.5, PublicPrice: 3},
		},
		FederationPrice: 1.5,
	}
	return []Profile{{Name: "general", Federation: general}, {Name: "gpu", Federation: gpu}}
}

func fluidEval(p Profile, shares []int, target int) (cloud.Metrics, error) {
	return fluid.NewEvaluator(p.Federation).Evaluate(shares, target)
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(nil); !errors.Is(err, ErrNoProfiles) {
		t.Errorf("empty set: %v", err)
	}
	ps := twoProfiles()
	ps[1].Federation.SCs = ps[1].Federation.SCs[:1]
	if _, err := NewSet(ps); !errors.Is(err, ErrInconsistent) {
		t.Errorf("inconsistent set: %v", err)
	}
	bad := twoProfiles()
	bad[0].Federation.SCs[0].VMs = 0
	if _, err := NewSet(bad); err == nil {
		t.Error("invalid federation accepted")
	}
}

func TestEvaluateAggregatesCosts(t *testing.T) {
	set, err := NewSet(twoProfiles())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := set.Evaluate([][]int{{2, 4}, {1, 2}}, fluidEval)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerProfile) != 2 || len(rep.TotalCost) != 2 {
		t.Fatalf("report shape: %+v", rep)
	}
	for i, total := range rep.TotalCost {
		sum := 0.0
		for pi, p := range set.Profiles {
			sum += rep.PerProfile[pi][i].NetCost(
				p.Federation.SCs[i].PublicPrice, p.Federation.FederationPrice)
		}
		if sum != total {
			t.Errorf("SC %d: total %v != per-profile sum %v", i, total, sum)
		}
	}
	if _, err := set.Evaluate([][]int{{2, 4}}, fluidEval); err == nil {
		t.Error("short share matrix accepted")
	}
	if _, err := set.Evaluate([][]int{{2, 99}, {1, 2}}, fluidEval); err == nil {
		t.Error("invalid shares accepted")
	}
}

func TestNegotiatePerProfileEquilibria(t *testing.T) {
	set, err := NewSet(twoProfiles())
	if err != nil {
		t.Fatal(err)
	}
	rep, outs, err := set.Negotiate(func(p Profile) *market.Game {
		return &market.Game{
			Federation: p.Federation,
			Evaluator:  market.Memoize(market.EvaluatorFunc(fluid.NewEvaluator(p.Federation).Evaluate)),
			Gamma:      market.UF0,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("%d outcomes", len(outs))
	}
	for pi, out := range outs {
		if !out.Converged {
			t.Errorf("profile %d did not converge", pi)
		}
	}
	// The general profile carries the load imbalance: the cold SC should
	// lend there.
	if rep.PerProfile[0][1].LendRate <= 0 {
		t.Errorf("cold SC lends nothing on the general profile: %+v", rep.PerProfile[0][1])
	}
}
