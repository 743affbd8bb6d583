package core

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"scshare/internal/approx"
	"scshare/internal/market"
)

func TestAdviseSummarizesEquilibrium(t *testing.T) {
	f, err := New(Config{Federation: tinyFed(), Model: ModelFluid, Gamma: market.UF0})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := f.Advise(nil, market.AlphaUtilitarian)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Converged {
		t.Fatal("no equilibrium")
	}
	if adv.PriceRatio != 0.3 {
		t.Errorf("price ratio %v", adv.PriceRatio)
	}
	if len(adv.SCs) != 2 {
		t.Fatalf("%d SC entries", len(adv.SCs))
	}
	for _, sc := range adv.SCs {
		if sc.SavingPerSec != sc.BaselineCostPerSec-sc.CostPerSec {
			t.Errorf("%s: saving %v inconsistent", sc.Name, sc.SavingPerSec)
		}
		if sc.Join && sc.Share == 0 {
			t.Errorf("%s: joined without sharing", sc.Name)
		}
	}
	// The advice is the JSON artifact the CLI emits.
	data, err := json.Marshal(adv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"savingPerSec"`) {
		t.Errorf("JSON missing fields: %s", data)
	}
}

func TestSensitivityMargins(t *testing.T) {
	f, err := New(Config{Federation: tinyFed(), Model: ModelFluid, Gamma: market.UF0})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Equilibrium(nil, market.AlphaUtilitarian)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := f.Sensitivity(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) != 2 {
		t.Fatalf("%d entries", len(sens))
	}
	// At an equilibrium, neighboring deviations cannot beat the utility.
	for i, pair := range sens {
		for _, u := range pair {
			if math.IsInf(u, -1) {
				continue // deviation outside the strategy space
			}
			if u > out.Utilities[i]+1e-9 {
				t.Errorf("SC %d: neighbor utility %v beats equilibrium %v", i, u, out.Utilities[i])
			}
		}
	}
}

// warmAdviseAllocBudget caps the allocations of one warm AdviseAt on the
// Fig. 7a federation. With every metric cached the game only looks up, so
// what remains is the per-call game, outcome and advice bookkeeping; a
// per-run baseline solve or a per-probe key or trial vector overruns it.
const warmAdviseAllocBudget = 120

// TestWarmAdviseAllocBudget pins the warm advice path to lookups: on the
// Fig. 7a federation under the approximate model with shares capped at 4,
// once a price grid has been advised, a further AdviseAt on that grid stays
// within warmAdviseAllocBudget allocations.
func TestWarmAdviseAllocBudget(t *testing.T) {
	f, err := New(Config{
		Federation: fig7aFed(),
		Gamma:      market.UF0,
		MaxShares:  []int{4, 4, 4},
		Approx:     approx.Config{Passes: 1, Prune: 1e-4, PoolCap: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var prices []float64
	for c := 5; c < 100; c += 10 {
		prices = append(prices, float64(c)/100)
	}
	for _, p := range prices {
		if _, err := f.AdviseAt(ctx, p, nil, market.AlphaUtilitarian); err != nil {
			t.Fatalf("warm-up at price %v: %v", p, err)
		}
	}
	call := 0
	allocs := testing.AllocsPerRun(2*len(prices), func() {
		p := prices[call%len(prices)]
		call++
		if _, err := f.AdviseAt(ctx, p, nil, market.AlphaUtilitarian); err != nil {
			t.Fatalf("price %v: %v", p, err)
		}
	})
	t.Logf("warm AdviseAt: %v allocs/call", allocs)
	if allocs > warmAdviseAllocBudget {
		t.Errorf("warm AdviseAt: %v allocs/call, budget %d", allocs, warmAdviseAllocBudget)
	}
}
