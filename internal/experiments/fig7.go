package experiments

import (
	"fmt"

	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/core"
	"scshare/internal/market"
)

// Fig7Scenario names one of the paper's 3-SC market scenarios.
type Fig7Scenario struct {
	// ID matches the paper's subfigure (7a..7d).
	ID string
	// Utils are the offered utilizations of the three SCs.
	Utils []float64
	// Gamma selects the utility family (UF0 or UF1).
	Gamma float64
}

// PaperFig7Scenarios returns the four configurations of Fig. 7.
func PaperFig7Scenarios() []Fig7Scenario {
	return []Fig7Scenario{
		{ID: "fig7a", Utils: []float64{0.58, 0.73, 0.84}, Gamma: market.UF0},
		{ID: "fig7b", Utils: []float64{0.58, 0.73, 0.84}, Gamma: market.UF1},
		{ID: "fig7c", Utils: []float64{0.73, 0.79, 0.84}, Gamma: market.UF0},
		{ID: "fig7d", Utils: []float64{0.49, 0.58, 0.66}, Gamma: market.UF1},
	}
}

// Fig7Options parameterizes the market-efficiency price sweeps.
type Fig7Options struct {
	Scenario Fig7Scenario
	// VMs per SC (paper: 10) and the SLA (paper: 0.2).
	VMs int
	SLA float64
	// Ratios is the swept C^G/C^P grid.
	Ratios []float64
	// MaxShare caps the per-SC strategy space; the paper allows all 10
	// VMs, but equilibria concentrate on small shares, so a lower cap
	// preserves the shape at a fraction of the cost.
	MaxShare int
	// Model selects the performance model (default core.ModelApprox, the
	// paper's configuration; core.ModelFluid gives a fast preview).
	Model core.ModelKind
	// Approx tunes the approximate model when it is selected.
	Approx approx.Config
}

func (o *Fig7Options) defaults() {
	if o.VMs == 0 {
		o.VMs = 10
	}
	if o.SLA == 0 {
		o.SLA = 0.2
	}
	if o.Ratios == nil {
		o.Ratios = seq(0.1, 1.0, 0.1)
	}
	if o.MaxShare == 0 {
		o.MaxShare = o.VMs
	}
	if o.Model == 0 {
		o.Model = core.ModelApprox
	}
	if o.Model == core.ModelApprox && o.Approx.Prune == 0 && o.Approx.PoolCap == 0 && o.Approx.Passes == 0 {
		// The sweep evaluates hundreds of share vectors, so the default
		// approximate-model configuration trades a little accuracy for a
		// tractable per-solve cost: one hierarchy pass, aggressive atom
		// pruning, and a tight usage cap (the 3-SC scenarios never hold
		// more than a few shared VMs at once).
		o.Approx.Passes = 1
		o.Approx.Prune = 1e-4
		o.Approx.PoolCap = 4
	}
}

// Fig7 reproduces one subfigure of Fig. 7: federation efficiency (achieved
// alpha-fair welfare over the empirical market-efficient welfare) versus
// the price ratio C^G/C^P, for the utilitarian, proportional, and max-min
// welfare metrics.
func Fig7(opts Fig7Options) (Figure, error) {
	opts.defaults()
	sc := opts.Scenario
	if len(sc.Utils) == 0 {
		return Figure{}, fmt.Errorf("fig7: scenario %q has no utilizations", sc.ID)
	}
	fed := cloud.Federation{}
	maxShares := make([]int, len(sc.Utils))
	for i, u := range sc.Utils {
		fed.SCs = append(fed.SCs, cloud.SC{
			Name:        fmt.Sprintf("sc%d", i),
			VMs:         opts.VMs,
			ArrivalRate: u * float64(opts.VMs),
			ServiceRate: 1,
			SLA:         opts.SLA,
			PublicPrice: 1,
		})
		maxShares[i] = opts.MaxShare
	}
	f, err := core.New(core.Config{
		Federation: fed,
		Model:      opts.Model,
		Gamma:      sc.Gamma,
		MaxShares:  maxShares,
		Approx:     opts.Approx,
	})
	if err != nil {
		return Figure{}, fmt.Errorf("fig7: %w", err)
	}
	alphas := []float64{market.AlphaUtilitarian, market.AlphaProportional, market.AlphaMaxMin}
	// The sweep runs at GOMAXPROCS, merging in ratio order, and chains each
	// point's game from its grid neighbor's equilibrium like the paper's
	// Tatonnement continuation.
	pts, err := f.Sweep(opts.Ratios, alphas, nil, core.SweepOptions{WarmStart: true})
	if err != nil {
		return Figure{}, fmt.Errorf("fig7: %w", err)
	}
	fig := Figure{
		ID:     sc.ID,
		Title:  fmt.Sprintf("3-SC market, rho=%v, gamma=%v", sc.Utils, sc.Gamma),
		XLabel: "C^G/C^P",
		YLabel: "federation efficiency",
		Series: []Series{
			{Name: "utilitarian"},
			{Name: "proportional"},
			{Name: "max-min"},
		},
	}
	shares := Series{Name: "total shared VMs"}
	for _, pt := range pts {
		for ai := range alphas {
			fig.Series[ai].X = append(fig.Series[ai].X, pt.Ratio)
			fig.Series[ai].Y = append(fig.Series[ai].Y, pt.Efficiency[ai])
		}
		total := 0
		for _, s := range pt.Shares {
			total += s
		}
		shares.X = append(shares.X, pt.Ratio)
		shares.Y = append(shares.Y, float64(total))
	}
	fig.Series = append(fig.Series, shares)
	return fig, nil
}
