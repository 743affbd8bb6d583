package experiments

import (
	"fmt"
	"time"

	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/exact"
	"scshare/internal/fluid"
	"scshare/internal/market"
)

// Fig8aOptions parameterizes the performance-model cost sweep.
type Fig8aOptions struct {
	// Ks is the federation-size grid (paper: 2..10).
	Ks []int
	// VMs per SC (paper: 10), share per SC (paper: 2), and load.
	VMs    int
	Share  int
	Lambda float64
	SLA    float64
}

func (o *Fig8aOptions) defaults() {
	if o.Ks == nil {
		o.Ks = []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if o.VMs == 0 {
		o.VMs = 10
	}
	if o.Share == 0 {
		o.Share = 2
	}
	if o.Lambda == 0 {
		o.Lambda = 7
	}
	if o.SLA == 0 {
		o.SLA = 0.2
	}
}

// Fig8a reproduces Fig. 8a: the wall-clock time of the approximate model
// as the federation grows, next to the state counts that make the point —
// the hierarchy's total states versus the detailed model's exponential
// state space.
func Fig8a(opts Fig8aOptions) (Figure, error) {
	opts.defaults()
	fig := Figure{
		ID:     "fig8a",
		Title:  "Approximate-model computation cost vs federation size",
		XLabel: "SCs",
		YLabel: "seconds / states",
		Series: []Series{
			{Name: "approx seconds"},
			{Name: "approx states"},
			{Name: "detailed states"},
		},
	}
	for _, k := range opts.Ks {
		fed := cloud.Federation{}
		shares := make([]int, k)
		for i := 0; i < k; i++ {
			fed.SCs = append(fed.SCs, cloud.SC{
				Name: fmt.Sprintf("sc%d", i), VMs: opts.VMs,
				ArrivalRate: opts.Lambda, ServiceRate: 1, SLA: opts.SLA, PublicPrice: 1,
			})
			shares[i] = opts.Share
		}
		start := time.Now()
		solver, err := approx.NewSolver(approx.Config{Federation: fed, Shares: shares})
		if err != nil {
			return Figure{}, fmt.Errorf("fig8a: K=%d: %w", k, err)
		}
		m, err := solver.Solve(k - 1)
		if err != nil {
			return Figure{}, fmt.Errorf("fig8a: K=%d: %w", k, err)
		}
		elapsed := time.Since(start).Seconds()
		fig.Series[0].X = append(fig.Series[0].X, float64(k))
		fig.Series[0].Y = append(fig.Series[0].Y, elapsed)
		fig.Series[1].X = append(fig.Series[1].X, float64(k))
		fig.Series[1].Y = append(fig.Series[1].Y, float64(m.TotalStates()))
		fig.Series[2].X = append(fig.Series[2].X, float64(k))
		fig.Series[2].Y = append(fig.Series[2].Y, exact.StateSpaceSize(fed, shares))
	}
	return fig, nil
}

// Fig8bOptions parameterizes the game-cost sweep.
type Fig8bOptions struct {
	// Ks is the federation-size grid (paper: 2..8, 100 VMs each).
	Ks  []int
	VMs int
	// Utils cycles over the SCs' offered utilizations.
	Utils []float64
	SLA   float64
	// TabuDistances yields one series per search distance.
	TabuDistances []int
	Gamma         float64
	// Workers bounds each game's best-response worker pool (market.Game
	// Workers): 0 keeps the serial rounds, so recorded rounds/evals match
	// the paper's sequential Algorithm 1 by default.
	Workers int
}

func (o *Fig8bOptions) defaults() {
	if o.Ks == nil {
		o.Ks = []int{2, 3, 4, 5, 6, 7, 8}
	}
	if o.VMs == 0 {
		o.VMs = 100
	}
	if o.Utils == nil {
		o.Utils = []float64{0.85, 0.7, 0.6, 0.8, 0.65, 0.75, 0.9, 0.55}
	}
	if o.SLA == 0 {
		o.SLA = 0.2
	}
	if o.TabuDistances == nil {
		o.TabuDistances = []int{1, 2, 4}
	}
}

// Fig8b reproduces Fig. 8b: the number of repeated-game rounds needed to
// reach a market equilibrium as the federation grows, for several Tabu
// search distances. Following the paper's observation that any single
// decision change matters more in a small federation, rounds should fall
// with K. The fluid performance model keeps the 100-VM strategy spaces
// tractable.
func Fig8b(opts Fig8bOptions) (Figure, error) {
	opts.defaults()
	fig := Figure{
		ID:     "fig8b",
		Title:  "Game rounds to equilibrium vs federation size",
		XLabel: "SCs",
		YLabel: "rounds",
	}
	evalSeries := Series{Name: "model evals (dist 2)"}
	for _, dist := range opts.TabuDistances {
		s := Series{Name: fmt.Sprintf("tabu distance %d", dist)}
		for _, k := range opts.Ks {
			fed := cloud.Federation{FederationPrice: 0.4}
			for i := 0; i < k; i++ {
				u := opts.Utils[i%len(opts.Utils)]
				fed.SCs = append(fed.SCs, cloud.SC{
					Name: fmt.Sprintf("sc%d", i), VMs: opts.VMs,
					ArrivalRate: u * float64(opts.VMs), ServiceRate: 1, SLA: opts.SLA, PublicPrice: 1,
				})
			}
			g := &market.Game{
				Federation:   fed,
				Evaluator:    market.Memoize(fluid.NewEvaluator(fed)),
				Gamma:        opts.Gamma,
				TabuDistance: dist,
				MaxRounds:    100,
				Workers:      opts.Workers,
			}
			out, err := g.Run(nil)
			if err != nil {
				return Figure{}, fmt.Errorf("fig8b: K=%d dist=%d: %w", k, dist, err)
			}
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, float64(out.Rounds))
			if dist == 2 {
				evalSeries.X = append(evalSeries.X, float64(k))
				evalSeries.Y = append(evalSeries.Y, float64(out.Evals))
			}
		}
		fig.Series = append(fig.Series, s)
	}
	if len(evalSeries.X) > 0 {
		fig.Series = append(fig.Series, evalSeries)
	}
	return fig, nil
}
