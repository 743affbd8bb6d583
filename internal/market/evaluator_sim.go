package market

import (
	"scshare/internal/cloud"
	"scshare/internal/sim"
)

// simEvaluator evaluates sharing decisions by discrete-event simulation.
// One simulation yields every SC's metrics; it keeps no results of its
// own, so wrap it in Memoize to share runs across callers — the runs are
// by far the most expensive evaluations the market fans out.
type simEvaluator struct {
	fed     cloud.Federation
	horizon float64
	warmup  float64
	seed    int64
}

// SimEvaluator evaluates sharing decisions by discrete-event simulation.
// It is safe for concurrent use.
func SimEvaluator(fed cloud.Federation, horizon, warmup float64, seed int64) AllEvaluator {
	return simEvaluator{fed: fed, horizon: horizon, warmup: warmup, seed: seed}
}

// Evaluate implements Evaluator.
func (se simEvaluator) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	if err := ValidateShares(se.fed, shares, target); err != nil {
		return cloud.Metrics{}, err
	}
	ms, err := se.EvaluateAll(shares)
	if err != nil {
		return cloud.Metrics{}, err
	}
	return ms[target], nil
}

// EvaluateAll implements AllEvaluator: one simulation run yields every
// SC's metrics.
func (se simEvaluator) EvaluateAll(shares []int) ([]cloud.Metrics, error) {
	if err := se.fed.ValidateShares(shares); err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.Config{
		Federation: se.fed,
		Shares:     shares,
		Horizon:    se.horizon,
		Warmup:     se.warmup,
		Seed:       se.seed,
	})
	if err != nil {
		return nil, err
	}
	return res.Metrics, nil
}
