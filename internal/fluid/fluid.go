// Package fluid implements a coarse fixed-point (mean-field) model of the
// SC federation. It is not part of the paper; it exists as (a) a fast
// evaluator for large market experiments where the hierarchical model of
// Sect. III-C is too expensive (e.g. the Fig. 8b game-cost sweeps over
// 100-VM federations), and (b) an ablation baseline quantifying what the
// paper's detailed interaction modeling buys (see DESIGN.md).
//
// The model iterates a damped fixed point over two coupled vectors: the
// Erlangs each SC borrows from the pool and the Erlangs each SC lends into
// it. Overflow demand comes from the Sect. III-A no-sharing model with the
// lent load folded into the arrival stream (so the zero-sharing federation
// reproduces the standalone baseline exactly), supply is each SC's idle
// capacity clipped by its share budget, and the pool is split
// proportionally to demand.
package fluid

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"scshare/internal/cloud"
	"scshare/internal/numeric"
	"scshare/internal/queueing"
)

// ErrNoConvergence is returned when the fixed point fails to settle.
var ErrNoConvergence = errors.New("fluid: fixed point did not converge")

// The fixed-point iteration's settings.
const (
	// damping is the fraction of the new iterate mixed in per step.
	damping = 0.5
	// tol is the max-abs convergence threshold on the borrow and lend
	// vectors.
	tol = 1e-9
	// maxIter bounds the iteration count.
	maxIter = 500
)

// fpKey addresses one cached Sect. III-A solve: an SC with a quantized
// lent load folded into its arrival stream.
type fpKey struct {
	sc   int
	lend int64
}

// Evaluator is a reusable fluid-model evaluator. The forwarding
// probabilities of the no-sharing model depend only on (SC, lent load) —
// never on the share vector — so the Evaluator keeps that cache across
// calls: a market sweep evaluating thousands of neighboring vectors pays
// for each distinct (SC, load) point once instead of once per vector. It is
// safe for concurrent use and implements both market evaluator shapes
// (per-target Evaluate and whole-vector EvaluateAll).
type Evaluator struct {
	fed cloud.Federation

	mu sync.Mutex
	// fpCache is guarded by mu; see forwardProb.
	fpCache map[fpKey]float64
}

// NewEvaluator validates nothing eagerly (Solve revalidates per call) and
// returns an evaluator sharing one forwarding-probability cache across all
// subsequent solves.
func NewEvaluator(fed cloud.Federation) *Evaluator {
	return &Evaluator{fed: fed, fpCache: make(map[fpKey]float64)}
}

// forwardProb returns the no-sharing forwarding probability of SC i with
// the quantized lent load folded into its arrivals, solving the
// birth-death chain on a cache miss. Concurrent misses of the same key may
// solve twice; both arrive at the same value, so the cache stays
// deterministic.
func (e *Evaluator) forwardProb(i int, lent float64) (float64, error) {
	key := fpKey{sc: i, lend: int64(math.Round(lent * 4096))}
	e.mu.Lock()
	v, ok := e.fpCache[key]
	e.mu.Unlock()
	if ok {
		return v, nil
	}
	sc := e.fed.SCs[i]
	loaded := sc
	loaded.ArrivalRate = sc.ArrivalRate + float64(key.lend)/4096*sc.ServiceRate
	nm, err := queueing.Solve(loaded)
	if err != nil {
		return 0, err
	}
	v = nm.Metrics().ForwardProb
	e.mu.Lock()
	e.fpCache[key] = v
	e.mu.Unlock()
	return v, nil
}

// Evaluate implements the market evaluator signature.
func (e *Evaluator) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	ms, err := e.EvaluateAll(shares)
	if err != nil {
		return cloud.Metrics{}, err
	}
	if target < 0 || target >= len(ms) {
		return cloud.Metrics{}, fmt.Errorf("fluid: target %d out of range [0,%d)", target, len(ms))
	}
	return ms[target], nil
}

// Solve runs the fixed point with a fresh cache and returns per-SC
// metrics. Sweeps should construct one Evaluator instead, so the
// no-sharing solves carry over between calls.
func Solve(fed cloud.Federation, shares []int) ([]cloud.Metrics, error) {
	return NewEvaluator(fed).EvaluateAll(shares)
}

// EvaluateAll runs the fixed point and returns every SC's metrics.
func (e *Evaluator) EvaluateAll(shares []int) ([]cloud.Metrics, error) {
	fed := e.fed
	if err := fed.Validate(); err != nil {
		return nil, fmt.Errorf("fluid: %w", err)
	}
	if err := fed.ValidateShares(shares); err != nil {
		return nil, fmt.Errorf("fluid: %w", err)
	}
	k := len(fed.SCs)
	borrow := make([]float64, k) // Erlangs SC i serves on foreign VMs
	lend := make([]float64, k)   // Erlangs SC i's VMs serve for others
	newBorrow := make([]float64, k)
	newLend := make([]float64, k)
	overflow := make([]float64, k)
	forwardProb := e.forwardProb

	for iter := 0; iter < maxIter; iter++ {
		// Overflow demand and idle supply under the current allocation.
		// Overflow uses the same SLA-driven no-sharing model as the
		// baseline costs (Sect. III-A), with the lent load folded into the
		// arrival stream, so that a federation of non-sharers reproduces
		// the standalone model exactly.
		totalDemand := 0.0
		supply := make([]float64, k)
		for i, sc := range fed.SCs {
			own := sc.OfferedLoad()
			offered := own + lend[i]
			fp, err := forwardProb(i, lend[i])
			if err != nil {
				return nil, fmt.Errorf("fluid: %w", err)
			}
			overflow[i] = own * fp
			totalDemand += overflow[i]
			idle := float64(sc.VMs) - math.Min(offered, float64(sc.VMs))
			supply[i] = math.Min(float64(shares[i]), idle)
		}
		totalSupply := numeric.Sum(supply)

		// Split the pool: SC i draws on everyone's supply but its own, and
		// competes with all overflow demand.
		for i := range fed.SCs {
			avail := totalSupply - supply[i]
			if totalDemand <= 0 || avail <= 0 {
				newBorrow[i] = 0
				continue
			}
			frac := math.Min(1, avail/totalDemand)
			newBorrow[i] = overflow[i] * frac
		}
		// Lending balances borrowing, attributed proportionally to supply.
		totalBorrow := numeric.Sum(newBorrow)
		for j := range fed.SCs {
			if totalSupply-supply[j] <= 0 || totalSupply == 0 {
				newLend[j] = 0
				continue
			}
			// SC j supplies to everyone else; weight by its supply share
			// of the pools it participates in (uniform approximation).
			newLend[j] = totalBorrow * supply[j] / totalSupply
		}
		// Rebalance so conservation holds exactly.
		if tl := numeric.Sum(newLend); tl > 0 && totalBorrow > 0 {
			scale := totalBorrow / tl
			for j := range newLend {
				newLend[j] *= scale
			}
		}

		delta := 0.0
		for i := range fed.SCs {
			nb := (1-damping)*borrow[i] + damping*newBorrow[i]
			nl := (1-damping)*lend[i] + damping*newLend[i]
			delta = math.Max(delta, math.Abs(nb-borrow[i]))
			delta = math.Max(delta, math.Abs(nl-lend[i]))
			borrow[i], lend[i] = nb, nl
		}
		if delta < tol {
			return metricsOf(fed, overflow, borrow, lend), nil
		}
	}
	return nil, ErrNoConvergence
}

func metricsOf(fed cloud.Federation, overflow, borrow, lend []float64) []cloud.Metrics {
	out := make([]cloud.Metrics, len(fed.SCs))
	for i, sc := range fed.SCs {
		unserved := overflow[i] - borrow[i]
		if unserved < 0 {
			unserved = 0
		}
		publicRate := unserved * sc.ServiceRate // Erlangs back to req/s
		ownServed := sc.OfferedLoad() - overflow[i]
		if ownServed < 0 {
			ownServed = 0
		}
		util := (ownServed + lend[i]) / float64(sc.VMs)
		out[i] = cloud.Metrics{
			PublicRate:  publicRate,
			BorrowRate:  borrow[i],
			LendRate:    lend[i],
			Utilization: math.Min(util, 1),
			ForwardProb: math.Min(publicRate/sc.ArrivalRate, 1),
		}
	}
	return out
}
