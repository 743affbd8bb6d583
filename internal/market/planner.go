package market

import (
	"context"
	"fmt"
	"math"
	"slices"

	"scshare/internal/claim"
	"scshare/internal/cloud"
)

// WelfareEvaluator computes social welfare for arbitrary sharing vectors;
// it is the measuring stick behind the Fig. 7 efficiency ratios.
//
// Performance metrics are price-independent, so one WelfareEvaluator can
// score any number of federation prices: the ...At methods take the price
// explicitly and recombine whole-vector metrics, which is what lets the
// batch sweep driver hoist the empirical-max search out of the ratio loop
// instead of re-enumerating the strategy space per ratio. It keeps no
// metrics of its own: every vector is read through its evaluator, which
// should be a Memoize cache (the one the games read, in core.Framework).
// It is safe for concurrent use.
type WelfareEvaluator struct {
	fed       cloud.Federation
	ev        AllEvaluator
	gamma     float64
	baseCosts []float64
	baseUtils []float64
}

// NewWelfareEvaluator solves the no-sharing baselines once and returns an
// evaluator for the given utility exponent.
func NewWelfareEvaluator(fed cloud.Federation, ev AllEvaluator, gamma float64) (*WelfareEvaluator, error) {
	if err := fed.Validate(); err != nil {
		return nil, fmt.Errorf("market: %w", err)
	}
	if !(gamma >= 0 && gamma <= 1) { // negated range: rejects NaN too
		return nil, ErrBadGamma
	}
	we := &WelfareEvaluator{fed: fed, ev: ev, gamma: gamma}
	var err error
	if we.baseCosts, we.baseUtils, err = baselineTerms(fed, nil); err != nil {
		return nil, err
	}
	return we, nil
}

// metricsFor returns every SC's metrics under the sharing vector, read
// through the evaluator in one whole-vector call.
func (we *WelfareEvaluator) metricsFor(shares []int) ([]cloud.Metrics, error) {
	ms, err := we.ev.EvaluateAll(shares)
	if err != nil {
		return nil, fmt.Errorf("market: evaluate %v: %w", shares, err)
	}
	if len(ms) != len(we.fed.SCs) {
		return nil, fmt.Errorf("market: evaluate %v: %d metrics for %d SCs", shares, len(ms), len(we.fed.SCs))
	}
	return ms, nil
}

// primeCap bounds the strategy-space size Prime will enumerate: beyond it,
// speculative whole-space evaluation costs more than the lazy searches save.
const primeCap = 1024

// Prime solves the whole-vector metrics for every sharing vector in the
// maxShares box on up to workers goroutines, the caller's among them (see
// claim.Run), populating the evaluator's cache, which the ...At methods
// and, in core.Framework, the games read.
//
// It is the batch sweep driver's speculative pre-enumeration: metrics are
// price-independent, so one parallel pass over the box serves every (price,
// alpha) empirical-max search of a sweep, where the lazy coordinate ascents
// would discover the same vectors one at a time on the critical path. The
// pass may evaluate vectors no search visits — acceptable for a batch
// driver trading total work for wall clock. Vectors are dispatched
// longest-first (see primeOrder), so the costliest solves start while the
// whole pool is still busy instead of trailing alone at the end.
//
// It is a no-op when the box exceeds primeCap or fewer than two workers
// are available; evaluation errors are skipped, left for the lazy path to
// surface if a search visits the offending vector. Once ctx is done no
// further vector is solved: Prime returns as soon as the solves already in
// flight finish. A nil maxShares means each SC's full VM count; an
// invalid box (see strategyCaps) primes nothing.
func (we *WelfareEvaluator) Prime(ctx context.Context, maxShares []int, workers int) {
	maxShares, err := strategyCaps(we.fed, maxShares)
	if err != nil {
		return
	}
	space := 1
	for _, m := range maxShares {
		space *= m + 1
		if space > primeCap {
			return
		}
	}
	if min(workers, space) <= 1 {
		return
	}
	order := primeOrder(maxShares)
	claim.Run(len(order), workers, func(_, i int) {
		// Checked at every claim: once ctx is done the remaining claims
		// solve nothing, and only the solves already in flight finish.
		if ctx.Err() == nil {
			_, _ = we.metricsFor(order[i])
		}
	})
}

// primeOrder lists the maxShares box longest-first: vectors with more
// participants (S_i > 0) first — each participant adds a hierarchy level —
// then larger share totals, whose levels span larger state spaces; ties
// keep odometer order (lowest index fastest). Every key is read from the
// vector itself, so the order is fixed by the box alone.
func primeOrder(maxShares []int) [][]int {
	var box [][]int
	shares := make([]int, len(maxShares))
	for {
		box = append(box, append([]int(nil), shares...))
		i := 0
		for ; i < len(shares); i++ {
			shares[i]++
			if shares[i] <= maxShares[i] {
				break
			}
			shares[i] = 0
		}
		if i == len(shares) {
			break
		}
	}
	slices.SortStableFunc(box, func(a, b []int) int {
		pa, ta := primeCost(a)
		pb, tb := primeCost(b)
		if pa != pb {
			return pb - pa
		}
		return tb - ta
	})
	return box
}

// primeCost returns a share vector's participant count and share total,
// the two keys of primeOrder.
func primeCost(shares []int) (participants, total int) {
	for _, s := range shares {
		if s > 0 {
			participants++
		}
		total += s
	}
	return participants, total
}

// UtilitiesAt returns every SC's Eq. (2) utility under the sharing vector
// at the given federation price C^G.
func (we *WelfareEvaluator) UtilitiesAt(price float64, shares []int) ([]float64, error) {
	if err := we.fed.ValidateShares(shares); err != nil {
		return nil, fmt.Errorf("market: %w", err)
	}
	ms, err := we.metricsFor(shares)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(we.fed.SCs))
	for i, sc := range we.fed.SCs {
		cost := ms[i].NetCost(sc.PublicPrice, price)
		u, err := Utility(we.baseCosts[i], cost, we.baseUtils[i], ms[i].Utilization, we.gamma)
		if err != nil {
			return nil, err
		}
		out[i] = u
	}
	return out, nil
}

// Utilities returns every SC's Eq. (2) utility under the sharing vector at
// the federation's configured price.
func (we *WelfareEvaluator) Utilities(shares []int) ([]float64, error) {
	return we.UtilitiesAt(we.fed.FederationPrice, shares)
}

// WelfareAt returns the alpha-fair welfare of the sharing vector at the
// given federation price.
func (we *WelfareEvaluator) WelfareAt(price, alpha float64, shares []int) (float64, error) {
	us, err := we.UtilitiesAt(price, shares)
	if err != nil {
		return 0, err
	}
	return Welfare(alpha, shares, us)
}

// Welfare returns the alpha-fair welfare of the sharing vector at the
// federation's configured price.
func (we *WelfareEvaluator) Welfare(alpha float64, shares []int) (float64, error) {
	return we.WelfareAt(we.fed.FederationPrice, alpha, shares)
}

// MaximizeWelfare searches for the empirical market-efficient sharing
// vector at the federation's configured price; see MaximizeWelfareAt.
func (we *WelfareEvaluator) MaximizeWelfare(alpha float64, maxShares []int, starts [][]int) ([]int, float64, error) {
	return we.MaximizeWelfareAt(we.fed.FederationPrice, alpha, maxShares, starts)
}

// MaximizeWelfareAt searches for the empirical market-efficient sharing
// vector at the given federation price by multi-start greedy coordinate
// ascent: from each start, SCs' shares are optimized one coordinate at a
// time (full scans) until a sweep makes no improvement. Every vector the
// ascent visits hits the evaluator's shared metrics cache, so after the
// first price only the price-dependent cost arithmetic is recomputed.
func (we *WelfareEvaluator) MaximizeWelfareAt(price, alpha float64, maxShares []int, starts [][]int) ([]int, float64, error) {
	k := len(we.fed.SCs)
	maxShares, err := strategyCaps(we.fed, maxShares)
	if err != nil {
		return nil, 0, err
	}
	if len(starts) == 0 {
		mid := make([]int, k)
		ones := make([]int, k)
		full := make([]int, k)
		for i := range mid {
			mid[i] = maxShares[i] / 2
			ones[i] = min(1, maxShares[i])
			full[i] = maxShares[i]
		}
		starts = [][]int{ones, mid, full}
	}
	var bestShares []int
	bestW := math.Inf(-1)
	for _, start := range starts {
		shares := make([]int, k)
		copy(shares, start)
		w, err := we.WelfareAt(price, alpha, shares)
		if err != nil {
			return nil, 0, err
		}
		for improved := true; improved; {
			improved = false
			for i := 0; i < k; i++ {
				basis := shares[i]
				for s := 0; s <= maxShares[i]; s++ {
					if s == basis {
						continue
					}
					shares[i] = s
					cand, err := we.WelfareAt(price, alpha, shares)
					if err != nil {
						return nil, 0, err
					}
					if cand > w {
						w = cand
						basis = s
						improved = true
					}
				}
				shares[i] = basis
			}
		}
		if w > bestW {
			bestW = w
			bestShares = append([]int(nil), shares...)
		}
	}
	return bestShares, bestW, nil
}
