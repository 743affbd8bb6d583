package market

import (
	"fmt"
	"sync"

	"scshare/internal/cloud"
	"scshare/internal/queueing"
)

// participationEvaluator implements WithParticipation; see there for the
// semantics. It is safe for concurrent use.
type participationEvaluator struct {
	fed    cloud.Federation
	mkEval func(sub cloud.Federation) Evaluator

	// bases holds the Sect. III-A no-sharing metrics, one cell per SC. The
	// slice is fixed at construction and each cell deduplicates its own
	// solve, so distinct baselines solve concurrently and never block
	// sub-evaluator lookups behind an unrelated birth-death solve.
	bases []baselineCell

	mu sync.Mutex
	// subs is guarded by mu: it caches one evaluator per participant set
	// (keyed by the presence bitmap).
	subs map[string]Evaluator
}

// baselineCell lazily solves and caches one SC's no-sharing metrics.
type baselineCell struct {
	once sync.Once
	m    cloud.Metrics
	err  error
}

// WithParticipation enforces the paper's participation semantics: an SC is
// in the federation only if it contributes VMs (S_i > 0). Non-contributors
// neither lend nor borrow — evaluating one returns its Sect. III-A
// no-sharing metrics, and contributors are evaluated on the sub-federation
// of contributors only, so free-riding demand never reaches the pool. This
// is what lets a market die at unfavorable prices (the zero-efficiency
// points of Fig. 7): when borrowing stops paying, borrowers drop to S=0,
// lenders lose their revenue, and the remaining utilities collapse.
//
// mkEval builds an evaluator for a sub-federation; one evaluator is cached
// per participant set, and the contributor sub-federation is solved by its
// EvaluateAll, so an evaluation whose sub-federation evaluator is not an
// AllEvaluator fails. Evaluate(shares, i) is EvaluateAll(shares)[i], except
// that a non-contributor's baseline needs no sub-federation solve.
func WithParticipation(fed cloud.Federation, mkEval func(sub cloud.Federation) Evaluator) AllEvaluator {
	return &participationEvaluator{
		fed:    fed,
		mkEval: mkEval,
		subs:   make(map[string]Evaluator),
		bases:  make([]baselineCell, len(fed.SCs)),
	}
}

// subEvaluator returns the cached evaluator for one participant set,
// building it on first use.
func (pe *participationEvaluator) subEvaluator(key string, subFed cloud.Federation) Evaluator {
	pe.mu.Lock()
	ev, ok := pe.subs[key]
	if !ok {
		ev = pe.mkEval(subFed)
		pe.subs[key] = ev
	}
	pe.mu.Unlock()
	return ev
}

// baseline returns SC i's no-sharing metrics, solving the birth-death
// chain once per SC. The per-cell sync.Once keeps the solve off the
// evaluator-wide mutex: concurrent callers of the same SC share one solve,
// while distinct SCs (and subEvaluator lookups) proceed in parallel.
func (pe *participationEvaluator) baseline(i int) (cloud.Metrics, error) {
	c := &pe.bases[i]
	c.once.Do(func() {
		m, err := queueing.Solve(pe.fed.SCs[i])
		if err != nil {
			c.err = err
			return
		}
		c.m = m.Metrics()
	})
	return c.m, c.err
}

// Evaluate implements Evaluator.
func (pe *participationEvaluator) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	if err := ValidateShares(pe.fed, shares, target); err != nil {
		return cloud.Metrics{}, err
	}
	if shares[target] == 0 {
		return pe.baseline(target)
	}
	ms, err := pe.EvaluateAll(shares)
	if err != nil {
		return cloud.Metrics{}, err
	}
	return ms[target], nil
}

// EvaluateAll implements AllEvaluator: non-contributors (and a lone
// contributor) get their no-sharing baselines, and the contributor
// sub-federation is solved in one shot.
func (pe *participationEvaluator) EvaluateAll(shares []int) ([]cloud.Metrics, error) {
	if err := pe.fed.ValidateShares(shares); err != nil {
		return nil, err
	}
	out := make([]cloud.Metrics, len(shares))
	var (
		mask      = make([]byte, len(shares))
		subFed    cloud.Federation
		subShares []int
		subIdx    []int
	)
	subFed.FederationPrice = pe.fed.FederationPrice
	for i, s := range shares {
		if s == 0 {
			mask[i] = '0'
			m, err := pe.baseline(i)
			if err != nil {
				return nil, err
			}
			out[i] = m
			continue
		}
		mask[i] = '1'
		subFed.SCs = append(subFed.SCs, pe.fed.SCs[i])
		subShares = append(subShares, s)
		subIdx = append(subIdx, i)
	}
	if len(subIdx) == 0 {
		return out, nil
	}
	if len(subIdx) == 1 {
		m, err := pe.baseline(subIdx[0])
		if err != nil {
			return nil, err
		}
		out[subIdx[0]] = m
		return out, nil
	}
	ev := pe.subEvaluator(string(mask), subFed)
	all, ok := ev.(AllEvaluator)
	if !ok {
		return nil, fmt.Errorf("market: sub-federation evaluator %T has no EvaluateAll", ev)
	}
	ms, err := all.EvaluateAll(subShares)
	if err != nil {
		return nil, err
	}
	for j, i := range subIdx {
		out[i] = ms[j]
	}
	return out, nil
}
