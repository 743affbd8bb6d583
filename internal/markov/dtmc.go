package markov

import (
	"fmt"

	"scshare/internal/numeric"
	"scshare/internal/sparse"
)

// DTMC is a discrete-time Markov chain with row-stochastic transition
// matrix P.
type DTMC struct {
	n int
	p *sparse.CSR
}

// NewDTMC wraps a row-stochastic CSR matrix. Rows must sum to 1 within tol;
// this is validated eagerly because a silently sub-stochastic matrix makes
// every downstream result wrong.
func NewDTMC(p *sparse.CSR, tol float64) (*DTMC, error) {
	if p.Rows != p.Cols {
		return nil, fmt.Errorf("markov: transition matrix is %dx%d, want square", p.Rows, p.Cols)
	}
	if tol <= 0 {
		tol = 1e-9
	}
	for r, s := range p.RowSums() {
		if d := s - 1; d > tol || d < -tol {
			return nil, fmt.Errorf("markov: row %d sums to %v, want 1", r, s)
		}
	}
	return &DTMC{n: p.Rows, p: p}, nil
}

// NumStates returns the number of states.
func (d *DTMC) NumStates() int { return d.n }

// Prob returns the one-step probability from a to b.
func (d *DTMC) Prob(a, b int) float64 { return d.p.At(a, b) }

// Step computes dst = cur * P into the caller-provided buffer; it performs
// no allocations. dst and cur must not alias.
func (d *DTMC) Step(dst, cur []float64) error {
	return d.p.MulVecTTo(dst, cur)
}

// Step4 is Step over sparse.Lanes distributions stored interleaved (lane l
// of state i at index i*sparse.Lanes+l), in one pass over P; each lane's
// result is bit-identical to Step on that lane alone (see
// sparse.CSR.MulVecTTo4). dst and cur must not alias.
func (d *DTMC) Step4(dst, cur []float64) error {
	return d.p.MulVecTTo4(dst, cur)
}

// SteadyState computes the stationary distribution by power iteration. The
// iteration runs in workspace buffers when opts.Work is provided; the
// result is delivered through opts.Dst (or a fresh vector) and never
// aliases the workspace.
func (d *DTMC) SteadyState(opts SteadyStateOptions) ([]float64, error) {
	opts.defaults()
	cur, next := opts.Work.pair(d.n)
	if opts.Start != nil {
		if len(opts.Start) != d.n {
			return nil, fmt.Errorf("markov: start vector has %d entries, chain has %d states", len(opts.Start), d.n)
		}
		copy(cur, opts.Start)
		numeric.Normalize(cur)
	} else {
		numeric.Fill(cur, 1/float64(d.n))
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		if err := d.Step(next, cur); err != nil {
			opts.record(iter)
			return nil, err
		}
		numeric.Normalize(next)
		if numeric.L1Diff(next, cur) < opts.Tol {
			opts.record(iter + 1)
			if err := numeric.CheckProbVec(next, probVecTol); err != nil {
				return nil, err
			}
			if opts.Work == nil && opts.Dst == nil {
				return next, nil // next is one of the two fresh buffers
			}
			pi := opts.result(d.n)
			copy(pi, next)
			return pi, nil
		}
		cur, next = next, cur
	}
	opts.record(opts.MaxIter)
	return nil, ErrNoConvergence
}
