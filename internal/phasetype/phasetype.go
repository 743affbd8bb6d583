// Package phasetype implements the service-time distributions the paper's
// discussion section points to for relaxing the exponential assumption
// (Sect. VII, ref. [43]): Erlang and hyperexponential phase-type
// distributions, a mixed-Erlang/H2 two-moment fitter, and samplers for the
// discrete-event simulator. Phase-type distributions are dense in the
// class of positive distributions, so fitting the first two moments of a
// measured service-time trace gives a simulation-ready model.
package phasetype

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrBadMoments rejects infeasible moment combinations.
var ErrBadMoments = errors.New("phasetype: infeasible moments")

// Distribution is a positive continuous distribution with two-moment
// introspection and sampling. Implementations must be safe for reuse
// across runs (no internal mutable state).
type Distribution interface {
	// Mean returns E[X].
	Mean() float64
	// SCV returns the squared coefficient of variation Var[X]/E[X]^2.
	SCV() float64
	// Sample draws one variate using the provided source.
	Sample(rng *rand.Rand) float64
}

// Exponential is the memoryless baseline (SCV = 1).
type Exponential struct {
	// Rate is 1/mean.
	Rate float64
}

var _ Distribution = Exponential{}

// Mean implements Distribution.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// SCV implements Distribution.
func (e Exponential) SCV() float64 { return 1 }

// Sample implements Distribution.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	return rng.ExpFloat64() / e.Rate
}

// Erlang is the sum of K exponential phases with a common rate
// (SCV = 1/K < 1: smoother than exponential).
type Erlang struct {
	K    int
	Rate float64
}

var _ Distribution = Erlang{}

// Mean implements Distribution.
func (e Erlang) Mean() float64 { return float64(e.K) / e.Rate }

// SCV implements Distribution.
func (e Erlang) SCV() float64 { return 1 / float64(e.K) }

// Sample implements Distribution.
func (e Erlang) Sample(rng *rand.Rand) float64 {
	t := 0.0
	for i := 0; i < e.K; i++ {
		t += rng.ExpFloat64()
	}
	return t / e.Rate
}

// MixedErlang mixes Erlang(K-1) and Erlang(K) with a common rate; it fits
// any mean with SCV in [1/K, 1/(K-1)] exactly.
type MixedErlang struct {
	// K is the longer branch's phase count (K >= 2).
	K int
	// P is the probability of the K-1 phase branch.
	P float64
	// Rate is the common phase rate.
	Rate float64
}

var _ Distribution = MixedErlang{}

// Mean implements Distribution.
func (m MixedErlang) Mean() float64 {
	return (m.P*float64(m.K-1) + (1-m.P)*float64(m.K)) / m.Rate
}

// SCV implements Distribution.
func (m MixedErlang) SCV() float64 {
	k := float64(m.K)
	mean := m.P*(k-1) + (1-m.P)*k
	// E[X^2] * Rate^2 for a mixture of Erlangs: p*k(k-1) ... using
	// E[Erlang_n^2] = n(n+1)/rate^2.
	m2 := m.P*(k-1)*k + (1-m.P)*k*(k+1)
	return m2/(mean*mean) - 1
}

// Sample implements Distribution.
func (m MixedErlang) Sample(rng *rand.Rand) float64 {
	k := m.K
	if rng.Float64() < m.P {
		k--
	}
	t := 0.0
	for i := 0; i < k; i++ {
		t += rng.ExpFloat64()
	}
	return t / m.Rate
}

// HyperExp2 is a two-branch hyperexponential (SCV > 1: burstier than
// exponential).
type HyperExp2 struct {
	// P is the probability of branch 1.
	P            float64
	Rate1, Rate2 float64
}

var _ Distribution = HyperExp2{}

// Mean implements Distribution.
func (h HyperExp2) Mean() float64 {
	return h.P/h.Rate1 + (1-h.P)/h.Rate2
}

// SCV implements Distribution.
func (h HyperExp2) SCV() float64 {
	m := h.Mean()
	m2 := 2*h.P/(h.Rate1*h.Rate1) + 2*(1-h.P)/(h.Rate2*h.Rate2)
	return m2/(m*m) - 1
}

// Sample implements Distribution.
func (h HyperExp2) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < h.P {
		return rng.ExpFloat64() / h.Rate1
	}
	return rng.ExpFloat64() / h.Rate2
}

// fitBoundaryTol absorbs rounding error at the boundaries of the
// two-moment fit: SCVs this close to 1 are treated as exponential, and
// mixing probabilities this far below 0 are clamped to a pure Erlang.
const fitBoundaryTol = 1e-12

// FitTwoMoment returns a phase-type distribution matching the given mean
// and squared coefficient of variation exactly:
//
//   - SCV == 1: exponential;
//   - SCV in (0, 1): mixed Erlang (the standard minimal-phase fit);
//   - SCV > 1: balanced-means two-branch hyperexponential.
func FitTwoMoment(mean, scv float64) (Distribution, error) {
	if mean <= 0 || scv <= 0 || math.IsNaN(mean) || math.IsNaN(scv) {
		return nil, fmt.Errorf("%w: mean=%v scv=%v", ErrBadMoments, mean, scv)
	}
	switch {
	case math.Abs(scv-1) < fitBoundaryTol:
		return Exponential{Rate: 1 / mean}, nil
	case scv < 1:
		// Choose K with 1/K <= scv <= 1/(K-1); then the classical fit
		// p = [K*scv - sqrt(K(1+scv) - K^2*scv)] / (1+scv),
		// rate = (K - p)/mean.
		k := int(math.Ceil(1 / scv))
		if k < 2 {
			k = 2
		}
		fk := float64(k)
		p := (fk*scv - math.Sqrt(fk*(1+scv)-fk*fk*scv)) / (1 + scv)
		if p > -fitBoundaryTol && p < 0 {
			p = 0 // scv exactly at a 1/K boundary: pure Erlang
		}
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("%w: mean=%v scv=%v (k=%d, p=%v)", ErrBadMoments, mean, scv, k, p)
		}
		rate := (fk - p) / mean
		return MixedErlang{K: k, P: p, Rate: rate}, nil
	default:
		// Balanced-means H2: p/rate1 = (1-p)/rate2 = mean/2.
		p := 0.5 * (1 + math.Sqrt((scv-1)/(scv+1)))
		rate1 := 2 * p / mean
		rate2 := 2 * (1 - p) / mean
		return HyperExp2{P: p, Rate1: rate1, Rate2: rate2}, nil
	}
}
