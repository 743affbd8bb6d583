package main

import (
	"encoding/binary"
	"math"
	"sort"

	"scshare/internal/market"
	"scshare/internal/spec"
)

// rng is splitmix64: tiny, and fixed by this file rather than by a
// standard-library version, so a seed names the same inputs forever.
type rng struct{ s uint64 }

// newRNG derives an independent stream for (seed, stream).
func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream+1)*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Stream numbers keep the generators independent of one another.
const (
	streamWalk  = 1 // + connection index
	streamSweep = 100
	streamFleet = 200 // + grid index
)

// fig7aSpec is the Fig. 7a federation of internal/serve/bench_test.go:
// utilizations 0.58/0.73/0.84 on 10 VMs, the approximate model with one
// pass, 1e-4 pruning and a 4-VM usage cap, shares capped at maxShare.
func fig7aSpec(maxShare int) spec.Federation {
	return spec.Federation{
		SCs: []spec.SC{
			{VMs: 10, ArrivalRate: 5.8},
			{VMs: 10, ArrivalRate: 7.3},
			{VMs: 10, ArrivalRate: 8.4},
		},
		Model:    "approx",
		MaxShare: maxShare,
		Approx:   &spec.Approx{Passes: 1, Prune: 1e-4, PoolCap: 4},
	}
}

// sweepAlphas are the three welfare regimes every sweep scores.
var sweepAlphas = []float64{market.AlphaUtilitarian, market.AlphaProportional, market.AlphaMaxMin}

// Advice prices live on a grid of C^G/C^P ratios from 0.05 to 0.98 in
// steps of 0.01 (the public price is 1, so ratio = price).
const (
	adviseLoCents = 5
	adviseHiCents = 98
	adviseGridLen = adviseHiCents - adviseLoCents + 1
)

// advisePrice is the price at grid index i.
func advisePrice(i int) float64 { return float64(adviseLoCents+i) / 100 }

// priceWalk is one client's seeded random walk over the advice grid: each
// step moves up to three grid steps either way, reflecting at the ends.
type priceWalk struct {
	r   *rng
	idx int
}

func newPriceWalk(seed uint64, conn int) *priceWalk {
	r := newRNG(seed, streamWalk+uint64(conn))
	return &priceWalk{r: r, idx: r.intn(adviseGridLen)}
}

// next returns the grid index of the next request's price.
func (w *priceWalk) next() int {
	i := w.idx + w.r.intn(7) - 3
	if i < 0 {
		i = -i
	}
	if i >= adviseGridLen {
		i = 2*(adviseGridLen-1) - i
	}
	w.idx = i
	return i
}

// roundTo rounds v to the given number of decimals, so generated ratios
// are short decimals on the wire.
func roundTo(v float64, decimals int) float64 {
	p := math.Pow(10, float64(decimals))
	return math.Round(v*p) / p
}

// sweepRatios is the run's cold-sweep grid: the ten decile midpoints
// 0.05..0.95, each jittered by up to ±0.04.
func sweepRatios(seed uint64) []float64 {
	r := newRNG(seed, streamSweep)
	out := make([]float64, 10)
	for i := range out {
		out[i] = roundTo((float64(i)+0.5)/10+(r.float()-0.5)*0.08, 4)
	}
	return out
}

// fleetGridCount is how many distinct seeded grids a fleet run cycles
// through; repeats let the output check compare every op while keeping
// the recorded outputs bounded.
const fleetGridCount = 256

// fleetGrid is the seeded 10-ratio grid of fleet op pool slot i: ten
// ascending ratios drawn uniformly from [0.05, 0.95].
func fleetGrid(seed uint64, i int) []float64 {
	r := newRNG(seed, streamFleet+uint64(i))
	out := make([]float64, 10)
	for k := range out {
		out[k] = roundTo(0.05+0.9*r.float(), 3)
	}
	sort.Float64s(out)
	return out
}

// inputStream serializes the first n inputs a workload's generators
// produce — the walk indices of every connection, or the sweep and fleet
// grids — so a digest of it names the inputs of a run.
func inputStream(workload string, seed uint64, conns, n int) []byte {
	var b []byte
	put := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	switch workload {
	case "advise-warm":
		for c := 0; c < conns; c++ {
			w := newPriceWalk(seed, c)
			for i := 0; i < n; i++ {
				put(advisePrice(w.next()))
			}
		}
	case "sweep-cold":
		for _, v := range sweepRatios(seed) {
			put(v)
		}
	case "fleet-warm":
		for _, v := range sweepRatios(seed) {
			put(v)
		}
		for g := 0; g < min(n, fleetGridCount); g++ {
			for _, v := range fleetGrid(seed, g) {
				put(v)
			}
		}
	}
	return b
}
