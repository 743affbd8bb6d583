package approx

import (
	"fmt"
	"math"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/markov"
	"scshare/internal/numeric"
	"scshare/internal/queueing"
)

// fluxBound walks queueCap's product bound from q = VMs through q = last
// and returns its value there (a bound on the steady mass of row last+1)
// and one row earlier (1 at q = VMs, the bound on row VMs itself).
func fluxBound(sc cloud.SC, share, poolDim, last int) (at, before float64) {
	b, prev := 1.0, 1.0
	for q := sc.VMs; q <= last; q++ {
		prev = b
		r := sc.ArrivalRate * queueing.PNoForward(q+poolDim, sc.VMs+poolDim, sc.ServiceRate, sc.SLA) /
			(float64(sc.VMs-share) * sc.ServiceRate)
		b = min(1, b*r)
	}
	return b, prev
}

// TestQueueCapFluxBound: the cap never leaves [VMs, queueCapLimit], and
// where it cuts below the limit it cuts at the first row whose flux bound
// on the next row's steady mass is below queueTailEps.
func TestQueueCapFluxBound(t *testing.T) {
	type tc struct {
		name         string
		sc           cloud.SC
		share, pool  int
		wantLimit    bool // share == VMs: no guaranteed down-rate
		wantBelowLim bool // the bound must actually cut
	}
	var cases []tc
	for _, rate := range []float64{5.8, 7.3, 8.4} {
		sc := cloud.SC{VMs: 10, ArrivalRate: rate, ServiceRate: 1, SLA: 0.2}
		for share := 0; share <= 2; share++ {
			for poolDim := 1; poolDim <= 4; poolDim++ {
				cases = append(cases, tc{name: fmt.Sprintf("box λ=%v S=%d B=%d", rate, share, poolDim),
					sc: sc, share: share, pool: poolDim, wantBelowLim: true})
			}
		}
	}
	cases = append(cases,
		tc{name: "share == VMs", sc: cloud.SC{VMs: 10, ArrivalRate: 7.3, ServiceRate: 1, SLA: 0.2},
			share: 10, pool: 4, wantLimit: true},
		tc{name: "overloaded", sc: cloud.SC{VMs: 10, ArrivalRate: 15, ServiceRate: 1, SLA: 0.2},
			share: 2, pool: 4},
		tc{name: "long SLA", sc: cloud.SC{VMs: 10, ArrivalRate: 8.4, ServiceRate: 1, SLA: 5},
			share: 1, pool: 3},
		tc{name: "one VM", sc: cloud.SC{VMs: 1, ArrivalRate: 0.7, ServiceRate: 1, SLA: 0.2},
			share: 0, pool: 2},
		tc{name: "one VM lent", sc: cloud.SC{VMs: 1, ArrivalRate: 0.7, ServiceRate: 1, SLA: 0.2},
			share: 1, pool: 2, wantLimit: true},
	)
	for _, c := range cases {
		got := queueCap(c.sc, c.share, c.pool)
		limit := queueCapLimit(c.sc, c.pool)
		if got < c.sc.VMs || got > limit {
			t.Errorf("%s: queueCap = %d, want within [%d, %d]", c.name, got, c.sc.VMs, limit)
			continue
		}
		if c.wantLimit && got != limit {
			t.Errorf("%s: queueCap = %d, want the limit %d", c.name, got, limit)
		}
		if c.wantBelowLim && got == limit {
			t.Errorf("%s: queueCap = %d is the limit; the flux bound should cut below it", c.name, got)
		}
		if got == limit {
			continue
		}
		at, before := fluxBound(c.sc, c.share, c.pool, got)
		if at >= queueTailEps {
			t.Errorf("%s: queueCap = %d but the bound there is %g >= %g", c.name, got, at, queueTailEps)
		}
		if before < queueTailEps {
			t.Errorf("%s: queueCap = %d but the bound one row earlier is already %g < %g", c.name, got, before, queueTailEps)
		}
	}
}

// solveFirstLevel builds and solves a predecessor-less level of SC sc
// (share, pool, poolDim, successor-demand rate demand) at Tol tol, with
// the queue cut at qmax instead of queueCap's choice when qmax > 0.
func solveFirstLevel(t *testing.T, sc cloud.SC, share, pool, poolDim int, demand float64, qmax int, tol float64) *level {
	t.Helper()
	sl := newLevelSlot(new([]stepWork))
	sl.lv.reset(sc, share, pool, poolDim)
	if qmax > 0 {
		sl.lv.qmax = qmax
	}
	sl.inter.reset(nil, share, nil, 0, DefaultTruncEps)
	sl.inter.preserveS = demand > 0
	if err := sl.build(demand, markov.SteadyStateOptions{Tol: tol, Work: &sl.work}); err != nil {
		t.Fatal(err)
	}
	return &sl.lv
}

// TestQueueCapTailMass solves the sweep box's predecessor-less levels,
// with and without the successor-demand process, once at queueCap and
// once with the queue cut at queueCapLimit as before: the steady mass the
// longer chain puts above queueCap is below queueTailEps, and the two
// chains' metrics agree far inside the solver tolerance.
func TestQueueCapTailMass(t *testing.T) {
	const (
		refTol       = 1e-14
		metricRelTol = 1e-12
		relErrFloor  = 1e-300
	)
	seen := map[string]bool{}
	worstTail, worstRel := 0.0, 0.0
	for _, v := range sweepBox() {
		sc, share := v.fed.SCs[0], v.shares[0]
		pool := cloud.PoolExcluding(v.shares, 0)
		poolDim := min(pool, 4)
		for _, demand := range []float64{0, 0.3} {
			name := fmt.Sprintf("%s S=%d B=%d demand=%v", sc.Name, share, pool, demand)
			if seen[name] {
				continue
			}
			seen[name] = true
			cut := solveFirstLevel(t, sc, share, pool, poolDim, demand, 0, refTol)
			limit := queueCapLimit(sc, poolDim)
			if cut.qmax >= limit {
				t.Fatalf("%s: queueCap %d does not cut below the limit %d", name, cut.qmax, limit)
			}
			full := solveFirstLevel(t, sc, share, pool, poolDim, demand, limit, refTol)
			tail := 0.0
			for idx, p := range full.steady {
				if q, _, _, _ := full.decode(idx); q > cut.qmax {
					tail += p
				}
			}
			worstTail = math.Max(worstTail, tail)
			if tail >= queueTailEps {
				t.Errorf("%s: steady mass above q = %d is %g, want < %g", name, cut.qmax, tail, queueTailEps)
			}
			got, want := cut.metrics(), full.metrics()
			for _, x := range []struct {
				name      string
				got, want float64
			}{
				{"PublicRate", got.PublicRate, want.PublicRate},
				{"BorrowRate", got.BorrowRate, want.BorrowRate},
				{"LendRate", got.LendRate, want.LendRate},
				{"Utilization", got.Utilization, want.Utilization},
				{"ForwardProb", got.ForwardProb, want.ForwardProb},
			} {
				e := numeric.RelErr(x.got, x.want, relErrFloor)
				worstRel = math.Max(worstRel, e)
				if e > metricRelTol {
					t.Errorf("%s: %s = %v at qmax %d, %v at qmax %d: relative difference %.3g > %g",
						name, x.name, x.got, cut.qmax, x.want, full.qmax, e, metricRelTol)
				}
			}
		}
	}
	t.Logf("%d levels: largest steady mass above the cap %.3g, worst relative metric difference %.3g",
		len(seen), worstTail, worstRel)
}
