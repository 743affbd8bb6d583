package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"scshare/internal/approx"
	"scshare/internal/market"
)

// TestSweepContextCanceledBeforeStart: a pre-canceled context must stop the
// sweep before any grid point runs, on both schedules.
func TestSweepContextCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ratios := []float64{0.2, 0.4, 0.6}
	alphas := []float64{market.AlphaUtilitarian}
	for _, workers := range []int{1, 4} {
		f := fig7aFramework(t, 0)
		var calls int
		pts, err := f.SweepContext(ctx, ratios, alphas, nil, SweepOptions{
			Workers: workers,
			OnPoint: func(int, SweepPoint) { calls++ },
		})
		if pts != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: SweepContext = (%v, %v); want nil points wrapping context.Canceled", workers, pts, err)
		}
		if calls != 0 {
			t.Fatalf("workers=%d: canceled sweep still streamed %d points", workers, calls)
		}
	}
}

// TestSweepContextCancelMidSweep cancels after the first streamed point and
// checks that the sweep unwinds — including the warm-start chain, whose
// blocked successors must be released rather than deadlock.
func TestSweepContextCancelMidSweep(t *testing.T) {
	ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	alphas := []float64{market.AlphaUtilitarian}
	for _, workers := range []int{1, 4} {
		f := fig7aFramework(t, 0)
		ctx, cancel := context.WithCancel(context.Background())
		streamed := 0
		pts, err := f.SweepContext(ctx, ratios, alphas, nil, SweepOptions{
			Workers:   workers,
			WarmStart: true,
			OnPoint: func(int, SweepPoint) {
				streamed++
				cancel()
			},
		})
		if pts != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: SweepContext = (%v, %v); want nil points wrapping context.Canceled", workers, pts, err)
		}
		// The cancel lands while later points may already be in flight, so a
		// few more can complete — but nowhere near the full grid.
		if streamed == 0 || streamed > workers+1 {
			t.Fatalf("workers=%d: %d points streamed after first-point cancel", workers, streamed)
		}
		cancel()
	}
}

// TestSweepContextCancelDuringPrime: canceling while Prime enumerates the
// strategy box must stop the enumeration itself, not only the grid behind
// it. The context is canceled once the first box vector is solved; the
// sweep must return context.Canceled with only the vectors then in flight
// solved, not the whole 64-vector box.
func TestSweepContextCancelDuringPrime(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("Prime only runs with two or more CPUs")
	}
	const workers = 2
	f, err := New(Config{
		Federation: fig7aFed(),
		Model:      ModelApprox,
		Gamma:      market.UF0,
		MaxShares:  []int{3, 3, 3},
		Approx:     approx.Config{Passes: 1, Prune: 1e-4, PoolCap: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := f.Evaluator().(market.CacheStatsReporter)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for rep.Stats().Misses == 0 {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
		cancel()
	}()
	pts, err := f.SweepContext(ctx, []float64{0.3, 0.6}, []float64{market.AlphaUtilitarian}, nil, SweepOptions{Workers: workers})
	if pts != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("SweepContext = (%v, %v); want nil points wrapping context.Canceled", pts, err)
	}
	if got := rep.Stats().Misses; got > 2*workers {
		t.Fatalf("canceled sweep solved %d of the 64 box vectors; want only those in flight", got)
	}
}

// TestSweepOnPointStreamsEveryPoint: OnPoint must fire exactly once per
// grid point with the same data the returned slice carries, in grid order
// on the serial schedule.
func TestSweepOnPointStreamsEveryPoint(t *testing.T) {
	ratios := []float64{0.2, 0.4, 0.6, 0.8}
	alphas := []float64{market.AlphaUtilitarian, market.AlphaMaxMin}
	for _, workers := range []int{1, 4} {
		f := fig7aFramework(t, 0)
		var mu sync.Mutex
		var indexes []int
		streamed := make(map[int]SweepPoint)
		pts, err := f.SweepContext(context.Background(), ratios, alphas, nil, SweepOptions{
			Workers:   workers,
			WarmStart: true,
			OnPoint: func(i int, pt SweepPoint) {
				mu.Lock()
				defer mu.Unlock()
				indexes = append(indexes, i)
				streamed[i] = pt
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(streamed) != len(ratios) {
			t.Fatalf("workers=%d: streamed %d of %d points", workers, len(streamed), len(ratios))
		}
		if workers == 1 && !sort.IntsAreSorted(indexes) {
			t.Fatalf("serial schedule streamed out of order: %v", indexes)
		}
		for i, pt := range pts {
			if !reflect.DeepEqual(streamed[i], pt) {
				t.Fatalf("workers=%d: streamed point %d differs from returned point:\n%+v\n%+v", workers, i, streamed[i], pt)
			}
		}
	}
}

// TestAdviseAtReusesEvaluator: advising at two prices through one framework
// must answer the second almost entirely from the shared cache, and must
// agree with a framework configured at that price directly — the scserve
// cross-request reuse contract.
func TestAdviseAtReusesEvaluator(t *testing.T) {
	f := fig7aFramework(t, 0)
	a1, err := f.AdviseAt(context.Background(), 0.3, nil, market.AlphaUtilitarian)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := f.Evaluator().(market.CacheStatsReporter)
	if !ok {
		t.Fatal("framework evaluator does not report cache stats")
	}
	afterFirst := rep.Stats()
	a2, err := f.AdviseAt(context.Background(), 0.7, nil, market.AlphaUtilitarian)
	if err != nil {
		t.Fatal(err)
	}
	afterSecond := rep.Stats()
	if a1.FederationPrice != 0.3 || a2.FederationPrice != 0.7 {
		t.Fatalf("advice prices = %v, %v", a1.FederationPrice, a2.FederationPrice)
	}
	if afterSecond.Hits <= afterFirst.Hits {
		t.Fatalf("second price gained no cache hits: %+v -> %+v", afterFirst, afterSecond)
	}

	fresh, err := New(Config{
		Federation: fig7aFed(),
		Model:      ModelFluid,
		Gamma:      market.UF0,
		MaxShares:  []int{4, 4, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fresh.AdviseAt(context.Background(), 0.7, nil, market.AlphaUtilitarian)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a2.SCs {
		if a2.SCs[i].Share != direct.SCs[i].Share {
			t.Fatalf("shared-cache advice diverged from direct advice: %+v vs %+v", a2.SCs, direct.SCs)
		}
	}

	// A price above every public price must be rejected, not solved.
	if _, err := f.AdviseAt(context.Background(), 2.0, nil, market.AlphaUtilitarian); err == nil {
		t.Fatal("AdviseAt accepted an inverted federation price")
	}
}
