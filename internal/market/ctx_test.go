package market

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"scshare/internal/cloud"
)

// TestRunContextCanceledBeforeStart: a context canceled up front must stop
// the game before any model evaluation.
func TestRunContextCanceledBeforeStart(t *testing.T) {
	fed := testFederation()
	var evals atomic.Int64
	g := &Game{
		Federation: fed,
		Evaluator: EvaluatorFunc(func(shares []int, target int) (cloud.Metrics, error) {
			evals.Add(1)
			return cloud.Metrics{Utilization: 0.5}, nil
		}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := g.RunContext(ctx, nil)
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx = (%v, %v); want nil outcome wrapping context.Canceled", out, err)
	}
	if n := evals.Load(); n != 0 {
		t.Fatalf("canceled game still ran %d evaluations", n)
	}
}

// TestRunContextCancelStopsWorkers cancels a parallel game mid-flight: the
// run must return an error wrapping context.Canceled, evaluations must stop
// promptly, and the worker-pool goroutines must all exit.
func TestRunContextCancelStopsWorkers(t *testing.T) {
	fed := testFederation()
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	g := &Game{
		Federation: fed,
		Workers:    3,
		MaxRounds:  1000,
		Evaluator: EvaluatorFunc(func(shares []int, target int) (cloud.Metrics, error) {
			if evals.Add(1) == 2 {
				cancel()
			}
			// Keep the solve slow enough that cancellation lands mid-round.
			time.Sleep(200 * time.Microsecond)
			// An evaluator the game can never equilibrate on: utility keeps
			// improving with the share, so only cancellation ends the run.
			return cloud.Metrics{Utilization: 0.5, LendRate: float64(shares[target])}, nil
		}),
	}
	before := runtime.NumGoroutine()
	out, err := g.RunContext(ctx, nil)
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = (%v, %v); want nil outcome wrapping context.Canceled", out, err)
	}
	settled := evals.Load()
	// The pool must observe cancellation within one round: with 3 SCs and a
	// Tabu neighborhood of 2 no round issues more than a handful of solves.
	if settled > 64 {
		t.Fatalf("game ran %d evaluations after cancellation", settled)
	}
	waitForGoroutines(t, before)
	if again := evals.Load(); again != settled {
		t.Fatalf("evaluations kept running after RunContext returned: %d -> %d", settled, again)
	}
}

// TestRunMultiStartContextCancelIsHardError: cancellation must surface as a
// hard error from the multi-start selector, not as ErrNoEquilibrium.
func TestRunMultiStartContextCancelIsHardError(t *testing.T) {
	fed := testFederation()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := &Game{
		Federation: fed,
		Evaluator: EvaluatorFunc(func(shares []int, target int) (cloud.Metrics, error) {
			return cloud.Metrics{Utilization: 0.5}, nil
		}),
	}
	out, err := g.RunMultiStartContext(ctx, [][]int{nil, {1, 1, 1}}, AlphaUtilitarian)
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMultiStartContext = (%v, %v); want nil outcome wrapping context.Canceled", out, err)
	}
	if errors.Is(err, ErrNoEquilibrium) {
		t.Fatal("cancellation was misreported as a dead market")
	}
}

// TestRunMultiStartContextLoneStart pins the one-start path, which plays
// on the caller's goroutine: canceled, it is a hard error like any
// multi-start; live, it returns exactly what RunContext returns for that
// start, a dead market's terminal state included.
func TestRunMultiStartContextLoneStart(t *testing.T) {
	fed := toyFederation(0.4)
	mkGame := func(maxRounds int) *Game {
		return &Game{Federation: fed, Evaluator: Memoize(newToyEvaluator(t, fed)), Gamma: 0.5, MaxRounds: maxRounds}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := mkGame(0).RunMultiStartContext(ctx, [][]int{{1, 1, 1}}, AlphaUtilitarian)
	if out != nil || !errors.Is(err, context.Canceled) || errors.Is(err, ErrNoEquilibrium) {
		t.Fatalf("canceled lone start = (%v, %v); want nil outcome wrapping context.Canceled", out, err)
	}

	for _, maxRounds := range []int{0, 1} {
		for _, init := range [][]int{nil, {3, 0, 5}} {
			want, werr := mkGame(maxRounds).RunContext(context.Background(), init)
			got, gerr := mkGame(maxRounds).RunMultiStartContext(context.Background(), [][]int{init}, AlphaUtilitarian)
			if errors.Is(gerr, ErrNoEquilibrium) != errors.Is(werr, ErrNoEquilibrium) || (werr == nil) != (gerr == nil) {
				t.Fatalf("rounds %d, init %v: error %v, RunContext's %v", maxRounds, init, gerr, werr)
			}
			if want == nil || got == nil {
				t.Fatalf("rounds %d, init %v: outcome %v, RunContext's %v", maxRounds, init, got, want)
			}
			if fmt.Sprint(got.Shares) != fmt.Sprint(want.Shares) || got.Rounds != want.Rounds || got.Evals != want.Evals {
				t.Errorf("rounds %d, init %v: shares %v in %d rounds, %d evals; RunContext's %v in %d, %d",
					maxRounds, init, got.Shares, got.Rounds, got.Evals, want.Shares, want.Rounds, want.Evals)
			}
			for i := range want.Utilities {
				if math.Float64bits(got.Utilities[i]) != math.Float64bits(want.Utilities[i]) {
					t.Errorf("rounds %d, init %v: SC %d utility %v, RunContext's %v", maxRounds, init, i, got.Utilities[i], want.Utilities[i])
				}
			}
		}
	}
}

// waitForGoroutines polls until the goroutine count settles back to (or
// below) the pre-test baseline, failing after a generous deadline.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestMemoizeStats checks the hit/miss accounting behind the scserve
// /metrics cache line, over a per-target and a whole-vector delegate.
func TestMemoizeStats(t *testing.T) {
	base := EvaluatorFunc(func(shares []int, target int) (cloud.Metrics, error) {
		return cloud.Metrics{Utilization: float64(target)}, nil
	})
	ev := Memoize(allTargets{base})
	rep, ok := ev.(CacheStatsReporter)
	if !ok {
		t.Fatal("Memoize result does not report cache stats")
	}
	if s := rep.Stats(); s != (CacheStats{}) {
		t.Fatalf("fresh cache has stats %+v", s)
	}
	shares := []int{1, 2}
	if _, err := ev.Evaluate(shares, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Evaluate(shares, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Evaluate([]int{2, 1}, 1); err != nil {
		t.Fatal(err)
	}
	s := rep.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v; want 1 hit, 2 misses", s)
	}
	if got := s.HitRatio(); got < 0.33 || got > 0.34 {
		t.Fatalf("HitRatio() = %v; want ~1/3", got)
	}
	if (CacheStats{}).HitRatio() != 0 {
		t.Fatal("empty HitRatio must be 0")
	}

	// Whole-vector path: K per-target lookups of one vector are one miss
	// plus K-1 hits, and the AllEvaluator fast path counts too.
	allEv := Memoize(allFunc(func(shares []int) ([]cloud.Metrics, error) {
		return make([]cloud.Metrics, len(shares)), nil
	}))
	if _, err := allEv.Evaluate(shares, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := allEv.Evaluate(shares, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := allEv.EvaluateAll(shares); err != nil {
		t.Fatal(err)
	}
	s = allEv.(CacheStatsReporter).Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("whole-vector stats = %+v; want 2 hits, 1 miss", s)
	}
}

// allFunc adapts a whole-vector function to Evaluator + AllEvaluator.
type allFunc func(shares []int) ([]cloud.Metrics, error)

func (f allFunc) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	ms, err := f(shares)
	if err != nil {
		return cloud.Metrics{}, err
	}
	return ms[target], nil
}

func (f allFunc) EvaluateAll(shares []int) ([]cloud.Metrics, error) { return f(shares) }
