package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"scshare/internal/market"
)

// SweepOptions tunes the batch price-sweep driver (DESIGN.md §10).
type SweepOptions struct {
	// Workers bounds how many price points are processed concurrently.
	// Each point runs its own repeated game, but every point shares the
	// framework's one memoized evaluator (and, for the approximate model,
	// its warm-start caches) — legal because performance metrics do not
	// depend on prices. Results always merge in ratio order, so with a
	// key-deterministic evaluator the output is bit-identical across
	// Workers settings: the same determinism contract as Game.Workers, one
	// level up. 0 means GOMAXPROCS; 1 forces the serial schedule.
	Workers int
	// WarmStart seeds each point's multi-start initials with the nearest
	// lower-ratio point's converged equilibrium shares. Neighboring prices
	// have neighboring equilibria, so the chained game typically converges
	// in a round or two. The chain orders the game phase along the grid
	// (point i's game waits for point i-1's); the per-alpha welfare
	// scoring still overlaps freely across workers, and the chain is part
	// of the schedule, so parallel output remains identical to serial.
	WarmStart bool
	// OnPoint, when non-nil, is invoked once per finished grid point with
	// the point's index into the ratio grid and its completed SweepPoint —
	// the hook behind scserve's streamed per-point sweep progress. Under
	// Workers > 1 points finish out of grid order, but calls are serialized
	// by the driver, so the callback needs no locking of its own. A point
	// that fails with a hard error (including cancellation) produces no
	// callback.
	OnPoint func(index int, pt SweepPoint)
}

// SweepPrices reproduces the Fig. 7 experiments on the serial schedule: for
// every ratio C^G/C^P it finds a market equilibrium and scores its welfare
// against the empirical market-efficient value for each alpha. It is
// shorthand for Sweep with SweepOptions{Workers: 1}.
func (f *Framework) SweepPrices(ratios, alphas []float64, initials [][]int) ([]SweepPoint, error) {
	return f.Sweep(ratios, alphas, initials, SweepOptions{Workers: 1})
}

// Sweep is the batch price-sweep driver: it fans the ratio grid across a
// bounded worker pool, shares one memoized evaluator (and one welfare
// planner with its whole-vector metrics cache) across all points, and
// optionally warm-starts each point's game from its grid neighbor's
// equilibrium. Dead markets — points where no start converges — report the
// terminal shares of the best non-converged run with -Inf welfare and zero
// efficiency. It is shorthand for SweepContext with a background context.
func (f *Framework) Sweep(ratios, alphas []float64, initials [][]int, opts SweepOptions) ([]SweepPoint, error) {
	return f.SweepContext(context.Background(), ratios, alphas, initials, opts)
}

// SweepContext is Sweep under a context. Every grid point's game observes
// the context (see market.Game.RunContext), undispatched points are never
// started once it is canceled, and a point blocked on its warm-start
// neighbor is released immediately. A canceled sweep returns nil points and
// an error wrapping ctx.Err(); points already streamed through
// SweepOptions.OnPoint remain valid.
func (f *Framework) SweepContext(ctx context.Context, ratios, alphas []float64, initials [][]int, opts SweepOptions) ([]SweepPoint, error) {
	if len(ratios) == 0 || len(alphas) == 0 {
		return nil, errors.New("core: sweep needs at least one ratio and one alpha")
	}
	minPublic := math.Inf(1)
	for _, sc := range f.cfg.Federation.SCs {
		if sc.PublicPrice < minPublic {
			minPublic = sc.PublicPrice
		}
	}
	// One welfare planner serves the whole sweep: the no-sharing baselines
	// and the per-vector metrics it caches are price-independent, so the
	// per-(ratio, alpha) empirical-max searches recombine cached
	// whole-vector evaluations instead of re-enumerating per ratio.
	we, err := market.NewWelfareEvaluator(f.cfg.Federation, f.eval, f.cfg.Gamma)
	if err != nil {
		return nil, err
	}

	base := initials
	if len(base) == 0 {
		base = [][]int{nil}
	}
	n := len(ratios)
	pts := make([]SweepPoint, n)
	errs := make([]error, n)
	// With WarmStart, warm[i] carries the latest converged equilibrium at
	// or below point i along the grid; gameDone[i] closes when point i's
	// game phase is over (its scoring may still be running).
	var gameDone []chan struct{}
	warm := make([][]int, n)
	if opts.WarmStart {
		gameDone = make([]chan struct{}, n)
		for i := range gameDone {
			gameDone[i] = make(chan struct{})
		}
	}

	// report streams one finished point through OnPoint; the mutex keeps
	// concurrent workers' callbacks serialized.
	var onPointMu sync.Mutex
	report := func(i int) {
		if opts.OnPoint == nil {
			return
		}
		onPointMu.Lock()
		defer onPointMu.Unlock()
		opts.OnPoint(i, pts[i])
	}

	run := func(i int) {
		r := ratios[i]
		fed := f.cfg.Federation
		fed.FederationPrice = r * minPublic
		pt := &pts[i]
		pt.Ratio, pt.Price = r, fed.FederationPrice

		starts := base
		if opts.WarmStart && i > 0 {
			// A canceled context releases the warm-start chain: the
			// neighbor may never close its channel if it was undispatched.
			select {
			case <-gameDone[i-1]:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				close(gameDone[i])
				return
			}
			if prev := warm[i-1]; prev != nil {
				starts = append(append([][]int{}, base...), prev)
			}
		}
		outc, err := f.game(fed).RunMultiStartContext(ctx, starts, alphas[0])
		if opts.WarmStart {
			if err == nil && outc.Converged {
				warm[i] = outc.Shares
			} else if i > 0 {
				warm[i] = warm[i-1]
			}
			close(gameDone[i])
		}
		if err != nil {
			if !errors.Is(err, market.ErrNoEquilibrium) {
				errs[i] = fmt.Errorf("core: sweep at ratio %v: %w", r, err)
				return
			}
			// A non-converging price point is reported as a dead market,
			// keeping the terminal state of the best non-converged run.
			pt.Welfare = make([]float64, len(alphas))
			pt.Efficiency = make([]float64, len(alphas))
			for ai := range pt.Welfare {
				pt.Welfare[ai] = math.Inf(-1)
			}
			if outc != nil {
				pt.Shares = outc.Shares
				pt.Utilities = outc.Utilities
				pt.Rounds = outc.Rounds
			}
			report(i)
			return
		}
		pt.Converged = true
		pt.Shares = outc.Shares
		pt.Utilities = outc.Utilities
		pt.Rounds = outc.Rounds
		totalShared := 0
		for _, s := range outc.Shares {
			totalShared += s
		}
		for _, alpha := range alphas {
			w, err := market.Welfare(alpha, outc.Shares, outc.Utilities)
			if err != nil {
				errs[i] = err
				return
			}
			_, best, err := we.MaximizeWelfareAt(fed.FederationPrice, alpha, f.cfg.MaxShares, nil)
			if err != nil {
				errs[i] = err
				return
			}
			pt.Welfare = append(pt.Welfare, w)
			pt.Efficiency = append(pt.Efficiency, market.Efficiency(w, best, float64(totalShared)))
		}
		report(i)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && runtime.NumCPU() > 1 && ctx.Err() == nil {
		// Speculatively enumerate the (small) strategy box across the pool
		// before touching the grid: the lazy empirical-max ascents and the
		// games discover these price-independent metrics one at a time on
		// the critical path, while the box evaluates embarrassingly
		// parallel. Points then run almost entirely on cache hits. Prime
		// trades total work for wall clock (it may evaluate vectors no
		// search visits), so it only pays off with real cores behind the
		// pool — on a single CPU the extra work is pure slowdown. It
		// observes ctx, so a canceled sweep stops enumerating at once.
		we.Prime(ctx, f.cfg.MaxShares, workers)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			run(i)
		}
	} else {
		// Points are dispatched in grid order, so with WarmStart every
		// point's predecessor is already done or in flight — the chain
		// drains front to back and cannot deadlock. Cancellation stops the
		// dispatch; in-flight points unwind through their games' own
		// context checks.
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					run(i)
				}
			}()
		}
	dispatch:
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(next)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: sweep canceled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pts, nil
}
