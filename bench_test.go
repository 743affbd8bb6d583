// Benchmarks regenerating every figure of the paper's evaluation
// (Sect. V). Each benchmark runs one figure generator on a reduced but
// shape-preserving grid, so `go test -bench=. -benchmem` reproduces the
// full evaluation in bounded time; EXPERIMENTS.md records paper-versus-
// measured results from the full grids. The Ablation benchmarks back the
// design-choice comparisons called out in DESIGN.md.
package scshare_test

import (
	"fmt"
	"testing"

	"scshare"
	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/core"
	"scshare/internal/fluid"
	"scshare/internal/market"
	"scshare/internal/markov"
)

// BenchmarkFig5Forwarding regenerates Fig. 5: forwarding probability vs
// utilization for 10- and 100-VM clouds at two SLAs, model vs simulation.
func BenchmarkFig5Forwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := scshare.Fig5(scshare.Fig5Options{
			Utilizations: []float64{0.4, 0.6, 0.8, 0.9},
			SimHorizon:   8000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 2 {
			b.Fatalf("got %d figures", len(figs))
		}
	}
}

// BenchmarkFig6TwoSC regenerates Figs. 6a/6b: approximate vs exact
// lend/borrow/public rates on the 2-SC federation.
func BenchmarkFig6TwoSC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := scshare.Fig6TwoSC(scshare.Fig6TwoSCOpts{
			TargetShares:  []int{1, 9},
			TargetLambdas: []float64{4, 7, 9},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 2 {
			b.Fatalf("got %d figures", len(figs))
		}
	}
}

// BenchmarkFig6TenSC regenerates Figs. 6c/6d: approximate model vs the
// discrete-event simulator on the 10-SC federation. This is the heaviest
// figure; the reduced grid keeps one target share and load point.
func BenchmarkFig6TenSC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := scshare.Fig6TenSC(scshare.Fig6TenSCOpts{
			TargetShares:  []int{1},
			TargetLambdas: []float64{7},
			SimHorizon:    20000,
			Approx:        approx.Config{Prune: 1e-5, PoolCap: 12},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 1 {
			b.Fatalf("got %d figures", len(figs))
		}
	}
}

// BenchmarkFig6Large regenerates Figs. 6e/6f: the 100-VM 2-SC federation.
func BenchmarkFig6Large(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := scshare.Fig6Large(scshare.Fig6LargeOpts{
			PeerUtils:   []float64{0.8},
			TargetUtils: []float64{0.7, 0.85},
			SimHorizon:  10000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 1 {
			b.Fatalf("got %d figures", len(figs))
		}
	}
}

// benchFig7 runs one Fig. 7 scenario on the fluid evaluator (full ratio
// grid) — the approximate-model variant is exercised separately because of
// its cost.
func benchFig7(b *testing.B, idx int) {
	b.Helper()
	sc := scshare.PaperFig7Scenarios()[idx]
	for i := 0; i < b.N; i++ {
		fig, err := scshare.Fig7(scshare.Fig7Options{Scenario: sc, Model: core.ModelFluid})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig7a..d regenerate the four market scenarios of Fig. 7.
func BenchmarkFig7a(b *testing.B) { benchFig7(b, 0) }
func BenchmarkFig7b(b *testing.B) { benchFig7(b, 1) }
func BenchmarkFig7c(b *testing.B) { benchFig7(b, 2) }
func BenchmarkFig7d(b *testing.B) { benchFig7(b, 3) }

// BenchmarkFig7aApproxModel runs the 7a sweep with the paper's approximate
// performance model on a reduced ratio grid.
func BenchmarkFig7aApproxModel(b *testing.B) {
	sc := scshare.PaperFig7Scenarios()[0]
	for i := 0; i < b.N; i++ {
		fig, err := scshare.Fig7(scshare.Fig7Options{
			Scenario: sc,
			Ratios:   []float64{0.3, 0.7},
			MaxShare: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// benchSweepDriver runs the Fig. 7a sweep with the paper's approximate
// performance model through the batch driver at the given grid-level worker
// count. Workers is the only knob: both settings share the driver's
// warm-start chaining and cache sharing, so the pair isolates the wall-clock
// effect of fanning the price grid across the pool.
func benchSweepDriver(b *testing.B, workers int) {
	b.Helper()
	sc := scshare.PaperFig7Scenarios()[0]
	for i := 0; i < b.N; i++ {
		fig, err := scshare.Fig7(scshare.Fig7Options{
			Scenario: sc,
			Ratios:   []float64{0.2, 0.4, 0.6, 0.8},
			MaxShare: 4,
			Workers:  workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkSweepDriverSerial and BenchmarkSweepDriverParallel record the
// whole-sweep wall clock on the serial schedule and on the worker pool
// (Workers 0 = GOMAXPROCS); BENCH_3.json tracks their ratio.
func BenchmarkSweepDriverSerial(b *testing.B)   { benchSweepDriver(b, 1) }
func BenchmarkSweepDriverParallel(b *testing.B) { benchSweepDriver(b, 0) }

// BenchmarkFig8aApproxTime regenerates Fig. 8a: the approximate model's
// cost as the federation grows.
func BenchmarkFig8aApproxTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := scshare.Fig8a(scshare.Fig8aOptions{Ks: []int{2, 4, 6}})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 3 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFig8bGameIterations regenerates Fig. 8b: repeated-game rounds
// to equilibrium vs federation size and Tabu distance.
func BenchmarkFig8bGameIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := scshare.Fig8b(scshare.Fig8bOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// --- Ablations (DESIGN.md Sect. 7) ---

func ablationFederation() (cloud.Federation, []int) {
	return cloud.Federation{
		SCs: []cloud.SC{
			{Name: "peer", VMs: 10, ArrivalRate: 7, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "target", VMs: 10, ArrivalRate: 7, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
		FederationPrice: 0.5,
	}, []int{5, 5}
}

// BenchmarkAblationApproxOnePass measures the paper-literal single-pass
// hierarchy (first level never lends) on a reused solver handle — the
// product configuration since the evaluators pool handles per worker.
func BenchmarkAblationApproxOnePass(b *testing.B) {
	fed, shares := ablationFederation()
	solver, err := approx.NewSolver(approx.Config{
		Federation: fed, Shares: shares, Passes: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationApproxTwoPass measures the feedback refinement.
func BenchmarkAblationApproxTwoPass(b *testing.B) {
	fed, shares := ablationFederation()
	solver, err := approx.NewSolver(approx.Config{
		Federation: fed, Shares: shares, Passes: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(1); err != nil {
			b.Fatal(err)
		}
	}
}

// The whole-vector ablation: one approx.SolveAll against K per-target
// hierarchies on a 4-SC federation — the ratio is the PR 5 payoff.
func ablationFederation4() (cloud.Federation, []int) {
	return cloud.Federation{
		SCs: []cloud.SC{
			{Name: "a", VMs: 10, ArrivalRate: 7, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "b", VMs: 10, ArrivalRate: 5, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "c", VMs: 10, ArrivalRate: 8, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "d", VMs: 10, ArrivalRate: 6, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
		FederationPrice: 0.5,
	}, []int{3, 2, 4, 3}
}

// BenchmarkAblationApproxEvaluateAll measures the shared-spine whole-vector
// solve for all K SCs at once.
func BenchmarkAblationApproxEvaluateAll(b *testing.B) {
	fed, shares := ablationFederation4()
	solver, err := approx.NewSolver(approx.Config{Federation: fed, Shares: shares})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SolveAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationApproxKTargets measures the pre-SolveAll alternative: K
// independent per-target hierarchies for the same metrics vector.
func BenchmarkAblationApproxKTargets(b *testing.B) {
	fed, shares := ablationFederation4()
	solver, err := approx.NewSolver(approx.Config{Federation: fed, Shares: shares})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for t := range shares {
			if _, err := solver.Solve(t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// kScalingFederation builds the BENCH_6 federation: K small clouds with a
// cycling utilization profile, every SC sharing 2 VMs.
func kScalingFederation(k int) (cloud.Federation, []int) {
	utils := []float64{0.7, 0.5, 0.8, 0.6, 0.75, 0.65, 0.85, 0.55}
	fed := cloud.Federation{FederationPrice: 0.5}
	shares := make([]int, k)
	for i := 0; i < k; i++ {
		fed.SCs = append(fed.SCs, cloud.SC{
			Name: fmt.Sprintf("sc%d", i), VMs: 10,
			ArrivalRate: 10 * utils[i%len(utils)], ServiceRate: 1, SLA: 0.2, PublicPrice: 1,
		})
		shares[i] = 2
	}
	return fed, shares
}

// BenchmarkApproxKScaling is the BENCH_6 large-K cost curve: whole-vector
// SolveAll on one reused solver handle for K = 4..32. The rows keep their
// "/W=1" suffix, which BENCH_6 and scripts/bench.sh key on; the solver is
// serial. PoolCap pins the interaction grid at the K=4 pool size (every SC
// shares 2 VMs, so K=4 saturates the cap exactly) the way every large-K
// caller bounds it — without a cap the auto-sized pool dimension grows
// linearly in K and the curve would measure grid growth, not K-scaling.
// With the grid fixed, ns/sc is the per-SC solve cost whose sublinearity
// in K the allocation diet is accountable for; allocs/op and B/op track
// the arena reuse.
func BenchmarkApproxKScaling(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("K=%d/W=1", k), func(b *testing.B) {
			fed, shares := kScalingFederation(k)
			solver, err := approx.NewSolver(approx.Config{
				Federation: fed, Shares: shares,
				Prune: 1e-5, PoolCap: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			// One untimed solve builds the arenas; the timed loop measures
			// the steady-state reuse path.
			if _, err := solver.SolveAll(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solver.SolveAll(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/sc")
		})
	}
}

// Steady-state solver ablation: Gauss-Seidel vs power iteration on a
// federation-sized chain.
func ablationChain(b *testing.B) *markov.CTMC {
	b.Helper()
	const n = 5000
	bl := markov.NewBuilder(n)
	for q := 0; q < n-1; q++ {
		bl.Add(q, q+1, 7)
		bl.Add(q+1, q, float64(min(q+1, 10)))
		if q%7 == 0 && q+3 < n {
			bl.Add(q, q+3, 0.5)
		}
	}
	c, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkAblationSteadyStateGaussSeidel(b *testing.B) {
	c := ablationChain(b)
	// One untimed solve populates the chain's cached transpose, so the
	// timed iterations measure solver sweeps, not buffer assembly.
	if _, err := c.SteadyStateGaussSeidel(markov.SteadyStateOptions{Tol: 1e-9}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SteadyStateGaussSeidel(markov.SteadyStateOptions{Tol: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSteadyStatePower(b *testing.B) {
	c := ablationChain(b)
	if _, err := c.SteadyState(markov.SteadyStateOptions{Tol: 1e-9}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SteadyState(markov.SteadyStateOptions{Tol: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// Performance-model ablation on identical inputs: the paper's hierarchy vs
// the coarse fluid fixed point.
func BenchmarkAblationModelApprox(b *testing.B) {
	fed, shares := ablationFederation()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scshare.ApproxMetrics(fed, shares, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationModelFluid(b *testing.B) {
	fed, shares := ablationFederation()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scshare.FluidMetrics(fed, shares); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGameRound measures whole repeated games on the parallel
// best-response path (Workers = GOMAXPROCS) for growing federations. Each
// iteration rebuilds its evaluator, so the timing covers real solves, not
// cache hits from earlier iterations.
func BenchmarkGameRound(b *testing.B) {
	utils := []float64{0.85, 0.7, 0.6, 0.8, 0.65, 0.75, 0.9, 0.55}
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			fed := cloud.Federation{FederationPrice: 0.4}
			for i := 0; i < k; i++ {
				fed.SCs = append(fed.SCs, cloud.SC{
					Name: fmt.Sprintf("sc%d", i), VMs: 50,
					ArrivalRate: utils[i%len(utils)] * 50, ServiceRate: 1, SLA: 0.2, PublicPrice: 1,
				})
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := &market.Game{
					Federation: fed,
					Evaluator:  market.Memoize(fluid.NewEvaluator(fed, fluid.Options{})),
					Gamma:      0.5,
					MaxRounds:  100,
				}
				if _, err := g.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWarmVsCold quantifies the warm-start payoff on the
// hierarchy solves: per op it runs the same neighboring-share solve cold
// and warm and reports both solver iteration counts as custom metrics.
func BenchmarkAblationWarmVsCold(b *testing.B) {
	fed, shares := ablationFederation()
	neighbor := []int{shares[0] + 1, shares[1]}
	b.ReportAllocs()
	// solveOnce runs one per-target solve on a fresh handle with its own
	// iteration counter (Stats is bound at construction).
	solveOnce := func(sh []int, warm *approx.WarmCache, stats *markov.SolveStats) {
		solver, err := approx.NewSolver(approx.Config{
			Federation: fed, Shares: sh,
			Warm: warm, Solver: markov.SteadyStateOptions{Stats: stats},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := solver.Solve(1); err != nil {
			b.Fatal(err)
		}
	}
	var coldIters, warmIters int
	for i := 0; i < b.N; i++ {
		warm := approx.NewWarmCache()
		solveOnce(shares, warm, &markov.SolveStats{})
		ws := &markov.SolveStats{}
		solveOnce(neighbor, warm, ws)
		cs := &markov.SolveStats{}
		solveOnce(neighbor, nil, cs)
		coldIters += cs.Iterations
		warmIters += ws.Iterations
	}
	b.ReportMetric(float64(coldIters)/float64(b.N), "cold-iters/op")
	b.ReportMetric(float64(warmIters)/float64(b.N), "warm-iters/op")
}
