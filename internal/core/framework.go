// Package core assembles SC-Share, the paper's headline framework (Fig. 2):
// a performance model that turns sharing decisions into per-SC cost and
// utilization estimates, coupled in a feedback loop with the market-based
// game that turns those estimates into new sharing decisions, iterated to a
// market equilibrium. Pricing guidance comes from sweeping the federation
// price ratio C^G/C^P and scoring each equilibrium's alpha-fair welfare
// against the empirical market-efficient allocation (Sect. V-B / Fig. 7).
package core

import (
	"context"
	"errors"
	"fmt"

	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/market"
)

// ModelKind selects the performance model backing the framework. It is an
// alias of market.Kind, so framework configuration and the market's
// evaluator constructors speak the same enum.
type ModelKind = market.Kind

const (
	// ModelApprox is the hierarchical approximate model (the paper's
	// choice for market experiments).
	ModelApprox = market.KindApprox
	// ModelExact is the detailed CTMC; feasible only for tiny federations.
	ModelExact = market.KindExact
	// ModelSim estimates metrics by discrete-event simulation.
	ModelSim = market.KindSim
	// ModelFluid is the fast fixed-point mean-field model; coarse, but
	// cheap enough for large federations and wide strategy spaces.
	ModelFluid = market.KindFluid
)

// Config parameterizes the framework.
type Config struct {
	Federation cloud.Federation
	// Model picks the performance model (default ModelApprox).
	Model ModelKind
	// Gamma is the Eq. (2) utility exponent shared by the SCs.
	Gamma float64
	// TabuDistance and MaxRounds tune the repeated game.
	TabuDistance int
	MaxRounds    int
	// MaxShares optionally caps each SC's strategy space (default: all
	// VMs). Smaller caps speed up sweeps considerably.
	MaxShares []int
	// Approx tunes the approximate model (queue caps, pruning, passes).
	Approx approx.Config
	// SimHorizon and SimSeed configure ModelSim.
	SimHorizon float64
	SimSeed    int64
}

// Framework is a configured SC-Share instance.
type Framework struct {
	cfg  Config
	eval market.AllEvaluator
	// bases holds every SC's no-sharing metrics, as New took them from
	// the participation evaluator: the games read them, nothing writes
	// them.
	bases []cloud.Metrics
	// prune is the framework-wide truncation account (shared the same way):
	// every approx solve run on behalf of this framework records the mass
	// its adaptive truncation discarded, so callers can ask whether the
	// speed/accuracy diet visibly shaped the results.
	prune *approx.PruneCounter
}

// Baseline describes one SC outside the federation.
type Baseline struct {
	Cost        float64
	Utilization float64
	ForwardProb float64
}

// New validates the configuration and prepares the (memoized) performance
// evaluator.
func New(cfg Config) (*Framework, error) {
	if err := cfg.Federation.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The negated-range form also rejects NaN, which would otherwise slip
	// through both one-sided comparisons into the Eq. (2) exponent.
	if !(cfg.Gamma >= 0 && cfg.Gamma <= 1) {
		return nil, market.ErrBadGamma
	}
	// The games and the welfare planner take the box as given, so a wrong
	// length or an entry outside [0, VMs] must fail here, not mid-game.
	if cfg.MaxShares != nil {
		if err := cfg.Federation.ValidateShares(cfg.MaxShares); err != nil {
			return nil, fmt.Errorf("core: max shares: %w", err)
		}
	}
	f := &Framework{cfg: cfg}
	kind := cfg.Model
	if kind == 0 {
		kind = ModelApprox
	}
	if !kind.Valid() {
		return nil, errors.New("core: unknown performance model kind")
	}
	opts := market.EvaluatorOptions{
		Approx:     cfg.Approx,
		SimHorizon: cfg.SimHorizon,
		SimSeed:    cfg.SimSeed,
	}
	if opts.Approx.Warm == nil {
		// One warm cache for the whole framework: the participation game
		// builds a separate evaluator per sub-federation, and under the
		// ApproxEvaluator ownership rule sharing warmth across them must be
		// explicit — the warmKey's chain length keeps sub-federations of
		// different sizes apart, and a mismatched seed only costs iterations,
		// never accuracy. It lives and dies with this process: Snapshot
		// exports the memo's solved vectors, not these start vectors.
		opts.Approx.Warm = approx.NewWarmCache()
	}
	if opts.Approx.PruneStats == nil {
		// One truncation account for the whole framework, for the same
		// reason as the warm cache: sub-federation evaluators come and go,
		// and the question "did truncation shed noticeable mass" is about
		// the framework's results as a whole. Harmless under the other
		// model kinds — nothing ever records into it.
		opts.Approx.PruneStats = &approx.PruneCounter{}
	}
	f.prune = opts.Approx.PruneStats
	mkEval := func(fed cloud.Federation) market.Evaluator {
		ev, err := market.NewEvaluator(kind, fed, opts)
		if err != nil {
			// Unreachable: kind was validated above, and that is the only way
			// NewEvaluator fails. Surface the error at evaluation time rather
			// than panicking.
			return failedEvaluator{err}
		}
		return ev
	}
	// Participation requires contributing VMs, as in the paper: an SC with
	// S_i = 0 stands alone, neither lending nor borrowing.
	part := market.WithParticipation(cfg.Federation, mkEval)
	// A non-contributor evaluates to its no-sharing baseline, which
	// participation solves once per SC and keeps: asking for each here
	// fills f.bases and the S_i = 0 probes from the same solve.
	zero := make([]int, len(cfg.Federation.SCs))
	f.bases = make([]cloud.Metrics, len(zero))
	for i := range zero {
		m, err := part.Evaluate(zero, i)
		if err != nil {
			return nil, fmt.Errorf("core: baseline for SC %d: %w", i, err)
		}
		f.bases[i] = m
	}
	f.eval = market.Memoize(part)
	return f, nil
}

// failedEvaluator answers every evaluation with the error that kept its
// model from being built.
type failedEvaluator struct{ err error }

// Evaluate implements market.Evaluator.
func (e failedEvaluator) Evaluate([]int, int) (cloud.Metrics, error) { return cloud.Metrics{}, e.err }

// EvaluateAll implements market.AllEvaluator.
func (e failedEvaluator) EvaluateAll([]int) ([]cloud.Metrics, error) { return nil, e.err }

// Evaluator exposes the framework's memoized performance evaluator.
func (f *Framework) Evaluator() market.Evaluator { return f.eval }

// PruneStats snapshots the probability mass the approximate model's
// adaptive truncation has discarded across every solve this framework has
// run. Always zero under the exact, sim, and fluid models. Feed it to
// DiagnosePruning to turn the account into a warning when it matters.
func (f *Framework) PruneStats() approx.PruneStats { return f.prune.Stats() }

// Baselines returns every SC's Sect. III-A no-sharing baseline, as New
// solved it; the cost is Eq. (1) with only the public-cloud term.
func (f *Framework) Baselines() []Baseline {
	out := make([]Baseline, len(f.bases))
	for i, m := range f.bases {
		out[i] = Baseline{
			Cost:        m.NetCost(f.cfg.Federation.SCs[i].PublicPrice, 0),
			Utilization: m.Utilization,
			ForwardProb: m.ForwardProb,
		}
	}
	return out
}

// game instantiates the repeated game on the current federation price.
func (f *Framework) game(fed cloud.Federation) *market.Game {
	return &market.Game{
		Federation:   fed,
		Evaluator:    f.eval,
		Gamma:        f.cfg.Gamma,
		TabuDistance: f.cfg.TabuDistance,
		MaxRounds:    f.cfg.MaxRounds,
		MaxShares:    f.cfg.MaxShares,
		Baselines:    f.bases,
	}
}

// Equilibrium runs the Fig. 2 feedback loop to a market equilibrium,
// starting from each of the given initial share vectors and keeping the
// outcome with the best alpha-fair welfare.
func (f *Framework) Equilibrium(initials [][]int, alpha float64) (*market.Outcome, error) {
	return f.game(f.cfg.Federation).RunMultiStart(initials, alpha)
}

// EquilibriumContext is Equilibrium under a context: cancellation stops
// the repeated game between model evaluations (market.Game.RunContext).
func (f *Framework) EquilibriumContext(ctx context.Context, initials [][]int, alpha float64) (*market.Outcome, error) {
	return f.game(f.cfg.Federation).RunMultiStartContext(ctx, initials, alpha)
}

// SweepPoint is one federation price setting of a price sweep.
type SweepPoint struct {
	// Ratio is C^G / C^P (using the minimum public price across SCs).
	Ratio float64
	// Price is the resulting federation price C^G.
	Price float64
	// Shares and Utilities describe the selected equilibrium — or, for a
	// dead market (Converged false), the terminal state of the best
	// non-converged run.
	Shares    []int
	Utilities []float64
	// Welfare and Efficiency report, per requested alpha, the equilibrium
	// welfare and its ratio to the empirical market-efficient welfare.
	Welfare    []float64
	Efficiency []float64
	// Rounds is the number of game rounds played.
	Rounds int
	// Converged reports whether the point reached a market equilibrium.
	Converged bool
}
