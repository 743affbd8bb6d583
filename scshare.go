// Package scshare is the public API of SC-Share, a Go implementation of
// "SC-Share: Performance Driven Resource Sharing Markets for the Small
// Cloud" (ICDCS 2017).
//
// Small clouds (SCs) that cannot meet their SLAs during peaks either buy
// expensive public-cloud VMs or join a federation and borrow idle VMs from
// peers at a lower price. SC-Share couples two models to decide how many
// VMs each SC should contribute:
//
//   - Performance models (Sect. III of the paper) estimate, for a sharing
//     decision vector, each SC's public-cloud buy rate P-bar, federation
//     borrow rate O-bar, lend rate I-bar, and utilization — feeding the
//     net-cost metric of Eq. (1). Four interchangeable models are provided:
//     the exact detailed CTMC, the paper's hierarchical approximation, a
//     discrete-event simulator, and a fast fluid fixed point.
//   - A market model (Sect. IV) runs a repeated non-cooperative game in
//     which every SC best-responds (via Tabu search) with the share count
//     maximizing its utility (Eq. 2), reaching a market equilibrium whose
//     alpha-fair welfare (Eq. 3) scores the federation's efficiency.
//
// # Quick start
//
//	fed := scshare.Federation{
//		SCs: []scshare.SC{
//			{Name: "hot", VMs: 10, ArrivalRate: 9, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
//			{Name: "cold", VMs: 10, ArrivalRate: 4, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
//		},
//		FederationPrice: 0.4,
//	}
//	fw, err := scshare.New(scshare.Config{Federation: fed, Gamma: scshare.UF0})
//	// handle err
//	eq, err := fw.Equilibrium(nil, scshare.AlphaUtilitarian)
//	// eq.Shares is the equilibrium sharing decision.
//
// The experiment generators under Fig5..Fig8b regenerate every figure of
// the paper's evaluation; see EXPERIMENTS.md for the recorded results.
package scshare

import (
	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/core"
	"scshare/internal/exact"
	"scshare/internal/experiments"
	"scshare/internal/fluid"
	"scshare/internal/market"
	"scshare/internal/phasetype"
	"scshare/internal/queueing"
	"scshare/internal/sim"
	"scshare/internal/workload"
)

// Domain types (Sect. II of the paper).
type (
	// SC is one small cloud: capacity, Poisson workload, SLA and public
	// price.
	SC = cloud.SC
	// Federation is a set of SCs plus the federation VM price C^G.
	Federation = cloud.Federation
	// Metrics are the per-SC performance parameters (P-bar, O-bar, I-bar,
	// utilization, forwarding probability) produced by every model.
	Metrics = cloud.Metrics
)

// Market types (Sect. IV).
type (
	// Game is the repeated non-cooperative sharing game of Algorithm 1.
	Game = market.Game
	// Outcome is the state of the game at (or short of) equilibrium.
	Outcome = market.Outcome
	// Evaluator maps sharing decisions to performance metrics.
	Evaluator = market.Evaluator
)

// Framework types (the SC-Share feedback loop of Fig. 2).
type (
	// Config parameterizes the framework.
	Config = core.Config
	// Framework couples a performance model with the market game.
	Framework = core.Framework
	// ModelKind selects the performance model backing the framework.
	ModelKind = core.ModelKind
	// SweepPoint is one price setting of a Fig. 7-style price sweep.
	SweepPoint = core.SweepPoint
	// SweepOptions tunes the batch price-sweep driver (workers, warm
	// starts).
	SweepOptions = core.SweepOptions
	// Baseline describes one SC outside the federation.
	Baseline = core.Baseline
)

// Performance-model selectors.
const (
	// ModelApprox is the paper's hierarchical approximate model.
	ModelApprox = core.ModelApprox
	// ModelExact is the detailed CTMC of Table I (tiny federations only).
	ModelExact = core.ModelExact
	// ModelSim estimates metrics by discrete-event simulation.
	ModelSim = core.ModelSim
	// ModelFluid is the fast fixed-point mean-field model.
	ModelFluid = core.ModelFluid
)

// Utility and fairness parameters (Eqs. 2-3).
const (
	// UF0 weighs pure cost reduction (gamma = 0).
	UF0 = market.UF0
	// UF1 weighs marginal cost reduction per utilization increase
	// (gamma = 1).
	UF1 = market.UF1
	// AlphaUtilitarian and AlphaProportional select welfare regimes.
	AlphaUtilitarian  = market.AlphaUtilitarian
	AlphaProportional = market.AlphaProportional
)

// AlphaMaxMin selects max-min fairness (alpha -> infinity).
var AlphaMaxMin = market.AlphaMaxMin

// New builds an SC-Share framework from a validated configuration.
func New(cfg Config) (*Framework, error) { return core.New(cfg) }

// NoSharing solves the Sect. III-A model for an SC outside any federation,
// returning its baseline cost C^0, utilization rho^0, and forwarding
// probability.
func NoSharing(sc SC) (Baseline, error) {
	m, err := queueing.Solve(sc)
	if err != nil {
		return Baseline{}, err
	}
	return Baseline{
		Cost:        m.BaselineCost(),
		Utilization: m.Metrics().Utilization,
		ForwardProb: m.Metrics().ForwardProb,
	}, nil
}

// ApproxMetrics evaluates the hierarchical approximate model (Sect. III-C)
// for one target SC under the given sharing decisions.
func ApproxMetrics(fed Federation, shares []int, target int) (Metrics, error) {
	s, err := approx.NewSolver(approx.Config{Federation: fed, Shares: shares})
	if err != nil {
		return Metrics{}, err
	}
	m, err := s.Solve(target)
	if err != nil {
		return Metrics{}, err
	}
	return m.Metrics(), nil
}

// ApproxAllMetrics evaluates the hierarchical approximate model for every
// SC at once off one shared spine (Solver.SolveAll): roughly the cost of a
// single per-target solve instead of K of them.
func ApproxAllMetrics(fed Federation, shares []int) ([]Metrics, error) {
	s, err := approx.NewSolver(approx.Config{Federation: fed, Shares: shares})
	if err != nil {
		return nil, err
	}
	return s.SolveAll()
}

// ExactMetrics solves the detailed CTMC of Sect. III-B (Table I) and
// returns every SC's metrics. Its state space is exponential in the
// federation size; use it only for small federations.
func ExactMetrics(fed Federation, shares []int) ([]Metrics, error) {
	m, err := exact.Solve(exact.Config{Federation: fed, Shares: shares})
	if err != nil {
		return nil, err
	}
	return m.AllMetrics(), nil
}

// FluidMetrics evaluates the fast fluid fixed-point model for every SC.
func FluidMetrics(fed Federation, shares []int) ([]Metrics, error) {
	return fluid.Solve(fed, shares)
}

// Simulation types and entry point (the exact baseline of Sect. V-A).
type (
	// SimConfig parameterizes one discrete-event simulation run.
	SimConfig = sim.Config
	// SimResult carries the measured per-SC metrics.
	SimResult = sim.Result
	// Outage injects a federation outage into a simulation.
	Outage = sim.Outage
)

// Simulate runs the discrete-event federation simulator.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// Utility evaluates Eq. (2) for one SC.
func Utility(baseCost, cost, baseUtil, util, gamma float64) (float64, error) {
	return market.Utility(baseCost, cost, baseUtil, util, gamma)
}

// Welfare evaluates the weighted alpha-fair welfare of Eq. (3).
func Welfare(alpha float64, shares []int, utilities []float64) (float64, error) {
	return market.Welfare(alpha, shares, utilities)
}

// Experiment harness re-exports: each generator reproduces one figure of
// the paper's evaluation section.
type (
	// Figure is one reproducible plot.
	Figure = experiments.Figure
	// Series is one curve of a figure.
	Series = experiments.Series

	// Options types for the figure generators.
	Fig5Options   = experiments.Fig5Options
	Fig6TwoSCOpts = experiments.Fig6TwoSCOptions
	Fig6TenSCOpts = experiments.Fig6TenSCOptions
	Fig6LargeOpts = experiments.Fig6LargeOptions
	Fig7Options   = experiments.Fig7Options
	Fig7Scenario  = experiments.Fig7Scenario
	Fig8aOptions  = experiments.Fig8aOptions
	Fig8bOptions  = experiments.Fig8bOptions
)

// Figure generators (Sect. V).
var (
	Fig5               = experiments.Fig5
	Fig6TwoSC          = experiments.Fig6TwoSC
	Fig6TenSC          = experiments.Fig6TenSC
	Fig6Large          = experiments.Fig6Large
	Fig7               = experiments.Fig7
	Fig8a              = experiments.Fig8a
	Fig8b              = experiments.Fig8b
	PaperFig7Scenarios = experiments.PaperFig7Scenarios
)

// Workload and service-time extensions (Sect. VII).
type (
	// ServiceDistribution is a positive service-time distribution for the
	// simulator (exponential, Erlang, hyperexponential, mixed Erlang).
	ServiceDistribution = phasetype.Distribution
	// ArrivalFactory builds a custom arrival process per simulation run.
	ArrivalFactory = workload.Factory
)

// Workload and distribution constructors.
var (
	// FitServiceDistribution fits a phase-type distribution to a mean and
	// squared coefficient of variation.
	FitServiceDistribution = phasetype.FitTwoMoment
	// PoissonArrivals is the paper's baseline arrival process.
	PoissonArrivals = workload.Poisson
	// MMPPArrivals builds a bursty two-state Markov-modulated process.
	MMPPArrivals = workload.MMPP2
	// BatchedArrivals adds geometric batches to an arrival process.
	BatchedArrivals = workload.Batched
)
