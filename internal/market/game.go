package market

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"scshare/internal/claim"
	"scshare/internal/cloud"
	"scshare/internal/queueing"
)

// ErrNoEquilibrium is returned when the repeated game fails to converge
// within the round budget.
var ErrNoEquilibrium = errors.New("market: best-response dynamics did not converge")

// The game's defaults for a zero Game.TabuDistance and Game.MaxRounds.
const (
	DefaultTabuDistance = 2
	DefaultMaxRounds    = 60
)

// Game is the repeated non-cooperative sharing game of Algorithm 1: each
// round every SC best-responds (via Tabu search) with the share count
// maximizing its utility given the others' previous-round decisions, until
// no SC changes its decision.
type Game struct {
	// Federation fixes the SC population and the federation price C^G.
	Federation cloud.Federation
	// Evaluator computes performance metrics; wrap it with Memoize when
	// running sweeps.
	Evaluator Evaluator
	// Gamma is the utility exponent of Eq. (2), shared by all SCs.
	Gamma float64
	// TabuDistance is the best-response search neighborhood
	// (DefaultTabuDistance when zero or negative).
	TabuDistance int
	// MaxRounds bounds the repeated game (DefaultMaxRounds when zero or
	// negative).
	MaxRounds int
	// MaxShares caps each SC's strategy space; defaults to its VM count.
	MaxShares []int
	// Workers bounds how many goroutines evaluate a round's best responses.
	// Jacobi rounds respond to the previous round's decisions, so the K
	// searches of a round are independent: the calling goroutine takes
	// searches itself next to min(Workers, K)-1 helpers, and results merge
	// in SC index order, which keeps the dynamics bit-identical to the
	// serial schedule. The same bound holds for the batch that solves a
	// round's certain probes before its searches start, when the evaluator
	// is a Memoize cache. 0 means GOMAXPROCS; 1 forces the serial path.
	Workers int
	// Baselines optionally supplies every SC's no-sharing metrics, as
	// queueing.Solve(sc).Metrics() gives them; the game takes C^0_i =
	// NetCost(PublicPrice, 0) and rho^0_i = Utilization from them. A caller
	// that plays many games on one federation (core.Framework) solves them
	// once and passes them here; nil solves them on every run. The slice is
	// only read, and must hold one entry per SC.
	Baselines []cloud.Metrics

	// skip marks SCs that never best-respond (see RunWithFrozen).
	skip map[int]bool
}

// Outcome reports the state at the end of the game.
type Outcome struct {
	// Shares is the (equilibrium) sharing vector.
	Shares []int
	// Utilities, Costs and Metrics describe each SC under Shares.
	Utilities []float64
	Costs     []float64
	Metrics   []cloud.Metrics
	// BaselineCosts and BaselineUtils are the no-federation references
	// (C^0_i, rho^0_i) entering Eq. (2).
	BaselineCosts []float64
	BaselineUtils []float64
	// Rounds is the number of best-response rounds executed and Evals the
	// number of performance-model evaluations (Fig. 8b).
	Rounds int
	Evals  int
	// Converged reports whether a fixed point was reached.
	Converged bool
	// Frozen flags SCs that never best-responded (RunWithFrozen); nil when
	// every SC played. IsEquilibrium skips frozen SCs, since a player that
	// never moves cannot deviate.
	Frozen []bool
}

// Run plays the game from the given initial sharing vector. A nil initial
// vector starts from everyone sharing one VM. It is shorthand for
// RunContext with a background context.
func (g *Game) Run(initial []int) (*Outcome, error) {
	return g.RunContext(context.Background(), initial)
}

// RunContext plays the game under a context. Cancellation is observed
// between rounds and before every performance-model evaluation, in a
// round's probe batch and inside the Tabu searches, so a canceled context
// stops the dynamics within one model solve: worker-pool goroutines drain
// their queued solves and best responses through the same check and exit.
// A canceled run returns a nil outcome and an error wrapping ctx.Err().
func (g *Game) RunContext(ctx context.Context, initial []int) (*Outcome, error) {
	k := len(g.Federation.SCs)
	if err := g.Federation.Validate(); err != nil {
		return nil, fmt.Errorf("market: %w", err)
	}
	if g.Evaluator == nil {
		return nil, errors.New("market: game needs an evaluator")
	}
	if !(g.Gamma >= 0 && g.Gamma <= 1) { // negated range: rejects NaN too
		return nil, ErrBadGamma
	}
	maxShares := g.MaxShares
	if maxShares == nil {
		maxShares = make([]int, k)
		for i, sc := range g.Federation.SCs {
			maxShares[i] = sc.VMs
		}
	}
	shares := make([]int, k)
	if initial != nil {
		if err := g.Federation.ValidateShares(initial); err != nil {
			return nil, fmt.Errorf("market: %w", err)
		}
		copy(shares, initial)
	} else {
		for i := range shares {
			shares[i] = min(1, maxShares[i])
		}
	}

	baseCosts, baseUtils, err := baselineTerms(g.Federation, g.Baselines)
	if err != nil {
		return nil, err
	}

	distance := g.TabuDistance
	if distance <= 0 {
		distance = DefaultTabuDistance
	}
	maxRounds := g.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}

	out := &Outcome{BaselineCosts: baseCosts, BaselineUtils: baseUtils}
	if len(g.skip) > 0 {
		out.Frozen = make([]bool, k)
		for i := range out.Frozen {
			out.Frozen[i] = g.skip[i]
		}
	}
	// Algorithm 1 is simultaneous (Jacobi-style): every SC best-responds to
	// the previous round's decisions. Simultaneous play can cycle — the
	// paper's Tatonnement discussion acknowledges the possibility — so a
	// revisited decision vector switches the dynamics to sequential updates,
	// which break symmetric cycles.
	prev := make([]int, k)
	visited := map[string]bool{shareKey(shares): true}
	sequential := false
	responses := make([]bestResponse, k)
	lines := newRoundLines(maxShares, distance)
	defer linesPool.Put(lines)
	for round := 1; round <= maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("market: game canceled in round %d: %w", round, err)
		}
		out.Rounds = round
		copy(prev, shares)
		changed := false
		if sequential {
			// Sequential (Gauss-Seidel) updates: each SC responds to the
			// partially updated vector, so the round is inherently serial.
			for i := 0; i < k; i++ {
				if g.skip[i] {
					continue
				}
				lines.reset()
				lines.add(i, maxShares[i], distance)
				g.answer(ctx, shares, lines.probes)
				r := g.respond(ctx, shares, i, maxShares[i], distance, lines.of[i], baseCosts, baseUtils)
				out.Evals += r.evals
				if r.err != nil {
					return nil, fmt.Errorf("market: best response of SC %d: %w", i, r.err)
				}
				if r.share != shares[i] {
					shares[i] = r.share
					changed = true
				}
			}
		} else {
			// Jacobi round: every SC responds to prev, so the K searches are
			// independent and fan out across the worker pool.
			g.respondAll(ctx, prev, maxShares, distance, baseCosts, baseUtils, lines, responses)
			for i := 0; i < k; i++ {
				if g.skip[i] {
					continue
				}
				r := responses[i]
				out.Evals += r.evals
				if r.err != nil {
					return nil, fmt.Errorf("market: best response of SC %d: %w", i, r.err)
				}
				if r.share != shares[i] {
					shares[i] = r.share
					changed = true
				}
			}
		}
		if !changed {
			out.Converged = true
			break
		}
		if key := shareKey(shares); visited[key] {
			sequential = true
		} else {
			visited[key] = true
		}
	}
	out.Shares = shares
	if err := g.fillOutcome(out); err != nil {
		return nil, err
	}
	if !out.Converged {
		return out, ErrNoEquilibrium
	}
	return out, nil
}

// bestResponse is the result of one SC's Tabu search.
type bestResponse struct {
	share int
	evals int
	err   error
}

// probe is one point of a best-response search's strategy line: SC sc's
// metrics under the round's base vector with entry sc set to share. known
// reports whether m and err hold the answer.
type probe struct {
	sc, share int
	known     bool
	m         cloud.Metrics
	err       error
}

// probeBatcher is implemented by the evaluators Memoize returns: it
// answers a round's probes at once (see memoEvaluator.evaluateProbes),
// solving the misses on up to workers goroutines. Once ctx is done it
// solves nothing more and leaves the remaining probes unknown.
type probeBatcher interface {
	evaluateProbes(ctx context.Context, base []int, probes []probe, workers int)
}

// roundLines holds the probes a round's searches are certain to make:
// of[i] is SC i's whole strategy line, in share order, when its search
// visits the whole line (visitsWholeLine), and empty otherwise, so a
// longer line's search evaluates every probe as it reaches it. Every round
// reuses one buffer, sized for all the short lines, so of[i] always points
// into probes.
type roundLines struct {
	probes []probe
	of     [][]probe
}

// linesPool recycles roundLines across games, so a warm game, whose
// probes all hit, allocates no buffer for them.
var linesPool = sync.Pool{New: func() any { return new(roundLines) }}

// newRoundLines takes a buffer from linesPool, sized for a game with these
// strategy lines; the game puts it back when it returns.
func newRoundLines(maxShares []int, distance int) *roundLines {
	n := 0
	for _, m := range maxShares {
		if visitsWholeLine(m, distance) {
			n += max(0, m+1)
		}
	}
	rl := linesPool.Get().(*roundLines)
	if cap(rl.probes) < n {
		rl.probes = make([]probe, 0, n)
	}
	if cap(rl.of) < len(maxShares) {
		rl.of = make([][]probe, len(maxShares))
	}
	rl.of = rl.of[:len(maxShares)]
	clear(rl.of)
	return rl
}

// reset empties the buffer for the next round or sequential response.
func (rl *roundLines) reset() { rl.probes = rl.probes[:0] }

// add appends SC i's certain probes.
func (rl *roundLines) add(i, maxShare, distance int) {
	from := len(rl.probes)
	if visitsWholeLine(maxShare, distance) {
		for s := 0; s <= maxShare; s++ {
			rl.probes = append(rl.probes, probe{sc: i, share: s})
		}
	}
	rl.of[i] = rl.probes[from:]
}

// answer answers probes against base in one batch when the evaluator can
// (probeBatcher), on up to Workers goroutines. Otherwise it leaves them
// unknown, and each search evaluates its probes as it reaches them.
func (g *Game) answer(ctx context.Context, base []int, probes []probe) {
	if b, ok := g.Evaluator.(probeBatcher); ok {
		b.evaluateProbes(ctx, base, probes, g.Workers)
	}
}

// respond runs SC i's best response against the base vector. line holds
// the probes the search is certain to make; the search reads those the
// batch answered from line and evaluates any other when it reaches it, in
// its own order, through one trial vector per search that differs from
// base only in entry i; the Evaluator contract (no retaining shares) is
// what makes the reuse safe. The context is consulted before every
// evaluation and every read, bounding cancellation latency by one model
// solve.
func (g *Game) respond(ctx context.Context, base []int, i, maxShare, distance int, line []probe, baseCosts, baseUtils []float64) bestResponse {
	var trial []int
	objective := func(s int) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var (
			m   cloud.Metrics
			err error
		)
		if s < len(line) && line[s].known {
			m, err = line[s].m, line[s].err
		} else {
			if trial == nil {
				trial = slices.Clone(base)
			}
			trial[i] = s
			m, err = g.Evaluator.Evaluate(trial, i)
		}
		if err != nil {
			return 0, err
		}
		cost := m.NetCost(g.Federation.SCs[i].PublicPrice, g.Federation.FederationPrice)
		return Utility(baseCosts[i], cost, baseUtils[i], m.Utilization, g.Gamma)
	}
	bestS, _, evals, err := tabuSearch(base[i], maxShare, distance, objective)
	return bestResponse{share: bestS, evals: evals, err: err}
}

// respondAll fills responses with every non-skipped SC's best response to
// base. It first answers the round's certain probes in one batch, then
// spreads the searches over min(Workers, K) goroutines by claim.Run.
// responses[i] is written only by the goroutine that claimed index i, so
// the merge order (and therefore the dynamics) is independent of
// scheduling.
func (g *Game) respondAll(ctx context.Context, base, maxShares []int, distance int, baseCosts, baseUtils []float64, lines *roundLines, responses []bestResponse) {
	lines.reset()
	for i := range responses {
		if !g.skip[i] {
			lines.add(i, maxShares[i], distance)
		}
	}
	g.answer(ctx, base, lines.probes)
	claim.Run(len(responses), g.Workers, func(_, i int) {
		if !g.skip[i] {
			responses[i] = g.respond(ctx, base, i, maxShares[i], distance, lines.of[i], baseCosts, baseUtils)
		}
	})
}

// RunMultiStart plays the game from several initial vectors and returns the
// converged outcome with the highest welfare under the given alpha; the
// paper uses the same device to select among multiple equilibria
// (Sect. VII, "the feasibility of the Tatonnement process").
//
// The starts are independent, so claim.Run spreads them over up to
// GOMAXPROCS goroutines, the caller's among them (a lone start starts
// none); the evaluators (Memoize, SimEvaluator,
// WithParticipation) deduplicate shared solves across the runs. Selection
// stays deterministic: results are compared in the order the initials were
// given, regardless of which goroutine finishes first.
//
// When no start converges but at least one produced a terminal state, the
// best of those non-converged outcomes is returned alongside
// ErrNoEquilibrium, so callers (the price-sweep driver's dead-market
// points) can still report the terminal shares. Hard errors from any start
// take precedence and return a nil outcome.
func (g *Game) RunMultiStart(initials [][]int, alpha float64) (*Outcome, error) {
	return g.RunMultiStartContext(context.Background(), initials, alpha)
}

// RunMultiStartContext is RunMultiStart under a context: every start's game
// observes the same context (see RunContext), so one cancellation stops all
// of them. A canceled multi-start returns a nil outcome and an error
// wrapping ctx.Err() — cancellation is a hard error, never a dead market.
func (g *Game) RunMultiStartContext(ctx context.Context, initials [][]int, alpha float64) (*Outcome, error) {
	if len(initials) == 0 {
		initials = [][]int{nil}
	}
	outs := make([]*Outcome, len(initials))
	errs := make([]error, len(initials))
	claim.Run(len(initials), 0, func(_, i int) {
		outs[i], errs[i] = g.RunContext(ctx, initials[i])
	})

	var best, bestPartial *Outcome
	bestW, bestPartialW := math.Inf(-1), math.Inf(-1)
	var hardErr error
	for i, out := range outs {
		if errs[i] != nil {
			if !errors.Is(errs[i], ErrNoEquilibrium) {
				if hardErr == nil {
					hardErr = errs[i]
				}
				continue
			}
			// A non-converged run still carries its terminal state.
			if out != nil {
				w, err := Welfare(alpha, out.Shares, out.Utilities)
				if err != nil {
					return nil, err
				}
				if bestPartial == nil || w > bestPartialW {
					bestPartial, bestPartialW = out, w
				}
			}
			continue
		}
		w, err := Welfare(alpha, out.Shares, out.Utilities)
		if err != nil {
			return nil, err
		}
		if best == nil || w > bestW {
			best, bestW = out, w
		}
	}
	if best != nil {
		return best, nil
	}
	if hardErr != nil {
		return nil, hardErr
	}
	if bestPartial != nil {
		return bestPartial, ErrNoEquilibrium
	}
	return nil, ErrNoEquilibrium
}

// baselineTerms returns every SC's no-federation references (C^0_i,
// rho^0_i) of Eq. (2), read from bases when it is non-nil and otherwise
// solved from the no-sharing model; C^0_i is the public-cloud term
// NetCost(PublicPrice, 0), as queueing.Model.BaselineCost computes it.
func baselineTerms(fed cloud.Federation, bases []cloud.Metrics) (costs, utils []float64, err error) {
	k := len(fed.SCs)
	if bases != nil && len(bases) != k {
		return nil, nil, fmt.Errorf("market: %d baselines for %d SCs", len(bases), k)
	}
	costs = make([]float64, k)
	utils = make([]float64, k)
	for i, sc := range fed.SCs {
		var m cloud.Metrics
		if bases != nil {
			m = bases[i]
		} else {
			q, err := queueing.Solve(sc)
			if err != nil {
				return nil, nil, fmt.Errorf("market: baseline for SC %d: %w", i, err)
			}
			m = q.Metrics()
		}
		costs[i] = m.NetCost(sc.PublicPrice, 0)
		utils[i] = m.Utilization
	}
	return costs, utils, nil
}

// fillOutcome evaluates the final shares for every SC, collapsing the K
// per-target evaluations into one whole-vector solve when the evaluator
// supports it.
func (g *Game) fillOutcome(out *Outcome) error {
	k := len(g.Federation.SCs)
	out.Metrics = make([]cloud.Metrics, k)
	out.Costs = make([]float64, k)
	out.Utilities = make([]float64, k)
	if all, ok := g.Evaluator.(AllEvaluator); ok {
		ms, err := all.EvaluateAll(out.Shares)
		if err != nil {
			return fmt.Errorf("market: final evaluation: %w", err)
		}
		if len(ms) != k {
			return fmt.Errorf("market: final evaluation returned %d metrics for %d SCs", len(ms), k)
		}
		copy(out.Metrics, ms)
	} else {
		for i := 0; i < k; i++ {
			m, err := g.Evaluator.Evaluate(out.Shares, i)
			if err != nil {
				return fmt.Errorf("market: final evaluation of SC %d: %w", i, err)
			}
			out.Metrics[i] = m
		}
	}
	for i := 0; i < k; i++ {
		out.Costs[i] = out.Metrics[i].NetCost(g.Federation.SCs[i].PublicPrice, g.Federation.FederationPrice)
		u, err := Utility(out.BaselineCosts[i], out.Costs[i], out.BaselineUtils[i], out.Metrics[i].Utilization, g.Gamma)
		if err != nil {
			return err
		}
		out.Utilities[i] = u
	}
	return nil
}

// IsEquilibrium verifies that no SC can improve its utility by unilaterally
// deviating to any share in its strategy space — the pure-strategy Nash
// condition the paper observes empirically. tol absorbs numerical noise.
//
// SCs that never best-respond are skipped: both the game's own frozen set
// (RunWithFrozen on this instance) and the outcome's recorded Frozen flags,
// so an outcome produced by a frozen game checks as the constrained
// equilibrium it is rather than being falsely reported as non-Nash.
func (g *Game) IsEquilibrium(out *Outcome, tol float64) (bool, error) {
	k := len(g.Federation.SCs)
	maxShares := g.MaxShares
	if maxShares == nil {
		maxShares = make([]int, k)
		for i, sc := range g.Federation.SCs {
			maxShares[i] = sc.VMs
		}
	}
	for i := 0; i < k; i++ {
		if g.skip[i] || (out.Frozen != nil && out.Frozen[i]) {
			continue
		}
		for s := 0; s <= maxShares[i]; s++ {
			if s == out.Shares[i] {
				continue
			}
			trial := make([]int, k)
			copy(trial, out.Shares)
			trial[i] = s
			m, err := g.Evaluator.Evaluate(trial, i)
			if err != nil {
				return false, err
			}
			cost := m.NetCost(g.Federation.SCs[i].PublicPrice, g.Federation.FederationPrice)
			u, err := Utility(out.BaselineCosts[i], cost, out.BaselineUtils[i], m.Utilization, g.Gamma)
			if err != nil {
				return false, err
			}
			if u > out.Utilities[i]+tol {
				return false, nil
			}
		}
	}
	return true, nil
}
