package approx

import (
	"fmt"
	"math"

	"scshare/internal/claim"
	"scshare/internal/cloud"
	"scshare/internal/markov"
	"scshare/internal/queueing"
)

// Config parameterizes the approximate solves of one federation. It
// describes the federation and the model's cost/accuracy knobs only — the
// target SC is an explicit argument of Solver.Solve, so a single Config
// drives any number of per-target solves and whole-vector SolveAll calls.
type Config struct {
	Federation cloud.Federation
	// Shares is S_i for every SC: the default share vector solves run
	// against. It may be nil at construction when every call re-aims the
	// solver with WithShares (the evaluator-pool pattern).
	Shares []int
	// Prune drops interaction atoms below this probability (default 1e-6);
	// larger values trade accuracy for speed on big federations.
	Prune float64
	// TruncEps is the adaptive state-space truncation budget: the total
	// probability mass each summarized joint distribution may shed, spread
	// uniformly over its cells. Cells below TruncEps/dim are zeroed and the
	// summary renormalized, so event rates are preserved while the transient
	// mixing loops skip the dropped support. 0 selects the default (1e-9,
	// three decades below the atom-level Prune — calibrated against the
	// internal/diffcheck envelopes); negative disables truncation. The
	// discarded mass is accounted in PruneStats.
	TruncEps float64
	// PruneStats optionally accumulates the mass discarded by TruncEps
	// truncation so an over-aggressive epsilon is observable rather than
	// silent (core.Diagnose warns on it; scserve surfaces it in /metrics).
	// Safe to share across solvers and goroutines; nil disables accounting.
	PruneStats *PruneCounter
	// PoolCap bounds the modeled shared-VM usage per level. 0 sizes it
	// automatically from the federation's overflow demand (the declared
	// pool B_i often vastly exceeds what is ever in use); negative values
	// disable the cap and model the full declared pool.
	PoolCap int
	// Passes selects the number of hierarchy passes. 1 is the paper's
	// literal construction, in which the first level never lends its own
	// VMs; with 2 (the default) the hierarchy is rebuilt once with the
	// first level carrying an explicit successor-demand process whose rate
	// is estimated from the first pass (see package doc and DESIGN.md).
	Passes int
	// Solver configures the per-level steady-state solves. Dst and Work are
	// managed by the level arenas and must be left nil. Stats, when set,
	// receives each level build's effort on the calling goroutine, in the
	// serial schedule's order.
	Solver markov.SteadyStateOptions
	// Warm optionally carries level steady states between Solve and
	// SolveAll calls to seed the per-level solvers (see WarmCache). Leave
	// nil for cold starts.
	Warm *WarmCache
}

// DefaultTruncEps is the per-summary truncation budget used when
// Config.TruncEps is zero; see the field's doc for the calibration.
const DefaultTruncEps = 1e-9

// DefaultPasses is the number of hierarchy passes used when Config.Passes
// is zero or negative; see the field's doc.
const DefaultPasses = 2

// Model is the solved hierarchy for one target SC. It is a self-contained
// snapshot — metrics and state counts are copied out of the solver's arenas
// at solve time — so it stays valid after the Solver moves on.
type Model struct {
	target      int
	metrics     cloud.Metrics
	totalStates int
	levelSizes  []int
}

// Solver owns the validated configuration and the reusable arenas (level
// scaffolding, interaction scratch, sparse/chain storage, steady-state
// workspaces) behind Solve and SolveAll. Construct one with NewSolver and
// reuse it across solves — grid points, warm and cold paths alike — to
// amortize every per-level allocation; the second solve on a handle runs in
// the first solve's storage and produces bit-identical metrics.
//
// A Solver is NOT safe for concurrent use: one handle serves one goroutine
// at a time, as market.ApproxEvaluator's pool of handles does. Within a
// solve it uses idle cores on its own: the transient stepping of a level's
// conditioning groups and the readouts of a SolveAll fixpoint round run on
// the calling goroutine and up to GOMAXPROCS-1 helpers (claim.Run), with
// every float and counter bit-identical to GOMAXPROCS 1, the serial
// schedule.
type Solver struct {
	cfg      Config
	k        int
	passes   int
	truncEps float64
	overflow []float64

	// Chain arenas: slots[i] carries level position i of the spine /
	// per-target chain across passes and solves; readouts[w] is readout
	// worker w's arena for SolveAll's readout levels.
	slots    []*levelSlot
	readouts []*levelSlot
	// steps is the transient-stepping scratch of every level, one entry
	// per stepping worker.
	steps []stepWork

	// Reused per-solve scratch.
	levels   []*level
	borrow   []float64
	results  []readoutResult
	orderBuf []int
}

// readoutResult is what one readout of a SolveAll fixpoint round hands
// back for the in-order fold after the round: its metrics or error, and
// its build's accounting (see fold).
type readoutResult struct {
	metrics cloud.Metrics
	err     error
	stats   markov.SolveStats
	dropped []float64
}

// NewSolver validates the configuration, precomputes the overflow demand
// estimates that size the level pools, and allocates the (initially empty)
// arenas. The Config is copied; later WithShares calls never write through
// to the caller's slice.
func NewSolver(cfg Config) (*Solver, error) {
	if err := cfg.Federation.Validate(); err != nil {
		return nil, fmt.Errorf("approx: %w", err)
	}
	if cfg.Shares != nil {
		if err := cfg.Federation.ValidateShares(cfg.Shares); err != nil {
			return nil, fmt.Errorf("approx: %w", err)
		}
		cfg.Shares = append([]int(nil), cfg.Shares...)
	}
	overflow, err := overflowErlangs(cfg.Federation)
	if err != nil {
		return nil, err
	}
	passes := cfg.Passes
	if passes <= 0 {
		passes = DefaultPasses
	}
	trunc := cfg.TruncEps
	if trunc == 0 {
		trunc = DefaultTruncEps
	} else if trunc < 0 {
		trunc = 0
	}
	k := len(cfg.Federation.SCs)
	s := &Solver{
		cfg:      cfg,
		k:        k,
		passes:   passes,
		truncEps: trunc,
		overflow: overflow,
		slots:    make([]*levelSlot, k),
	}
	for i := range s.slots {
		s.slots[i] = newLevelSlot(&s.steps)
	}
	return s, nil
}

// SolveOption adjusts one Solve or SolveAll call.
type SolveOption func(*solveOpts)

type solveOpts struct {
	shares []int
}

// WithShares re-aims the solver at a new share vector before solving. The
// vector is validated and copied into the solver's configuration, where it
// stays for subsequent calls.
func WithShares(shares []int) SolveOption {
	return func(o *solveOpts) { o.shares = shares }
}

// setShares validates and installs a new active share vector, reusing the
// solver-owned copy.
func (s *Solver) setShares(shares []int) error {
	if err := s.cfg.Federation.ValidateShares(shares); err != nil {
		return fmt.Errorf("approx: %w", err)
	}
	s.cfg.Shares = append(s.cfg.Shares[:0], shares...)
	return nil
}

// applyOpts folds the per-call options into the solver state.
func (s *Solver) applyOpts(opts []SolveOption) error {
	var o solveOpts
	for _, f := range opts {
		f(&o)
	}
	if o.shares != nil {
		if err := s.setShares(o.shares); err != nil {
			return err
		}
	}
	if s.cfg.Shares == nil {
		return fmt.Errorf("approx: no share vector: set Config.Shares or pass WithShares")
	}
	return nil
}

// Solve builds and solves the per-target hierarchy M^1..M^K for the given
// target SC: the other SCs are processed in ascending index order with the
// target last. Use SolveAll for every SC's metrics off one shared
// hierarchy.
func (s *Solver) Solve(target int, opts ...SolveOption) (*Model, error) {
	if err := s.applyOpts(opts); err != nil {
		return nil, err
	}
	if target < 0 || target >= s.k {
		return nil, fmt.Errorf("approx: target %d out of range [0,%d)", target, s.k)
	}
	return s.solveTarget(target)
}

func (s *Solver) solveTarget(target int) (*Model, error) {
	levels, err := s.buildChain(target)
	if err != nil {
		return nil, err
	}
	m := &Model{
		target:     target,
		metrics:    levels[len(levels)-1].metrics(),
		levelSizes: make([]int, len(levels)),
	}
	for i, lv := range levels {
		m.levelSizes[i] = lv.numStates()
		m.totalStates += lv.numStates()
	}
	return m, nil
}

// buildChain runs the pass loop over the target's level order and returns
// the final pass's solved levels — views into the solver's arena slots,
// valid until the next build.
func (s *Solver) buildChain(target int) ([]*level, error) {
	order := s.defaultOrder(target)
	demand := 0.0
	levels := s.levels[:0]
	for pass := 0; pass < s.passes; pass++ {
		levels = levels[:0]
		var prev *level
		prevIdx := -1
		for pos, scIdx := range order {
			sl := s.slots[pos]
			lv, err := s.buildLevel(sl, prev, prevIdx, scIdx, demand, target, 0, 0)
			s.fold(sl.stats, sl.inter.dropped)
			if err != nil {
				return nil, err
			}
			levels = append(levels, lv)
			prev = lv
			prevIdx = scIdx
		}
		if pass+1 < s.passes {
			demand = successorDemand(s.cfg, levels, order)
		}
	}
	s.levels = levels
	return levels, nil
}

// buildLevel assembles and solves one hierarchy level into the given arena
// slot: SC scIdx fed by the solved predecessor level (nil for a first
// level) under the given successor-demand rate. The build's accounting
// stays in the slot (stats, inter.dropped) for the caller to fold. Warm
// lookups and stores are keyed by warmTarget — the target whose
// per-target hierarchy this level would belong to — so the shared spine
// of SolveAll and the chain of Solve(k-1) warm each other, and each
// readout level shares warmth with Solve(t)'s final level. shiftF/shiftLent install the readout
// self-exclusion shift (see buildReadout); both are 0 for ordinary chain
// levels.
func (s *Solver) buildLevel(sl *levelSlot, prev *level, prevIdx, scIdx int, demand float64, warmTarget int, shiftF, shiftLent float64) (*level, error) {
	cfg := &s.cfg
	sc := cfg.Federation.SCs[scIdx]
	share := cfg.Shares[scIdx]
	pool := cloud.PoolExcluding(cfg.Shares, scIdx)
	// Shares of the other members of the previous level's pool (everyone
	// except the previous SC and this one); they weight the demand split in
	// the interaction vectors.
	peers := sl.peers[:0]
	for j, sh := range cfg.Shares {
		if j != scIdx && j != prevIdx {
			peers = append(peers, sh)
		}
	}
	sl.peers = peers
	sl.lv.reset(sc, share, pool, poolDim(*cfg, s.overflow, scIdx, pool))
	sl.stats = markov.SolveStats{}
	sl.inter.reset(prev, share, peers, cfg.Prune, s.truncEps)
	sl.inter.preserveS = prev == nil && demand > 0
	if shiftF > 0 || shiftLent > 0 {
		sl.inter.setSelfExclusion(shiftF, shiftLent)
	}
	solver := cfg.Solver
	solver.Dst = sl.lv.steady
	solver.Work = &sl.work
	solver.Stats = &sl.stats
	if start := cfg.Warm.lookup(s.k, warmTarget, scIdx, sl.lv.numStates()); start != nil {
		solver.Start = start
	}
	if err := sl.build(demand, solver); err != nil {
		return nil, err
	}
	cfg.Warm.store(s.k, warmTarget, scIdx, sl.lv.numStates(), sl.lv.steady)
	return &sl.lv, nil
}

// fold adds one level build's accounting to the configured sinks: its
// steady-state solver effort to Config.Solver.Stats and the masses its
// truncation shed, in shedding order, to Config.PruneStats. Builds fold in
// the order the serial schedule runs them, so every counter keeps its bits
// whichever worker ran the build.
func (s *Solver) fold(stats markov.SolveStats, dropped []float64) {
	if st := s.cfg.Solver.Stats; st != nil {
		st.Iterations += stats.Iterations
		st.Solves += stats.Solves
	}
	s.cfg.PruneStats.recordAll(dropped)
}

// selfExclusionTol is the per-SC borrow-estimate movement (in VMs) below
// which the SolveAll readout fixpoint is considered settled.
const selfExclusionTol = 0.05

// maxReadoutRounds bounds the readout fixpoint iteration; estimates settle
// within two rounds on every studied federation.
const maxReadoutRounds = 2

// SolveAll computes every SC's metrics off one shared hierarchy per
// strategy vector instead of K independent per-target hierarchies.
//
// Construction: the canonical ascending chain M^1..M^K — the shared spine,
// identical (passes included) to the per-target hierarchy of SC K-1 — is
// built and solved once; SC K-1's metrics are read from its last level
// directly. Every other SC t then gets a single readout level fed by the
// spine's last level, with SC t's own expected shared-VM usage subtracted
// from the predecessor summary (the self-exclusion shift), and the
// subtraction is iterated to a fixpoint on the borrow estimates. That is
// ~K+... level solves per vector in place of the K*K (times passes) a
// per-target loop pays; DESIGN.md §12 spells out what is and is not
// identical to K per-target Solve calls. The last spine level's
// conditioning groups are all stepped before the first round (see
// level.stepAll), so the readouts only read its iterate cache; each
// round's K-1 readouts are claimed by the caller and up to GOMAXPROCS-1
// helpers (claim.Run), each in its own readout arena, and their results
// and accounting are folded in readout order after the round.
func (s *Solver) SolveAll(opts ...SolveOption) ([]cloud.Metrics, error) {
	if err := s.applyOpts(opts); err != nil {
		return nil, err
	}
	k := s.k
	if k == 1 {
		m, err := s.solveTarget(0)
		if err != nil {
			return nil, err
		}
		return []cloud.Metrics{m.Metrics()}, nil
	}
	spine, err := s.buildChain(k - 1)
	if err != nil {
		return nil, err
	}
	last := spine[k-1]
	out := make([]cloud.Metrics, k)
	out[k-1] = last.metrics()
	// Initial self-usage estimates come from the spine itself: level t
	// models SC t with only SCs 0..t-1 interacting, so its borrow rate is a
	// coarse first guess the readout rounds refine.
	if cap(s.borrow) < k {
		s.borrow = make([]float64, k)
	}
	borrow := s.borrow[:k]
	for t := 0; t < k-1; t++ {
		borrow[t] = spine[t].metrics().BorrowRate
	}
	last.stepAll()
	workers := claim.Workers(k-1, 0)
	for len(s.readouts) < workers {
		s.readouts = append(s.readouts, newLevelSlot(&s.steps))
	}
	if len(s.results) < k-1 {
		s.results = append(s.results, make([]readoutResult, k-1-len(s.results))...)
	}
	results := s.results[:k-1]
	for round := 0; round < maxReadoutRounds; round++ {
		claim.Run(k-1, workers, func(w, t int) {
			sl, r := s.readouts[w], &results[t]
			lv, err := s.buildReadout(sl, last, k-1, t, borrow[t])
			r.err, r.stats = err, sl.stats
			r.dropped = append(r.dropped[:0], sl.inter.dropped...)
			if err == nil {
				r.metrics = lv.metrics()
			}
		})
		moved := false
		for t := range results {
			r := &results[t]
			s.fold(r.stats, r.dropped)
			if r.err != nil {
				return nil, r.err
			}
			if math.Abs(r.metrics.BorrowRate-borrow[t]) > selfExclusionTol {
				moved = true
			}
			borrow[t] = r.metrics.BorrowRate
			out[t] = r.metrics
		}
		if !moved {
			break
		}
	}
	return out, nil
}

// buildReadout solves SC t's readout level off the shared spine into the
// readout arena sl: one final hierarchy level whose predecessor is the
// spine's last level. The spine includes SC t among the last level's
// predecessors, so its summary counts SC t's own borrowing as foreign pool
// usage; the self-exclusion shift subtracts that usage in expectation,
// split between the last SC's lent count (the borrowed VMs that belong to
// SC lastIdx) and the foreign usage F (those that belong to the remaining
// pool members).
func (s *Solver) buildReadout(sl *levelSlot, last *level, lastIdx, t int, borrowEst float64) (*level, error) {
	shiftF, shiftLent := 0.0, 0.0
	if pool := cloud.PoolExcluding(s.cfg.Shares, t); pool > 0 && borrowEst > 0 {
		wLast := float64(s.cfg.Shares[lastIdx]) / float64(pool)
		shiftLent = borrowEst * wLast
		shiftF = borrowEst * (1 - wLast)
	}
	return s.buildLevel(sl, last, lastIdx, t, 0, t, shiftF, shiftLent)
}

// successorDemand estimates the rate at which the rest of the federation
// acquires the first-level SC's shared VMs: every other SC's borrowed-VM
// throughput, attributed to the first SC in proportion to its slice of
// that SC's borrowable pool.
func successorDemand(cfg Config, levels []*level, order []int) float64 {
	first := order[0]
	firstShare := cfg.Shares[first]
	if firstShare == 0 {
		return 0
	}
	total := 0.0
	for li, lv := range levels {
		if li == 0 {
			continue
		}
		scIdx := order[li]
		pool := cloud.PoolExcluding(cfg.Shares, scIdx)
		if pool == 0 {
			continue
		}
		met := lv.metrics()
		total += met.BorrowRate * lv.sc.ServiceRate * float64(firstShare) / float64(pool)
	}
	return total
}

// overflowErlangs estimates each SC's demand on the shared pool as the
// Erlang load of the requests its no-sharing model would forward; this
// sizes the modeled pool dimension.
func overflowErlangs(fed cloud.Federation) ([]float64, error) {
	out := make([]float64, len(fed.SCs))
	for i, sc := range fed.SCs {
		m, err := queueing.Solve(sc)
		if err != nil {
			return nil, fmt.Errorf("approx: overflow estimate for SC %d: %w", i, err)
		}
		out[i] = m.Metrics().PublicRate / sc.ServiceRate
	}
	return out, nil
}

// poolDim bounds the modeled (o, a) usage grid of SC scIdx's level: the
// total overflow demand of the other SCs plus a generous fluctuation
// margin, clipped to the declared pool.
func poolDim(cfg Config, overflow []float64, scIdx, pool int) int {
	if cfg.PoolCap < 0 {
		return pool
	}
	if cfg.PoolCap > 0 {
		return min(pool, cfg.PoolCap)
	}
	d := 0.0
	for j, x := range overflow {
		if j != scIdx {
			d += x
		}
	}
	return min(pool, int(math.Ceil(d+6*math.Sqrt(d)))+3)
}

// defaultOrder is the paper's level order for one target: the other SCs in
// ascending index order, the target last. The returned slice is solver
// scratch, valid until the next call.
func (s *Solver) defaultOrder(target int) []int {
	order := s.orderBuf[:0]
	for i := 0; i < s.k; i++ {
		if i != target {
			order = append(order, i)
		}
	}
	order = append(order, target)
	s.orderBuf = order
	return order
}

// Metrics returns the target SC's performance parameters.
func (m *Model) Metrics() cloud.Metrics { return m.metrics }

// Target returns the SC index the hierarchy was solved for.
func (m *Model) Target() int { return m.target }

// TotalStates returns the summed size of all level chains; the quantity
// the paper compares against the exponential detailed model (Fig. 8a).
func (m *Model) TotalStates() int { return m.totalStates }

// LevelSizes returns the state count of each level in order.
func (m *Model) LevelSizes() []int { return m.levelSizes }
