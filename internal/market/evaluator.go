package market

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"scshare/internal/approx"
	"scshare/internal/claim"
	"scshare/internal/cloud"
	"scshare/internal/exact"
	"scshare/internal/fluid"
)

// Evaluator produces the performance metrics of one SC under a sharing
// vector. Metrics are price-independent, which is what lets the game and
// the price sweeps share solves through Memoize.
//
// Evaluate must not retain shares after it returns: the caller owns the
// vector and may overwrite it for the next call (the game's best-response
// search reuses one trial vector per search). An implementation that keeps
// the vector, as a cache key or in a stored model, keeps a copy. The same
// holds for AllEvaluator.EvaluateAll.
type Evaluator interface {
	Evaluate(shares []int, target int) (cloud.Metrics, error)
}

// AllEvaluator is an Evaluator whose underlying solve yields every SC's
// metrics at once — one hierarchy/fixed-point/simulation run per share
// vector instead of one per (shares, target). Every evaluator NewEvaluator
// returns implements it, and Memoize, WithParticipation and the welfare
// planner take nothing else: the cache is keyed by share vector, so the K
// per-target lookups the game issues for one vector collapse into a single
// solve. Like Evaluate, EvaluateAll must not retain shares.
type AllEvaluator interface {
	Evaluator
	EvaluateAll(shares []int) ([]cloud.Metrics, error)
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(shares []int, target int) (cloud.Metrics, error)

// Evaluate implements Evaluator.
func (f EvaluatorFunc) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	return f(shares, target)
}

// Kind selects the performance model backing an evaluator.
type Kind int

// The evaluator kinds NewEvaluator accepts. The zero Kind is invalid so an
// unset model field fails loudly instead of silently picking a default.
const (
	KindApprox Kind = iota + 1
	KindExact
	KindSim
	KindFluid
)

// Valid reports whether k names a known model kind.
func (k Kind) Valid() bool {
	return k >= KindApprox && k <= KindFluid
}

// String returns the parseable name of the kind.
func (k Kind) String() string {
	switch k {
	case KindApprox:
		return "approx"
	case KindExact:
		return "exact"
	case KindSim:
		return "sim"
	case KindFluid:
		return "fluid"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a model name ("approx", "exact", "sim", "fluid") to its
// Kind. It is the single source of truth for model-name validation: the
// CLI and the serve front-end both delegate here.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "approx":
		return KindApprox, nil
	case "exact":
		return KindExact, nil
	case "sim":
		return KindSim, nil
	case "fluid":
		return KindFluid, nil
	default:
		return 0, fmt.Errorf("market: unknown model %q (want approx, exact, sim, or fluid)", name)
	}
}

// Simulation parameters: the default horizon, used when EvaluatorOptions
// leaves SimHorizon zero, is long enough for the Fig. 5 workloads to mix,
// and the warmup (horizon/simWarmupDivisor) discards the leading transient.
const (
	defaultSimHorizon = 20000
	simWarmupDivisor  = 20
)

// EvaluatorOptions carries the per-model tuning of NewEvaluator. Only the
// fields of the selected kind are read; the zero value is a usable default
// for every model.
type EvaluatorOptions struct {
	// Approx configures the hierarchical approximation (KindApprox). Its
	// Federation and Shares fields are overwritten per evaluation; Warm
	// follows the ApproxEvaluator ownership rule (nil means an
	// evaluator-private cache).
	Approx approx.Config
	// SimHorizon and SimSeed configure the discrete-event simulator
	// (KindSim); a zero horizon picks the package default. The simulator
	// discards the first horizon/20 as warmup.
	SimHorizon float64
	SimSeed    int64
}

// NewEvaluator is the single construction surface for the performance
// models: it returns a whole-vector evaluator for the given kind, so
// callers (core.Framework, scserve, the CLIs) no longer switch on the model
// to pick a constructor. The result is safe for concurrent use but not yet
// memoized — wrap it in Memoize (and WithParticipation) as needed.
func NewEvaluator(kind Kind, fed cloud.Federation, opts EvaluatorOptions) (AllEvaluator, error) {
	switch kind {
	case KindApprox:
		return ApproxEvaluator(fed, opts.Approx), nil
	case KindExact:
		return ExactEvaluator(fed), nil
	case KindSim:
		horizon := opts.SimHorizon
		if horizon <= 0 {
			horizon = defaultSimHorizon
		}
		return SimEvaluator(fed, horizon, horizon/simWarmupDivisor, opts.SimSeed), nil
	case KindFluid:
		return fluid.NewEvaluator(fed), nil
	default:
		return nil, fmt.Errorf("market: invalid evaluator kind %v", kind)
	}
}

// approxEvaluator backs ApproxEvaluator; cfg carries the resolved warm
// cache, so the struct itself is immutable and safe for concurrent use.
// Solver handles are pooled per worker: an approx.Solver owns reusable
// level arenas and is single-goroutine, so each evaluation checks one out,
// re-aims it with WithShares, and returns it for the next caller.
type approxEvaluator struct {
	cfg  approx.Config
	pool *sync.Pool
}

// ApproxEvaluator evaluates sharing decisions with the hierarchical
// approximate model — the configuration the paper uses for its market
// experiments. Whole-vector evaluations run Solver.SolveAll, which
// amortizes the K per-target hierarchies into one shared spine plus
// readout levels. Its bare Evaluate runs the per-target Solver.Solve, so
// Evaluate(shares, i) need not equal EvaluateAll(shares)[i]; wrapped in
// WithParticipation or Memoize, every evaluation reads SolveAll.
//
// Warm-cache ownership: when cfg.Warm is nil the evaluator allocates a
// private cache, so successive solves warm each other but nothing outside
// this evaluator does. Callers who want warmth shared across evaluators —
// e.g. the per-sub-federation evaluators of a participation game — must
// pass the same non-nil cfg.Warm to every constructor call; the cache
// remains caller-owned and is never reset by the evaluator.
func ApproxEvaluator(fed cloud.Federation, cfg approx.Config) AllEvaluator {
	cfg.Federation = fed
	// The active share vector is per evaluation (WithShares); a stale
	// vector in the caller's template must not fail construction.
	cfg.Shares = nil
	if cfg.Warm == nil {
		cfg.Warm = approx.NewWarmCache()
	}
	return approxEvaluator{cfg: cfg, pool: &sync.Pool{}}
}

// solver checks a Solver handle out of the pool, constructing one on a
// cold pool. Construction errors (an invalid federation) surface here, at
// evaluation time, which keeps the constructor's signature error-free.
func (ae approxEvaluator) solver() (*approx.Solver, error) {
	if s, ok := ae.pool.Get().(*approx.Solver); ok {
		return s, nil
	}
	return approx.NewSolver(ae.cfg)
}

// Evaluate implements Evaluator with a per-target hierarchy solve
// (Solver.Solve), not with EvaluateAll; see ApproxEvaluator.
func (ae approxEvaluator) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	s, err := ae.solver()
	if err != nil {
		return cloud.Metrics{}, err
	}
	m, err := s.Solve(target, approx.WithShares(shares))
	ae.pool.Put(s)
	if err != nil {
		return cloud.Metrics{}, err
	}
	return m.Metrics(), nil
}

// EvaluateAll implements AllEvaluator with one shared-spine SolveAll.
func (ae approxEvaluator) EvaluateAll(shares []int) ([]cloud.Metrics, error) {
	s, err := ae.solver()
	if err != nil {
		return nil, err
	}
	all, err := s.SolveAll(approx.WithShares(shares))
	ae.pool.Put(s)
	return all, err
}

// exactEvaluator backs ExactEvaluator.
type exactEvaluator struct {
	fed cloud.Federation
}

// ExactEvaluator evaluates sharing decisions with the detailed CTMC; it is
// only practical for very small federations. One solve yields every SC's
// metrics, so it implements AllEvaluator natively.
func ExactEvaluator(fed cloud.Federation) AllEvaluator {
	return exactEvaluator{fed: fed}
}

// Evaluate implements Evaluator.
func (ee exactEvaluator) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	m, err := exact.Solve(exact.Config{Federation: ee.fed, Shares: shares})
	if err != nil {
		return cloud.Metrics{}, err
	}
	return m.Metrics(target), nil
}

// EvaluateAll implements AllEvaluator: the detailed chain is solved once
// and every SC's metrics are read from the same stationary distribution.
func (ee exactEvaluator) EvaluateAll(shares []int) ([]cloud.Metrics, error) {
	m, err := exact.Solve(exact.Config{Federation: ee.fed, Shares: shares})
	if err != nil {
		return nil, err
	}
	return m.AllMetrics(), nil
}

// memoEntry is one cached evaluation result: every SC's metrics under
// one share vector, or the error its solve returned.
type memoEntry struct {
	all []cloud.Metrics
	err error
}

// memoCall tracks one in-flight evaluation so concurrent callers of the
// same key wait for it instead of solving the model twice.
type memoCall struct {
	done chan struct{}
	memoEntry
}

// memoEvaluator caches whole-vector evaluations by share vector and
// deduplicates concurrent solves of the same vector. One mutex guards the
// cache and the in-flight table; solves run outside it, so distinct
// vectors still evaluate in parallel.
type memoEvaluator struct {
	inner AllEvaluator
	// hits counts lookups served from the cache (including joins of an
	// in-flight solve); misses counts lookups that ran the model.
	hits, misses atomic.Uint64

	mu sync.Mutex
	// cache and inflight are guarded by mu.
	cache    map[string]memoEntry
	inflight map[string]*memoCall
}

// do returns the entry for key, joining an in-flight solve when one exists
// and running solve itself otherwise. The solve runs outside the critical
// section. The second result reports whether the entry was served without
// running solve (a cache hit or an in-flight join). Lookups index the maps
// with string(key), which Go does without copying, so only a miss, which
// stores the key, allocates its string.
func (me *memoEvaluator) do(key []byte, solve func() memoEntry) (memoEntry, bool) {
	me.mu.Lock()
	if e, ok := me.cache[string(key)]; ok {
		me.mu.Unlock()
		return e, true
	}
	if c, ok := me.inflight[string(key)]; ok {
		me.mu.Unlock()
		<-c.done
		return c.memoEntry, true
	}
	k := string(key)
	c := &memoCall{done: make(chan struct{})}
	me.inflight[k] = c
	me.mu.Unlock()

	c.memoEntry = solve()
	close(c.done)

	me.mu.Lock()
	me.cache[k] = c.memoEntry
	delete(me.inflight, k)
	me.mu.Unlock()
	return c.memoEntry, false
}

// CacheStats summarizes a memoized evaluator's lookup history. A hit is a
// lookup answered without running the performance model — either from the
// cache or by joining another caller's in-flight solve of the same share
// vector; a miss is one whole-vector model run.
type CacheStats struct {
	Hits, Misses uint64
}

// HitRatio returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheStatsReporter is implemented by the evaluators Memoize returns; the
// scserve /metrics endpoint reads it to report the cross-request hit
// ratio.
type CacheStatsReporter interface {
	Stats() CacheStats
}

// Stats implements CacheStatsReporter.
func (me *memoEvaluator) Stats() CacheStats {
	return CacheStats{Hits: me.hits.Load(), Misses: me.misses.Load()}
}

// Memoize caches evaluations by share vector: one EvaluateAll of the
// wrapped evaluator answers EvaluateAll and every Evaluate of that vector.
// It is safe for concurrent use: parallel callers asking for the same
// vector share a single solve, and distinct vectors solve in parallel.
func Memoize(ev AllEvaluator) AllEvaluator {
	return &memoEvaluator{
		inner:    ev,
		cache:    make(map[string]memoEntry),
		inflight: make(map[string]*memoCall),
	}
}

// keyBufLen sizes the stack buffer a cache key is built in: enough for
// 32 SCs with two-digit shares. A longer key spills to the heap.
const keyBufLen = 128

// appendVectorKey appends the cache key of a share vector to key.
func appendVectorKey(key []byte, shares []int) []byte {
	return appendProbeKey(key, shares, -1, 0)
}

// appendProbeKey appends the cache key of base with entry sc set to share
// (base itself when sc is -1) to key.
func appendProbeKey(key []byte, base []int, sc, share int) []byte {
	for i, s := range base {
		if i == sc {
			s = share
		}
		key = strconv.AppendInt(key, int64(s), 10)
		key = append(key, ',')
	}
	return key
}

// shareKey returns the cache key of a share vector as a string, for the
// game's cycle detector.
func shareKey(shares []int) string {
	var buf [keyBufLen]byte
	return string(appendVectorKey(buf[:0], shares))
}

// entry returns the cached entry for shares, solving it exactly once per
// vector.
func (me *memoEvaluator) entry(shares []int) memoEntry {
	var buf [keyBufLen]byte
	e, hit := me.do(appendVectorKey(buf[:0], shares), func() memoEntry {
		all, err := me.inner.EvaluateAll(shares)
		return memoEntry{all: all, err: err}
	})
	if hit {
		me.hits.Add(1)
	} else {
		me.misses.Add(1)
	}
	return e
}

// EvaluateAll implements AllEvaluator. The returned slice is owned by the
// cache and must not be mutated.
func (me *memoEvaluator) EvaluateAll(shares []int) ([]cloud.Metrics, error) {
	e := me.entry(shares)
	return e.all, e.err
}

// Evaluate implements Evaluator.
func (me *memoEvaluator) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	return metricsOf(me.entry(shares), target)
}

// metricsOf reads SC target's metrics out of a cache entry.
func metricsOf(e memoEntry, target int) (cloud.Metrics, error) {
	if e.err != nil {
		return cloud.Metrics{}, e.err
	}
	if target < 0 || target >= len(e.all) {
		return cloud.Metrics{}, fmt.Errorf("market: target %d out of range [0,%d)", target, len(e.all))
	}
	return e.all[target], nil
}

// evaluateProbes answers every probe as Evaluate of its vector (base with
// entry p.sc set to p.share) for target p.sc would, with the same hit and
// miss counts, but looks them all up under one lock and solves the misses
// on the caller and up to workers-1 helpers (claim.Run), each on its own
// copy of the vector, so a batch of hits takes one lock, no goroutine and
// no allocation. The probes with p.share == base[p.sc] all read base
// itself: on a miss they share one solve, after which the rest read it as
// hits. Once ctx is done no further miss is solved, and the probes left
// unanswered stay unknown.
func (me *memoEvaluator) evaluateProbes(ctx context.Context, base []int, probes []probe, workers int) {
	var (
		buf    [keyBufLen]byte
		hits   uint64
		misses int
	)
	me.mu.Lock()
	for j := range probes {
		p := &probes[j]
		e, ok := me.cache[string(appendProbeKey(buf[:0], base, p.sc, p.share))]
		if p.known = ok; ok {
			p.m, p.err = metricsOf(e, p.sc)
			hits++
		} else {
			misses++
		}
	}
	me.mu.Unlock()
	me.hits.Add(hits)
	if misses == 0 {
		return
	}

	readsBase := func(p *probe) bool { return p.share == base[p.sc] }
	pending := make([]int, 0, misses)
	baseTaken := false
	for j := range probes {
		p := &probes[j]
		if p.known || readsBase(p) && baseTaken {
			continue
		}
		baseTaken = baseTaken || readsBase(p)
		pending = append(pending, j)
	}
	claim.Run(len(pending), workers, func(_, n int) {
		if ctx.Err() != nil {
			return
		}
		p := &probes[pending[n]]
		v := slices.Clone(base)
		v[p.sc] = p.share
		p.m, p.err = me.Evaluate(v, p.sc)
		p.known = true
	})
	// What remains read base, now cached, unless ctx stopped its solve.
	for j := range probes {
		if p := &probes[j]; !p.known && ctx.Err() == nil {
			p.m, p.err = me.Evaluate(base, p.sc)
			p.known = true
		}
	}
}

// ValidateShares is a convenience wrapper producing a descriptive error for
// evaluator misuse.
func ValidateShares(fed cloud.Federation, shares []int, target int) error {
	if err := fed.ValidateShares(shares); err != nil {
		return err
	}
	if target < 0 || target >= len(fed.SCs) {
		return fmt.Errorf("market: target %d out of range [0,%d)", target, len(fed.SCs))
	}
	return nil
}
