package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/core"
	"scshare/internal/fleet"
	"scshare/internal/market"
	"scshare/internal/markov"
)

// span is one call at a layer boundary, recorded from the benchmark's own
// code around the call into that layer. Spans of one op share op; parent
// is the enclosing span (−1 for an op's root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Game workers report
// evaluator spans concurrently, hence the mutex.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int32) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// call records f as a span and returns its duration.
func (t *tracer) call(name string, parent, op int32, f func(id int32) error) (time.Duration, error) {
	id := t.begin(name, parent, op)
	err := f(id)
	return t.end(id), err
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timedEvaluator wraps a framework's evaluator, recording one span per
// call and summing time and calls for the current op. The game may call
// it from several goroutines at once.
type timedEvaluator struct {
	inner      market.AllEvaluator
	tr         *tracer
	parent, op int32
	ns, calls  atomic.Int64
}

func newTimedEvaluator(ev market.Evaluator, tr *tracer) (*timedEvaluator, error) {
	all, ok := ev.(market.AllEvaluator)
	if !ok {
		return nil, fmt.Errorf("evaluator %T has no whole-vector path", ev)
	}
	return &timedEvaluator{inner: all, tr: tr}, nil
}

// reset points the wrapper at a new op's game span and zeroes its sums.
func (e *timedEvaluator) reset(parent, op int32) {
	e.parent, e.op = parent, op
	e.ns.Store(0)
	e.calls.Store(0)
}

func (e *timedEvaluator) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	id := e.tr.begin("market.evaluate", e.parent, e.op)
	m, err := e.inner.Evaluate(shares, target)
	e.ns.Add(int64(e.tr.end(id)))
	e.calls.Add(1)
	return m, err
}

func (e *timedEvaluator) EvaluateAll(shares []int) ([]cloud.Metrics, error) {
	id := e.tr.begin("market.evaluate", e.parent, e.op)
	m, err := e.inner.EvaluateAll(shares)
	e.ns.Add(int64(e.tr.end(id)))
	e.calls.Add(1)
	return m, err
}

// game builds the repeated game core.Framework runs at one price, on the
// given evaluator.
func game(cfg core.Config, price float64, ev market.Evaluator) *market.Game {
	fed := cfg.Federation
	fed.FederationPrice = price
	return &market.Game{
		Federation:   fed,
		Evaluator:    ev,
		Gamma:        cfg.Gamma,
		TabuDistance: cfg.TabuDistance,
		MaxRounds:    cfg.MaxRounds,
		MaxShares:    cfg.MaxShares,
	}
}

// minPublic is the cheapest public price, the base of the price ratio.
func minPublic(fed cloud.Federation) float64 {
	m := fed.SCs[0].PublicPrice
	for _, sc := range fed.SCs[1:] {
		m = min(m, sc.PublicPrice)
	}
	return m
}

// ladderRec collects one ladder's per-op timings with one kernel reading
// after each op, so every timing is calibrated by the host speed around it.
type ladderRec struct {
	cal      *calibrator
	readings []float64
	times    map[string][]opTime
	sums     map[string]float64
	ops      int
}

type opTime struct {
	op int
	ms float64
}

func newLadderRec(cal *calibrator) *ladderRec {
	return &ladderRec{cal: cal, times: map[string][]opTime{}, sums: map[string]float64{}}
}

// add records a timing of the current op.
func (r *ladderRec) add(name string, d time.Duration) {
	r.times[name] = append(r.times[name], opTime{op: r.ops, ms: float64(d) / 1e6})
}

// count adds to a per-run counter.
func (r *ladderRec) count(name string, v float64) { r.sums[name] += v }

// next closes the current op with a kernel reading.
func (r *ladderRec) next() {
	r.readings = append(r.readings, r.cal.read())
	r.ops++
}

// median is the calibrated median of a timing across ops. Timings taken
// before the first op (core.New in a ladder's set-up) use op 0's scale.
func (r *ladderRec) median(name string) float64 {
	scales := localScales(r.readings, epochHalfWindow)
	var vs []float64
	for _, t := range r.times[name] {
		vs = append(vs, t.ms*scales[t.op])
	}
	return median(vs)
}

// perOp is a counter's mean per op.
func (r *ladderRec) perOp(name string) float64 { return r.sums[name] / float64(r.ops) }

// ratio is sums[a] ÷ (sums[a] + sums[b]), 0 when both are 0.
func (r *ladderRec) ratio(a, b string) float64 {
	if t := r.sums[a] + r.sums[b]; t > 0 {
		return r.sums[a] / t
	}
	return 0
}

// more reports whether a ladder should run another op: always at least
// one, then until d has passed or maxOps are done.
func (r *ladderRec) more(start time.Time, d time.Duration, maxOps int) bool {
	return r.ops == 0 || (time.Since(start) < d && r.ops < maxOps)
}

// parseVectorKey decodes a memoized cache key ("s1,s2,...,") into shares.
func parseVectorKey(key string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(strings.TrimSuffix(key, ","), ",") {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("cache key %q: %w", key, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// resolveVectors re-solves, cold and one at a time, every share vector a
// framework's cache holds, through the constructors core.New uses
// (market.NewEvaluator under WithParticipation). A SolveStats sink counts
// the markov iterations; it is safe because the solves run serially.
func resolveVectors(ctx context.Context, cfg core.Config, snap core.Snapshot, tr *tracer, r *ladderRec) error {
	if snap.Eval == nil || len(snap.Eval.Vectors) == 0 {
		return fmt.Errorf("framework cache holds no solved vectors")
	}
	var stats markov.SolveStats
	vectors := 0
	for _, v := range snap.Eval.Vectors {
		if err := ctx.Err(); err != nil {
			return err
		}
		shares, err := parseVectorKey(v.Key)
		if err != nil {
			return err
		}
		opts := market.EvaluatorOptions{Approx: cfg.Approx}
		opts.Approx.Warm = approx.NewWarmCache() // a fresh cache: every level solves cold
		opts.Approx.PruneStats = nil
		opts.Approx.Solver.Stats = &stats
		var mkErr error
		ev := market.WithParticipation(cfg.Federation, func(sub cloud.Federation) market.Evaluator {
			e, err := market.NewEvaluator(market.KindApprox, sub, opts)
			if err != nil {
				mkErr = err
				return market.EvaluatorFunc(func([]int, int) (cloud.Metrics, error) { return cloud.Metrics{}, err })
			}
			return e
		})
		all, ok := ev.(market.AllEvaluator)
		if !ok || mkErr != nil {
			return fmt.Errorf("approx evaluator: whole-vector path missing (%v)", mkErr)
		}
		d, err := tr.call("approx.solve", -1, -1, func(int32) error {
			_, err := all.EvaluateAll(shares)
			return err
		})
		if err != nil {
			return fmt.Errorf("re-solving %v: %w", shares, err)
		}
		r.add("approx.solve", d)
		r.readings = append(r.readings, r.cal.read())
		vectors++
	}
	r.sums["markov.iterations"] = float64(stats.Iterations)
	r.sums["markov.solves"] = float64(stats.Solves)
	r.sums["approx.vectors"] = float64(vectors)
	return nil
}

// solveMedian is the calibrated median re-solve time, scaled by the
// readings taken right after each re-solve.
func (r *ladderRec) solveMedian() float64 {
	ts := r.times["approx.solve"]
	if len(ts) == 0 {
		return 0
	}
	rs := r.readings[len(r.readings)-len(ts):]
	scales := localScales(rs, epochHalfWindow)
	vs := make([]float64, len(ts))
	for i, t := range ts {
		vs[i] = t.ms * scales[i]
	}
	return median(vs)
}

// approxMetrics fills the approx.* and markov.* metrics of a ladder that
// re-solved its framework's vectors; opMs and busy give solve_share.
func approxMetrics(m layerMetrics, r *ladderRec, prune approx.PruneStats, warm approx.WarmStats, missesPerOp, opMs float64, busy int) {
	solve := r.solveMedian()
	n := r.sums["approx.vectors"]
	m["approx.solve_ms"] = solve
	m["approx.solve_share"] = missesPerOp * solve / (opMs * float64(busy))
	m["approx.truncated_mass"] = prune.TotalMass
	m["approx.truncated_joints"] = float64(prune.Joints)
	if t := warm.Hits + warm.Misses; t > 0 {
		m["approx.warm_hit_ratio"] = float64(warm.Hits) / float64(t)
	} else {
		m["approx.warm_hit_ratio"] = 0
	}
	if n > 0 {
		m["markov.iterations_per_solve"] = r.sums["markov.iterations"] / n
		m["markov.solves_per_solve"] = r.sums["markov.solves"] / n
	}
}

// timeNew times core.New a few times (it is cheap) and keeps the last
// framework.
func timeNew(cfg core.Config, tr *tracer, r *ladderRec, times int) (*core.Framework, error) {
	var fw *core.Framework
	for i := 0; i < times; i++ {
		d, err := tr.call("core.new", -1, -1, func(int32) error {
			var err error
			fw, err = core.New(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.add("core.new", d)
	}
	return fw, nil
}

// serveCounters is the part of scserve's /metrics the trace reads.
type serveCounters struct {
	Admission struct {
		Admitted         float64 `json:"admitted"`
		Shed             float64 `json:"shed"`
		QueueWaitSeconds float64 `json:"queueWaitSeconds"`
	} `json:"admission"`
	Cache struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"cache"`
}

func readServeCounters(ctx context.Context, lb *loopback) (serveCounters, error) {
	var c serveCounters
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lb.url+"/metrics", nil)
	if err != nil {
		return c, err
	}
	resp, err := lb.hc.Do(req)
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&c)
	return c, err
}

// Op caps keep the in-memory span log bounded.
const (
	adviseLadderMaxOps = 1000
	fleetLadderMaxOps  = 500
	sweepLadderMaxOps  = 50
)

// adviseLadder replays the advice stream: each op posts over loopback
// (serve.request), sends the same body into ServeHTTP with a recorder
// (serve.handler), calls AdviseAt on a framework built and warmed the same
// way (core.advise), and runs the game on that framework's evaluator
// behind a timing wrapper (market.game, market.evaluate).
func adviseLadder(ctx context.Context, seed uint64, procs int, tr *tracer, cal *calibrator, d time.Duration, primary bool) (layerMetrics, error) {
	a := newAdviseBench(seed, procs).(*adviseBench)
	defer a.close()
	if err := a.setup(ctx, newSetupTimer(cal)); err != nil {
		return nil, err
	}
	r := newLadderRec(cal)
	sp := a.sp
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	cfg := sp.Config()
	warm := approx.NewWarmCache()
	cfg.Approx.Warm = warm
	fw, err := timeNew(cfg, tr, r, 5)
	if err != nil {
		return nil, err
	}
	for i := 0; i < adviseGridLen; i++ {
		if _, err := fw.AdviseAt(ctx, advisePrice(i), nil, market.AlphaUtilitarian); err != nil {
			return nil, err
		}
	}
	ev, err := newTimedEvaluator(fw.Evaluator(), tr)
	if err != nil {
		return nil, err
	}
	base := minPublic(cfg.Federation)
	c0, err := readServeCounters(ctx, a.lb)
	if err != nil {
		return nil, err
	}
	walk := newPriceWalk(seed, 0)
	start := time.Now()
	for r.more(start, d, adviseLadderMaxOps) {
		idx := walk.next()
		body, price := a.bodies[idx], advisePrice(idx)*base
		op := int32(r.ops)
		root := tr.begin("op.advise", -1, op)
		var status int
		dReq, err := tr.call("serve.request", root, op, func(int32) error {
			var err error
			status, err = a.lb.post(ctx, "/v1/advise", body, &a.bufs[0])
			return err
		})
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("advise: HTTP %d", status)
		}
		if err != nil {
			return nil, err
		}
		dHandler, _ := tr.call("serve.handler", root, op, func(int32) error {
			rec := httptest.NewRecorder()
			a.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(string(body))))
			status = rec.Code
			return nil
		})
		if status != http.StatusOK {
			return nil, fmt.Errorf("advise handler: HTTP %d", status)
		}
		dAdvise, err := tr.call("core.advise", root, op, func(int32) error {
			_, err := fw.AdviseAt(ctx, price, nil, market.AlphaUtilitarian)
			return err
		})
		if err != nil {
			return nil, err
		}
		var out *market.Outcome
		dGame, err := tr.call("market.game", root, op, func(id int32) error {
			ev.reset(id, op)
			var err error
			out, err = game(cfg, price, ev).RunMultiStartContext(ctx, nil, market.AlphaUtilitarian)
			return err
		})
		if err != nil && (out == nil || !errors.Is(err, market.ErrNoEquilibrium)) {
			return nil, err
		}
		tr.end(root)
		r.add("serve.request", dReq)
		r.add("serve.handler", dHandler)
		r.add("core.advise", dAdvise)
		r.add("market.game", dGame)
		r.add("market.evaluate", time.Duration(ev.ns.Load()))
		r.count("evals", float64(ev.calls.Load()))
		r.count("rounds", float64(out.Rounds))
		r.next()
	}
	c1, err := readServeCounters(ctx, a.lb)
	if err != nil {
		return nil, err
	}
	served := 2 * float64(r.ops) // each op is served twice: loopback and handler
	admitted, shed := c1.Admission.Admitted-c0.Admission.Admitted, c1.Admission.Shed-c0.Admission.Shed
	hits, misses := c1.Cache.Hits-c0.Cache.Hits, c1.Cache.Misses-c0.Cache.Misses
	m := layerMetrics{
		"serve.request_ms":     r.median("serve.request"),
		"serve.handler_ms":     r.median("serve.handler"),
		"serve.queue_wait_ms":  0,
		"serve.shed_ratio":     0,
		"core.advise_ms":       r.median("core.advise"),
		"core.new_ms":          r.median("core.new"),
		"market.game_ms":       r.median("market.game"),
		"market.evaluate_ms":   r.median("market.evaluate"),
		"market.evals_per_op":  r.perOp("evals"),
		"market.rounds_per_op": r.perOp("rounds"),
		"market.hit_ratio":     hits / max(hits+misses, 1),
		"market.misses_per_op": misses / served,
		"trace.top_ms":         r.median("serve.request"),
	}
	if admitted > 0 {
		m["serve.queue_wait_ms"] = (c1.Admission.QueueWaitSeconds - c0.Admission.QueueWaitSeconds) * 1e3 / admitted
	}
	if admitted+shed > 0 {
		m["serve.shed_ratio"] = shed / (admitted + shed)
	}
	if primary {
		if err := resolveVectors(ctx, cfg, fw.Snapshot(), tr, r); err != nil {
			return nil, err
		}
		approxMetrics(m, r, fw.PruneStats(), warm.Stats(), misses/served, m["serve.request_ms"], procs)
	}
	return m, nil
}

// sweepLadder replays the cold sweep: core.New (core.new), SweepContext
// with the first OnPoint timed (core.sweep, core.first_point), then each
// point's game replayed serially, in the warm-chain order, on a second cold
// framework behind the timing wrapper (market.game, market.evaluate).
func sweepLadder(ctx context.Context, seed uint64, procs int, tr *tracer, cal *calibrator, d time.Duration, primary bool) (layerMetrics, error) {
	sp := sweepSpec()
	ratios := sweepRatios(seed)
	r := newLadderRec(cal)
	var prune approx.PruneStats
	var warmHits, warmMisses uint64
	var last *core.Framework
	var lastCfg core.Config
	start := time.Now()
	for r.more(start, d, sweepLadderMaxOps) {
		op := int32(r.ops)
		root := tr.begin("op.sweep", -1, op)
		cfg := sp.Config()
		warm := approx.NewWarmCache()
		cfg.Approx.Warm = warm
		var fw *core.Framework
		dNew, err := tr.call("core.new", root, op, func(int32) error {
			var err error
			fw, err = core.New(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		var pts []core.SweepPoint
		var t0 time.Time
		first := time.Duration(-1)
		dSweep, err := tr.call("core.sweep", root, op, func(id int32) error {
			var err error
			t0 = time.Now()
			pts, err = fw.SweepContext(ctx, ratios, sweepAlphas, nil, core.SweepOptions{
				Workers: procs, WarmStart: true,
				OnPoint: func(int, core.SweepPoint) {
					if first < 0 {
						first = time.Since(t0)
						tr.end(tr.begin("core.first_point", id, op))
					}
				},
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		st := fw.Evaluator().(market.CacheStatsReporter).Stats()
		ws := warm.Stats()
		warmHits += ws.Hits
		warmMisses += ws.Misses
		ps := fw.PruneStats()
		prune.TotalMass += ps.TotalMass
		prune.Joints += ps.Joints
		for _, pt := range pts {
			r.count("rounds", float64(pt.Rounds))
		}
		r.count("hits", float64(st.Hits))
		r.count("misses", float64(st.Misses))

		replay, err := core.New(sp.Config())
		if err != nil {
			return nil, err
		}
		ev, err := newTimedEvaluator(replay.Evaluator(), tr)
		if err != nil {
			return nil, err
		}
		var gameNs, evalNs time.Duration
		var prev []int
		base := minPublic(cfg.Federation)
		for _, ratio := range ratios {
			starts := [][]int{nil}
			if prev != nil {
				starts = append(starts, prev)
			}
			var out *market.Outcome
			dGame, err := tr.call("market.game", root, op, func(id int32) error {
				ev.reset(id, op)
				var err error
				out, err = game(cfg, ratio*base, ev).RunMultiStartContext(ctx, starts, sweepAlphas[0])
				return err
			})
			if err != nil && (out == nil || !errors.Is(err, market.ErrNoEquilibrium)) {
				return nil, err
			}
			if err == nil && out.Converged {
				prev = out.Shares
			}
			gameNs += dGame
			evalNs += time.Duration(ev.ns.Load())
			r.count("evals", float64(ev.calls.Load()))
		}
		tr.end(root)
		r.add("core.new", dNew)
		r.add("core.sweep", dSweep)
		r.add("core.first_point", first)
		r.add("market.game", gameNs)
		r.add("market.evaluate", evalNs)
		r.add("top", dNew+dSweep)
		r.next()
		last, lastCfg = fw, cfg
	}
	ops := float64(r.ops)
	prune.TotalMass /= ops
	prune.Joints /= uint64(r.ops)
	m := layerMetrics{
		"core.new_ms":          r.median("core.new"),
		"core.sweep_ms":        r.median("core.sweep"),
		"core.first_point_ms":  r.median("core.first_point"),
		"market.game_ms":       r.median("market.game"),
		"market.evaluate_ms":   r.median("market.evaluate"),
		"market.evals_per_op":  r.perOp("evals"),
		"market.rounds_per_op": r.perOp("rounds"),
		"market.hit_ratio":     r.ratio("hits", "misses"),
		"market.misses_per_op": r.perOp("misses"),
		"trace.top_ms":         r.median("top"),
	}
	if primary {
		if err := resolveVectors(ctx, lastCfg, last.Snapshot(), tr, r); err != nil {
			return nil, err
		}
		approxMetrics(m, r, prune, approx.WarmStats{Hits: warmHits, Misses: warmMisses}, m["market.misses_per_op"], m["core.sweep_ms"], procs)
	}
	return m, nil
}

// fleetLadder replays fleet sweeps: RunSweep with its first point timed
// (fleet.sweep, fleet.first_point), the same grid swept in process with
// Workers 1 on a framework warmed like a worker's (fleet.compute), and
// each point's cold-start game on that framework behind the timing
// wrapper (market.game, market.evaluate).
func fleetLadder(ctx context.Context, seed uint64, procs int, tr *tracer, cal *calibrator, d time.Duration, primary bool) (layerMetrics, error) {
	f := newFleetBench(seed, procs).(*fleetBench)
	defer f.close()
	if err := f.setup(ctx, newSetupTimer(cal)); err != nil {
		return nil, err
	}
	r := newLadderRec(cal)
	cfg := f.sp.Config()
	warm := approx.NewWarmCache()
	cfg.Approx.Warm = warm
	fc, err := timeNew(cfg, tr, r, 5)
	if err != nil {
		return nil, err
	}
	coldOpts := core.SweepOptions{Workers: 1}
	if _, err := fc.SweepContext(ctx, sweepRatios(seed), sweepAlphas, nil, coldOpts); err != nil {
		return nil, err
	}
	memo := fc.Evaluator().(market.CacheStatsReporter)
	c0 := memo.Stats()
	q0, err := f.rig.metrics(ctx)
	if err != nil {
		return nil, err
	}
	ev, err := newTimedEvaluator(fc.Evaluator(), tr)
	if err != nil {
		return nil, err
	}
	base := minPublic(cfg.Federation)
	start := time.Now()
	for r.more(start, d, fleetLadderMaxOps) {
		op := int32(r.ops)
		grid := f.grids[r.ops%fleetGridCount]
		root := tr.begin("op.fleet", -1, op)
		var pts []core.SweepPoint
		var t0 time.Time
		first := time.Duration(-1)
		dSweep, err := tr.call("fleet.sweep", root, op, func(id int32) error {
			t0 = time.Now()
			wps, err := f.rig.client.RunSweep(ctx, submit(f.raw, grid), func(fleet.WirePoint) {
				if first < 0 {
					first = time.Since(t0)
					tr.end(tr.begin("fleet.first_point", id, op))
				}
			})
			for _, wp := range wps {
				pts = append(pts, wp.Point())
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		dCompute, err := tr.call("fleet.compute", root, op, func(int32) error {
			_, err := fc.SweepContext(ctx, grid, sweepAlphas, nil, coldOpts)
			return err
		})
		if err != nil {
			return nil, err
		}
		var gameNs, evalNs time.Duration
		for _, ratio := range grid {
			dGame, err := tr.call("market.game", root, op, func(id int32) error {
				ev.reset(id, op)
				_, err := game(cfg, ratio*base, ev).RunMultiStartContext(ctx, nil, sweepAlphas[0])
				return err
			})
			if err != nil && !errors.Is(err, market.ErrNoEquilibrium) {
				return nil, err
			}
			gameNs += dGame
			evalNs += time.Duration(ev.ns.Load())
			r.count("evals", float64(ev.calls.Load()))
		}
		tr.end(root)
		for _, pt := range pts {
			r.count("rounds", float64(pt.Rounds))
		}
		r.add("fleet.sweep", dSweep)
		r.add("fleet.first_point", first)
		r.add("fleet.compute", dCompute)
		r.add("market.game", gameNs)
		r.add("market.evaluate", evalNs)
		r.next()
	}
	q1, err := f.rig.metrics(ctx)
	if err != nil {
		return nil, err
	}
	c1 := memo.Stats()
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	ops := float64(r.ops)
	m := layerMetrics{
		"fleet.sweep_ms":       r.median("fleet.sweep"),
		"fleet.first_point_ms": r.median("fleet.first_point"),
		"fleet.compute_ms":     r.median("fleet.compute"),
		"fleet.jobs_per_op":    float64(q1.CompletedJobs-q0.CompletedJobs) / ops,
		"fleet.requeues":       float64(q1.Requeues - q0.Requeues),
		"fleet.expired_leases": float64(q1.ExpiredLeases - q0.ExpiredLeases),
		"core.new_ms":          r.median("core.new"),
		"market.game_ms":       r.median("market.game"),
		"market.evaluate_ms":   r.median("market.evaluate"),
		"market.evals_per_op":  r.perOp("evals"),
		"market.rounds_per_op": r.perOp("rounds"),
		"market.hit_ratio":     hits / max(hits+misses, 1),
		"market.misses_per_op": misses / ops,
		"trace.top_ms":         r.median("fleet.sweep"),
	}
	if primary {
		if err := resolveVectors(ctx, cfg, fc.Snapshot(), tr, r); err != nil {
			return nil, err
		}
		approxMetrics(m, r, fc.PruneStats(), warm.Stats(), m["market.misses_per_op"], m["fleet.sweep_ms"], fleetWorkers)
	}
	return m, nil
}

// ladderOwns lists, per workload, the per-layer metrics only its ladder
// can take; a traced run of another workload takes them from a short side
// probe of that ladder. Every other metric comes from the traced
// workload's own ladder.
var ladderOwns = map[string][]string{
	"advise-warm": {"serve.request_ms", "serve.handler_ms", "serve.queue_wait_ms", "serve.shed_ratio", "core.advise_ms"},
	"sweep-cold":  {"core.sweep_ms", "core.first_point_ms"},
	"fleet-warm":  {"fleet.sweep_ms", "fleet.first_point_ms", "fleet.compute_ms", "fleet.jobs_per_op", "fleet.requeues", "fleet.expired_leases"},
}

// sideProbe is how long a side probe of another workload's ladder runs.
const sideProbe = 2 * time.Second

// traceRun is the separate traced run: an untraced phase for the go.*
// metrics and the untraced p50, then the traced replay of this workload's
// ladder, then side probes for the layers this workload never reaches.
func traceRun(ctx context.Context, def *workloadDef, seed uint64, seconds, procs int, w io.Writer) (*result, error) {
	half := time.Duration(seconds) * time.Second / 2
	cal := newCalibrator(def.busy)
	total0, steal0 := cpuTimes()
	b, _, _, err := setUp(ctx, def, seed, procs, cal)
	if err != nil {
		return nil, err
	}
	ph, err := runPhase(ctx, def, b, cal, half, maxPhase(seconds), 1)
	if err != nil {
		b.close()
		return nil, err
	}
	checkFailed, err := b.check(ctx)
	b.close()
	if err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	untraced, err := summarize(ph, 50)
	if err != nil {
		return nil, err
	}
	vals := goMetrics(ph)

	tr := newTracer()
	probed := map[string]string{}
	for _, d := range workloadDefs(procs) {
		primary := d.name == def.name
		dur := sideProbe
		lcal := newCalibrator(d.busy)
		if primary {
			dur, lcal = half, cal
		}
		m, err := d.ladder(ctx, seed, procs, tr, lcal, dur, primary)
		if err != nil {
			return nil, fmt.Errorf("%s ladder: %w", d.name, err)
		}
		if primary {
			vals["trace.overhead"] = m["trace.top_ms"]/untraced.p50 - 1
			delete(m, "trace.top_ms")
			for k, v := range m {
				vals[k] = v
			}
			continue
		}
		for _, k := range ladderOwns[d.name] {
			vals[k] = m[k]
			probed[k] = d.name
		}
	}
	for k, v := range hostMetrics(cal, total0, steal0, untraced.rawP50) {
		vals[k] = v
	}
	path := filepath.Join(".bench_out", fmt.Sprintf("trace-%s-seed%d.jsonl", def.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	metrics, err := collect(perLayer, vals)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "per-layer (traced replay; times calibrated to nominal host speed; %d spans in %s):\n", len(tr.spans), path)
	units := unitsOf(perLayer)
	for _, md := range perLayer {
		note := ""
		if owner, ok := probed[md.name]; ok {
			note = "  (side probe of the " + owner + " ladder: not on this workload's path)"
		}
		fmt.Fprintf(w, "  %-30s %14.6g %s%s\n", md.name, vals[md.name], units[md.name], note)
	}
	fmt.Fprintf(w, "untraced p50 %.6g ms (raw %.6g ms) over %d ops\n", untraced.p50, untraced.rawP50, untraced.samples)
	failed, attempted, _ := failCount(ph, checkFailed)
	return &result{Correct: checkFailed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}
