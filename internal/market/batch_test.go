package market

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/fluid"
)

// hideBatch hides the memo's batch method, so a game's searches evaluate
// every probe when they reach it, in their own order, as they do for any
// evaluator without one. The whole-vector path stays visible, so the final
// evaluation is the same.
func hideBatch(ev Evaluator) Evaluator {
	if all, ok := ev.(AllEvaluator); ok {
		return struct{ AllEvaluator }{all}
	}
	return struct{ Evaluator }{ev}
}

// TestBatchedRoundsMatchPerProbe plays every game twice, once with the
// memo's batch and once with the batch hidden, and requires the same play:
// identical shares, rounds, evals, converged flags, utility bits and
// errors. The cases cover the per-target memo (toy) and the whole-vector
// memo (fluid), strategy lines of 5 points (batched whole) and of 11 (not
// batched), a start that cycles into sequential rounds, RunWithFrozen, and
// a model that fails on some vectors, each on one worker and on four. The
// memo's hit and miss counts must match too, except that with the failing
// model the batch may solve more: it solves a failing SC's whole line,
// where the search stops at the first failure.
func TestBatchedRoundsMatchPerProbe(t *testing.T) {
	toy := func(t *testing.T, fed cloud.Federation) Evaluator { return newToyEvaluator(t, fed) }
	fl := func(_ *testing.T, fed cloud.Federation) Evaluator { return fluid.NewEvaluator(fed) }
	failing := func(t *testing.T, fed cloud.Federation) Evaluator {
		inner := newToyEvaluator(t, fed)
		return EvaluatorFunc(func(shares []int, target int) (cloud.Metrics, error) {
			if shares[1] == 3 && shares[2] >= 2 {
				return cloud.Metrics{}, errors.New("model failed")
			}
			return inner.Evaluate(shares, target)
		})
	}
	capped := []int{4, 4, 4}
	for _, tc := range []struct {
		name      string
		model     func(*testing.T, cloud.Federation) Evaluator
		price     float64
		gamma     float64
		maxShares []int
		initials  [][]int
		frozen    map[int]bool
		cycles    bool // initials[0] is revisited in round 2
		fails     bool // the batch may solve probes past a failure
	}{
		{name: "toy 11-point lines", model: toy, price: 0.4, gamma: 0.5, initials: [][]int{nil, {0, 0, 0}, {5, 2, 8}, {10, 10, 10}}},
		{name: "toy 5-point lines", model: toy, price: 0.4, gamma: 0.5, maxShares: capped, initials: [][]int{nil, {0, 0, 0}, {4, 2, 3}}},
		{name: "toy sequential rounds", model: toy, price: 0.1, gamma: 0.5, maxShares: capped, initials: [][]int{{0, 0, 0}}, cycles: true},
		{name: "toy frozen", model: toy, price: 0.4, gamma: 0.5, initials: [][]int{nil, {3, 3, 3}}, frozen: map[int]bool{1: true}},
		{name: "fluid 11-point lines", model: fl, price: 0.4, gamma: 1, initials: [][]int{nil, {0, 0, 0}, {5, 2, 8}}},
		{name: "fluid 5-point lines", model: fl, price: 0.3, gamma: 0, maxShares: capped, initials: [][]int{nil, {4, 4, 4}}},
		{name: "fluid frozen", model: fl, price: 0.4, gamma: 1, maxShares: capped, initials: [][]int{{2, 0, 4}}, frozen: map[int]bool{0: true, 2: true}},
		{name: "failing model", model: failing, price: 0.4, gamma: 0.5, maxShares: capped, initials: [][]int{{1, 1, 1}, {4, 3, 2}}, fails: true},
	} {
		fed := toyFederation(tc.price)
		game := func(ev Evaluator, workers, rounds int) *Game {
			return &Game{Federation: fed, Evaluator: ev, Gamma: tc.gamma, MaxShares: tc.maxShares, MaxRounds: rounds, Workers: workers}
		}
		if tc.cycles {
			out, err := game(Memoize(tc.model(t, fed)), 1, 2).Run(tc.initials[0])
			if !errors.Is(err, ErrNoEquilibrium) || fmt.Sprint(out.Shares) != fmt.Sprint(tc.initials[0]) {
				t.Fatalf("%s: two rounds from %v end at %v (%v), want the start again", tc.name, tc.initials[0], out.Shares, err)
			}
		}
		for _, workers := range []int{1, 4} {
			for _, init := range tc.initials {
				name := fmt.Sprintf("%s, %d workers, start %v", tc.name, workers, init)
				batched, perProbe := Memoize(tc.model(t, fed)), Memoize(tc.model(t, fed))
				if _, ok := batched.(probeBatcher); !ok {
					t.Fatalf("%s: the memo has no batch method", name)
				}
				hidden := hideBatch(perProbe)
				if _, ok := hidden.(probeBatcher); ok {
					t.Fatalf("%s: hideBatch left the batch method visible", name)
				}
				got, gotErr := game(batched, workers, 40).RunWithFrozen(init, tc.frozen)
				want, wantErr := game(hidden, workers, 40).RunWithFrozen(init, tc.frozen)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s: error %v, per-probe %v", name, gotErr, wantErr)
				}
				if (got == nil) != (want == nil) {
					t.Fatalf("%s: outcome %v, per-probe %v", name, got, want)
				}
				if got != nil {
					if fmt.Sprint(got.Shares, got.Rounds, got.Evals, got.Converged) != fmt.Sprint(want.Shares, want.Rounds, want.Evals, want.Converged) {
						t.Errorf("%s: shares %v rounds %d evals %d converged %v, per-probe %v %d %d %v", name,
							got.Shares, got.Rounds, got.Evals, got.Converged, want.Shares, want.Rounds, want.Evals, want.Converged)
					}
					for i := range got.Utilities {
						if math.Float64bits(got.Utilities[i]) != math.Float64bits(want.Utilities[i]) {
							t.Errorf("%s: SC %d utility %v, per-probe %v", name, i, got.Utilities[i], want.Utilities[i])
						}
					}
				}
				gs, ws := batched.(CacheStatsReporter).Stats(), perProbe.(CacheStatsReporter).Stats()
				switch {
				case tc.fails && gs.Misses < ws.Misses:
					t.Errorf("%s: %d misses, fewer than the per-probe %d", name, gs.Misses, ws.Misses)
				case !tc.fails && gs != ws:
					t.Errorf("%s: cache %+v, per-probe %+v", name, gs, ws)
				}
			}
		}
	}
}
