package market

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/fluid"
)

// countingAllEvaluator counts underlying whole-vector solves so tests can
// assert the memo cache's exactly-once guarantee.
type countingAllEvaluator struct {
	fed    cloud.Federation
	solves atomic.Int64
	// started and release, when set, park every solve: the vector is
	// announced on started, then the solve waits until release is closed.
	started chan []int
	release chan struct{}
}

func (ev *countingAllEvaluator) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	ms, err := ev.EvaluateAll(shares)
	if err != nil {
		return cloud.Metrics{}, err
	}
	return ms[target], nil
}

func (ev *countingAllEvaluator) EvaluateAll(shares []int) ([]cloud.Metrics, error) {
	ev.solves.Add(1)
	if ev.started != nil {
		ev.started <- append([]int(nil), shares...)
		<-ev.release
	}
	out := make([]cloud.Metrics, len(shares))
	for i, s := range shares {
		out[i] = cloud.Metrics{Utilization: float64(s) + float64(i)/10}
	}
	return out, nil
}

// TestMemoCacheStress hammers the memo cache from 64 goroutines over a pile
// of distinct share vectors: every distinct vector must be solved exactly
// once, across all targets.
func TestMemoCacheStress(t *testing.T) {
	fed := testFederation()
	inner := &countingAllEvaluator{fed: fed}
	ev := Memoize(inner)

	const goroutines = 64
	const vectors = 96
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for v := 0; v < vectors; v++ {
				shares := []int{v % 4, (v / 4) % 4, (v / 16) % 4}
				target := (gi + v) % len(fed.SCs)
				m, err := ev.Evaluate(shares, target)
				if err != nil {
					t.Errorf("goroutine %d vector %v: %v", gi, shares, err)
					return
				}
				want := float64(shares[target]) + float64(target)/10
				if m.Utilization != want {
					t.Errorf("shares %v target %d: utilization %v, want %v", shares, target, m.Utilization, want)
					return
				}
			}
		}(gi)
	}
	wg.Wait()

	// 4^3 = 64 distinct vectors; the three targets of each vector share one
	// whole-vector solve, and concurrent repeats must all join it.
	if got := inner.solves.Load(); got != 64 {
		t.Fatalf("underlying evaluator solved %d vectors, want 64", got)
	}
}

// TestMemoHitAllocFree pins the memo cache's hit path to zero
// allocations: a hit builds its key on the stack and looks it up without
// converting it to a string, through Evaluate and EvaluateAll alike, over
// a whole-vector delegate and over a per-target one, and a batch of probes
// that all hit allocates nothing either.
func TestMemoHitAllocFree(t *testing.T) {
	fed := testFederation()
	shares := []int{2, 1, 3}
	all := Memoize(&countingAllEvaluator{fed: fed}).(AllEvaluator)
	perTarget := Memoize(allTargets{EvaluatorFunc(func(shares []int, target int) (cloud.Metrics, error) {
		return cloud.Metrics{Utilization: float64(shares[target])}, nil
	})})
	var probes []probe
	for i := range shares {
		for s := range 4 {
			probes = append(probes, probe{sc: i, share: s})
		}
	}
	batch := func(ev Evaluator) func() error {
		return func() error {
			ev.(probeBatcher).evaluateProbes(context.Background(), shares, probes, 1)
			for _, p := range probes {
				if !p.known || p.err != nil {
					return fmt.Errorf("probe %+v unanswered", p)
				}
			}
			return nil
		}
	}
	for _, tc := range []struct {
		name   string
		lookup func() error
	}{
		{"Evaluate", func() error { _, err := all.Evaluate(shares, 1); return err }},
		{"EvaluateAll", func() error { _, err := all.EvaluateAll(shares); return err }},
		{"per-target Evaluate", func() error { _, err := perTarget.Evaluate(shares, 1); return err }},
		{"probe batch", batch(all)},
		{"per-target probe batch", batch(perTarget)},
	} {
		if err := tc.lookup(); err != nil { // the miss that fills the cache
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := tc.lookup(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: a warm hit allocates %v times", tc.name, allocs)
		}
	}
}

// TestGameParallelMatchesSerial pins the tentpole's determinism claim: the
// Jacobi rounds merge best responses in SC index order, so the parallel
// path must reproduce the serial path's equilibrium bit for bit — shares,
// rounds, and evaluation counts alike.
func TestGameParallelMatchesSerial(t *testing.T) {
	fed := testFederation()
	initials := [][]int{nil, {0, 0, 0}, {2, 2, 2}, {3, 1, 0}}

	mkGame := func(workers int, ev Evaluator) *Game {
		return &Game{
			Federation: fed,
			Evaluator:  ev,
			Gamma:      0.5,
			MaxRounds:  40,
			Workers:    workers,
		}
	}

	for _, tc := range []struct {
		name string
		mk   func() Evaluator
	}{
		{"toy", func() Evaluator { return Memoize(newToyEvaluator(t, fed)) }},
		{"fluid", func() Evaluator { return Memoize(fluid.NewEvaluator(fed)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for ii, init := range initials {
				serial, serr := mkGame(1, tc.mk()).Run(init)
				parallel, perr := mkGame(8, tc.mk()).Run(init)
				if (serr == nil) != (perr == nil) {
					t.Fatalf("init %d: serial err %v, parallel err %v", ii, serr, perr)
				}
				if serr != nil {
					continue
				}
				if fmt.Sprint(serial.Shares) != fmt.Sprint(parallel.Shares) {
					t.Errorf("init %d: serial shares %v != parallel shares %v", ii, serial.Shares, parallel.Shares)
				}
				if serial.Rounds != parallel.Rounds {
					t.Errorf("init %d: serial rounds %d != parallel rounds %d", ii, serial.Rounds, parallel.Rounds)
				}
				if serial.Evals != parallel.Evals {
					t.Errorf("init %d: serial evals %d != parallel evals %d", ii, serial.Evals, parallel.Evals)
				}
				for i := range serial.Utilities {
					if serial.Utilities[i] != parallel.Utilities[i] {
						t.Errorf("init %d: SC %d serial utility %v != parallel %v", ii, i, serial.Utilities[i], parallel.Utilities[i])
					}
				}
			}
		})
	}
}

// TestGameWorkersDefault checks that the default worker count (GOMAXPROCS)
// still converges to the serial equilibrium on the toy federation.
func TestGameWorkersDefault(t *testing.T) {
	fed := testFederation()
	serial, err := (&Game{Federation: fed, Evaluator: Memoize(newToyEvaluator(t, fed)), Gamma: 0.5, Workers: 1}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	def, err := (&Game{Federation: fed, Evaluator: Memoize(newToyEvaluator(t, fed)), Gamma: 0.5}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(serial.Shares) != fmt.Sprint(def.Shares) {
		t.Fatalf("default workers shares %v != serial %v", def.Shares, serial.Shares)
	}
}
