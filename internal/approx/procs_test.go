package approx

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/markov"
)

// shareBox4 is the advise workload's strategy box at full participation:
// the sweep box's three clouds with every share in 1..4, 64 vectors in
// odometer order (lowest SC index fastest).
func shareBox4() []boxVector {
	box := sweepBox()
	fed := box[len(box)-1].fed // the [2 2 2] vector: all three SCs
	var out []boxVector
	for s2 := 1; s2 <= 4; s2++ {
		for s1 := 1; s1 <= 4; s1++ {
			for s0 := 1; s0 <= 4; s0++ {
				shares := []int{s0, s1, s2}
				out = append(out, boxVector{label: fmt.Sprint(shares), fed: fed, shares: shares})
			}
		}
	}
	return out
}

// procsRun is everything a run of procsWorkload reports: each solve's
// metrics, the summed steady-state effort, the truncation account and the
// warm cache's stored vectors.
type procsRun struct {
	metrics [][]cloud.Metrics
	stats   markov.SolveStats
	prune   PruneStats
	warm    map[warmKey][]float64
}

// procsWorkload solves the sweep box and the 64-vector share-4 box with
// SolveAll, and per-target Solve chains at the default two passes on one
// handle for three share vectors, all under GOMAXPROCS procs, threading
// one warm cache, one PruneCounter and one SolveStats through everything.
func procsWorkload(t *testing.T, procs int) procsRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	warm, prune := NewWarmCache(), &PruneCounter{}
	var run procsRun
	opts := markov.SteadyStateOptions{Stats: &run.stats}
	for _, box := range [][]boxVector{sweepBox(), shareBox4()} {
		ms, err := solveBox(box, warm, prune, opts)
		if err != nil {
			t.Fatal(err)
		}
		run.metrics = append(run.metrics, ms...)
	}
	fed := shareBox4()[0].fed
	s, err := NewSolver(Config{Federation: fed, Prune: 1e-4, PoolCap: 4, Warm: warm, PruneStats: prune, Solver: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, shares := range [][]int{{4, 4, 4}, {4, 2, 1}, {2, 3, 1}} {
		ms := make([]cloud.Metrics, len(shares))
		for target := range shares {
			m, err := s.Solve(target, WithShares(shares))
			if err != nil {
				t.Fatal(err)
			}
			ms[target] = m.Metrics()
		}
		run.metrics = append(run.metrics, ms)
	}
	run.prune = prune.Stats()
	run.warm = warm.pis
	return run
}

// TestGOMAXPROCSBitIdentity pins the in-solve parallelism to the serial
// schedule: the transient stepping blocks and SolveAll's readouts run on
// helpers at GOMAXPROCS 4 and on the caller alone at GOMAXPROCS 1, and
// every metric, the steady-state effort, the truncation account (the
// float sum TotalMass included) and every stored warm vector must agree
// bit for bit. Run it under -race: the helpers share the level they step
// and the spine level the readouts read.
func TestGOMAXPROCSBitIdentity(t *testing.T) {
	serial, parallel := procsWorkload(t, 1), procsWorkload(t, 4)
	for i, want := range serial.metrics {
		for sc, w := range want {
			g := parallel.metrics[i][sc]
			for _, x := range []struct {
				name      string
				got, want float64
			}{
				{"PublicRate", g.PublicRate, w.PublicRate},
				{"BorrowRate", g.BorrowRate, w.BorrowRate},
				{"LendRate", g.LendRate, w.LendRate},
				{"Utilization", g.Utilization, w.Utilization},
				{"ForwardProb", g.ForwardProb, w.ForwardProb},
			} {
				if math.Float64bits(x.got) != math.Float64bits(x.want) {
					t.Errorf("solve %d SC %d %s: %v at GOMAXPROCS 4, %v at 1", i, sc, x.name, x.got, x.want)
				}
			}
		}
	}
	if parallel.stats != serial.stats {
		t.Errorf("steady-state effort %+v at GOMAXPROCS 4, %+v at 1", parallel.stats, serial.stats)
	}
	sp, pp := serial.prune, parallel.prune
	if math.Float64bits(pp.TotalMass) != math.Float64bits(sp.TotalMass) ||
		math.Float64bits(pp.MaxMass) != math.Float64bits(sp.MaxMass) || pp.Joints != sp.Joints {
		t.Errorf("truncation account %+v at GOMAXPROCS 4, %+v at 1", pp, sp)
	}
	if sp.Joints == 0 {
		t.Error("the workload truncated nothing: the account is not exercised")
	}
	if len(parallel.warm) != len(serial.warm) {
		t.Errorf("%d warm vectors at GOMAXPROCS 4, %d at 1", len(parallel.warm), len(serial.warm))
	}
	for key, want := range serial.warm {
		got := parallel.warm[key]
		if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("warm vector %+v differs between GOMAXPROCS 4 and 1", key)
		}
	}
}
