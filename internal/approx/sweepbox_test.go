package approx

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/markov"
	"scshare/internal/numeric"
)

// boxVector is one participating share vector of the sweep box: the
// sub-federation of its contributors (S_i > 0, in index order) and their
// shares — exactly what market.WithParticipation hands the approx solver.
type boxVector struct {
	label  string
	fed    cloud.Federation
	shares []int
}

// sweepBox returns the participating sub-federations of the Fig. 7a sweep
// box that perfbench's sweep-cold workload solves: three 10-VM clouds at
// arrival rates 5.8, 7.3 and 8.4, every share capped at 2. Of the 27
// vectors, 20 have at least two contributors; they come back in odometer
// order (lowest SC index fastest).
func sweepBox() []boxVector {
	scs := make([]cloud.SC, 3)
	for i, rate := range []float64{5.8, 7.3, 8.4} {
		scs[i] = cloud.SC{Name: fmt.Sprintf("sc%d", i), VMs: 10, ArrivalRate: rate, ServiceRate: 1, SLA: 0.2, PublicPrice: 1}
	}
	const maxShare = 2
	var out []boxVector
	shares := make([]int, len(scs))
	for {
		var v boxVector
		for i, s := range shares {
			if s > 0 {
				v.fed.SCs = append(v.fed.SCs, scs[i])
				v.shares = append(v.shares, s)
			}
		}
		if len(v.shares) >= 2 {
			v.label = fmt.Sprint(shares)
			v.fed.FederationPrice = 0.5
			out = append(out, v)
		}
		i := 0
		for ; i < len(shares); i++ {
			shares[i]++
			if shares[i] <= maxShare {
				break
			}
			shares[i] = 0
		}
		if i == len(shares) {
			return out
		}
	}
}

// sweepBoxConfig is the sweep workload's approx configuration for one
// sub-federation, with the given level solver options.
func sweepBoxConfig(v boxVector, warm *WarmCache, prune *PruneCounter, solver markov.SteadyStateOptions) Config {
	return Config{Federation: v.fed, Passes: 1, Prune: 1e-4, PoolCap: 4, Warm: warm, PruneStats: prune, Solver: solver}
}

// solveSweepBox runs one SolveAll per box vector, one after another, each
// on a fresh handle, threading one fresh warm cache through the whole box.
func solveSweepBox(box []boxVector, prune *PruneCounter, solver markov.SteadyStateOptions) ([][]cloud.Metrics, error) {
	return solveBox(box, NewWarmCache(), prune, solver)
}

// solveBox is solveSweepBox threading the given warm cache.
func solveBox(box []boxVector, warm *WarmCache, prune *PruneCounter, solver markov.SteadyStateOptions) ([][]cloud.Metrics, error) {
	out := make([][]cloud.Metrics, len(box))
	for i, v := range box {
		s, err := NewSolver(sweepBoxConfig(v, warm, prune, solver))
		if err != nil {
			return nil, err
		}
		if out[i], err = s.SolveAll(WithShares(v.shares)); err != nil {
			return nil, fmt.Errorf("%s: %w", v.label, err)
		}
	}
	return out, nil
}

// metricsDigest is an FNV-1a hash over the bit patterns of every metric of
// every SC, in SC order.
func metricsDigest(ms []cloud.Metrics) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range ms {
		for _, x := range []float64{m.PublicRate, m.BorrowRate, m.LendRate, m.Utilization, m.ForwardProb} {
			bits := math.Float64bits(x)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestSweepBoxBitIdentity pins the approx kernel's output across commits:
// the solver's arena layout, generator assembly and iterate reuse may
// change, its floats may not. The constants were re-recorded twice, each
// time for a change that moves the steady-state floats by less than the
// solver tolerance (see TestSweepBoxRelaxedAccuracy): when markov's
// Gauss-Seidel solver began over-relaxing, and when queueCap began
// cutting each level's queue at a flux bound on its steady tail instead
// of a fixed 6σ margin (see TestQueueCapTailMass). Every kernel change
// since must reproduce them bit for bit, and so must the truncation
// account and the steady-state iteration count. amd64 only: other
// architectures may fuse multiply-adds and round differently.
func TestSweepBoxBitIdentity(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	want := map[string]uint64{
		"[1 1 0]": 0x8e467c0057177163,
		"[2 1 0]": 0xb769b4eaeae4d500,
		"[1 2 0]": 0x5a15d5e040c6ede0,
		"[2 2 0]": 0x1d4385cac588a7c6,
		"[1 0 1]": 0x68a083d25e3174d8,
		"[2 0 1]": 0x76e275d2a011cbc9,
		"[0 1 1]": 0xf39dd1ca68d94c26,
		"[1 1 1]": 0x43376345993b0823,
		"[2 1 1]": 0xb405fd574a357a7,
		"[0 2 1]": 0x281f95b6124e0ea8,
		"[1 2 1]": 0x2fc85175d37d7f5d,
		"[2 2 1]": 0x17a09b8d73d0d033,
		"[1 0 2]": 0x6d35f2c058a6d7ec,
		"[2 0 2]": 0xc259e91174dfd4bf,
		"[0 1 2]": 0x761ae49145e26e43,
		"[1 1 2]": 0x8c9cd0c9741db2d7,
		"[2 1 2]": 0x93158c85f5943b39,
		"[0 2 2]": 0xb5fc865c7047fff8,
		"[1 2 2]": 0xc01e66fb1177e106,
		"[2 2 2]": 0x9398d453f986759e,
	}
	const (
		wantTotalMass  = 0x3dd8dedb96eb2214
		wantMaxMass    = 0x3db66b526e0efd58
		wantJoints     = 22
		wantIterations = 4136
		wantSolves     = 82
	)
	box := sweepBox()
	if len(box) != 20 {
		t.Fatalf("sweep box has %d participating vectors, want 20", len(box))
	}
	prune := &PruneCounter{}
	var stats markov.SolveStats
	got, err := solveSweepBox(box, prune, markov.SteadyStateOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range box {
		if d := metricsDigest(got[i]); d != want[v.label] {
			t.Errorf("%s: metrics digest %#x, want %#x; metrics %+v", v.label, d, want[v.label], got[i])
		}
	}
	ps := prune.Stats()
	if b := math.Float64bits(ps.TotalMass); b != wantTotalMass {
		t.Errorf("truncated mass bits %#x (%v), want %#x", b, ps.TotalMass, uint64(wantTotalMass))
	}
	if b := math.Float64bits(ps.MaxMass); b != wantMaxMass {
		t.Errorf("max truncated mass bits %#x (%v), want %#x", b, ps.MaxMass, uint64(wantMaxMass))
	}
	if ps.Joints != wantJoints {
		t.Errorf("truncated joints %d, want %d", ps.Joints, wantJoints)
	}
	if stats.Iterations != wantIterations || stats.Solves != wantSolves {
		t.Errorf("steady-state work %d iterations / %d solves, want %d / %d",
			stats.Iterations, stats.Solves, wantIterations, wantSolves)
	}
}

// TestSweepBoxRelaxedAccuracy bounds how far the level solves' stopping
// rule leaves the box's metrics from their fixed point: every metric of
// every box vector, solved at the default tolerance, lies within
// boxAccuracyRelTol (relative) of the same box solved at Tol
// boxReferenceTol. Plain Gauss-Seidel sweeps met the bound with a worst
// error of 1.97e-9; the over-relaxed solver is at least as accurate.
func TestSweepBoxRelaxedAccuracy(t *testing.T) {
	const (
		boxAccuracyRelTol = 2e-9
		boxReferenceTol   = 1e-14
		relErrFloor       = 1e-300 // every box metric is nonzero
	)
	box := sweepBox()
	got, err := solveSweepBox(box, nil, markov.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solveSweepBox(box, nil, markov.SteadyStateOptions{Tol: boxReferenceTol})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i, v := range box {
		for k, m := range got[i] {
			r := ref[i][k]
			for _, x := range []struct {
				name      string
				got, want float64
			}{
				{"PublicRate", m.PublicRate, r.PublicRate},
				{"BorrowRate", m.BorrowRate, r.BorrowRate},
				{"LendRate", m.LendRate, r.LendRate},
				{"Utilization", m.Utilization, r.Utilization},
				{"ForwardProb", m.ForwardProb, r.ForwardProb},
			} {
				e := numeric.RelErr(x.got, x.want, relErrFloor)
				worst = math.Max(worst, e)
				if e > boxAccuracyRelTol {
					t.Errorf("%s SC %d %s = %v, reference %v: relative error %.3g > %g",
						v.label, k, x.name, x.got, x.want, e, boxAccuracyRelTol)
				}
			}
		}
	}
	t.Logf("worst relative metric error against Tol %g: %.3g", boxReferenceTol, worst)
}
