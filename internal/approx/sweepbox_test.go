package approx

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/markov"
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
// sub-federation, with the given readout worker count.
func sweepBoxConfig(v boxVector, workers int, warm *WarmCache, prune *PruneCounter, stats *markov.SolveStats) Config {
	cfg := Config{Federation: v.fed, Passes: 1, Prune: 1e-4, PoolCap: 4, Workers: workers, Warm: warm, PruneStats: prune}
	cfg.Solver.Stats = stats
	return cfg
}

// solveSweepBox runs one SolveAll per box vector, one after another, each
// on a fresh handle, threading one warm cache through the whole box.
func solveSweepBox(box []boxVector, workers int, prune *PruneCounter, stats *markov.SolveStats) ([][]cloud.Metrics, error) {
	warm := NewWarmCache()
	out := make([][]cloud.Metrics, len(box))
	for i, v := range box {
		s, err := NewSolver(sweepBoxConfig(v, workers, warm, prune, stats))
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
// change, its floats may not. The constants were recorded before the
// spine's iterate cache and the map-free generator assembly landed; both
// must reproduce them bit for bit, and so must the truncation account and
// the steady-state iteration count. Two readout workers, which share the
// spine's iterate cache, must reproduce them too — except the summed
// truncated mass, whose float sum follows the workers' interleaving. amd64
// only: other architectures may fuse multiply-adds and round differently.
func TestSweepBoxBitIdentity(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	want := map[string]uint64{
		"[1 1 0]": 0x40d64cf0bdd9bfb,
		"[2 1 0]": 0xb0e87e656ddb400f,
		"[1 2 0]": 0x12db8b8455145648,
		"[2 2 0]": 0x44174f07aa0e4e72,
		"[1 0 1]": 0x3553d2a031122a34,
		"[2 0 1]": 0xcc05c10d95784025,
		"[0 1 1]": 0xf2a8e00dc7b23f03,
		"[1 1 1]": 0x783058d437df50ef,
		"[2 1 1]": 0x5678756c872bc22,
		"[0 2 1]": 0x264e06a4935cbea6,
		"[1 2 1]": 0xff34427838ad9aad,
		"[2 2 1]": 0xd5f9412ec1fab3eb,
		"[1 0 2]": 0x95e975ad158aadc0,
		"[2 0 2]": 0x3f455722bb67bd89,
		"[0 1 2]": 0xeca02e27b576d26,
		"[1 1 2]": 0x5d4e2a873dda13f3,
		"[2 1 2]": 0x196dde1c1bd6ef6d,
		"[0 2 2]": 0x237eef9a82ef697d,
		"[1 2 2]": 0xfd23ecef207abc6b,
		"[2 2 2]": 0x626f40d83af7bb7d,
	}
	const (
		wantTotalMass  = 0x3dd8dedb96b9a898
		wantMaxMass    = 0x3db66b526de0b6ea
		wantJoints     = 22
		wantIterations = 10578
		wantSolves     = 82
	)
	box := sweepBox()
	if len(box) != 20 {
		t.Fatalf("sweep box has %d participating vectors, want 20", len(box))
	}
	for _, workers := range []int{1, 2} {
		prune := &PruneCounter{}
		var stats markov.SolveStats
		got, err := solveSweepBox(box, workers, prune, &stats)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range box {
			d := metricsDigest(got[i])
			if d != want[v.label] {
				t.Errorf("workers=%d %s: metrics digest %#x, want %#x; metrics %+v", workers, v.label, d, want[v.label], got[i])
			}
		}
		ps := prune.Stats()
		if b := math.Float64bits(ps.TotalMass); workers == 1 && b != wantTotalMass {
			t.Errorf("truncated mass bits %#x (%v), want %#x", b, ps.TotalMass, uint64(wantTotalMass))
		}
		if b := math.Float64bits(ps.MaxMass); b != wantMaxMass {
			t.Errorf("workers=%d: max truncated mass bits %#x (%v), want %#x", workers, b, ps.MaxMass, uint64(wantMaxMass))
		}
		if ps.Joints != wantJoints {
			t.Errorf("workers=%d: truncated joints %d, want %d", workers, ps.Joints, wantJoints)
		}
		if stats.Iterations != wantIterations || stats.Solves != wantSolves {
			t.Errorf("workers=%d: steady-state work %d iterations / %d solves, want %d / %d",
				workers, stats.Iterations, stats.Solves, wantIterations, wantSolves)
		}
	}
}
