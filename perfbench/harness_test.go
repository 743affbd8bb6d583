package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestTailPercentileSelection(t *testing.T) {
	for _, tc := range []struct{ minOps, want int }{
		{100000, 99}, {1000, 99}, {999, 98}, {500, 98}, {100, 90}, {50, 80}, {40, 75}, {34, 70}, {20, 50}, {5, 50},
	} {
		got := tailPercentile(tc.minOps)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.minOps, got, tc.want)
		}
		if tc.minOps >= 20 && beyond(tc.minOps, got) < minTailBeyond {
			t.Errorf("p%d of %d ops leaves %d beyond, want >= %d", got, tc.minOps, beyond(tc.minOps, got), minTailBeyond)
		}
	}
	// More ops than the minimum only leave more samples past the tail.
	if b := beyond(2000, 99); b != 20 {
		t.Errorf("beyond(2000, 99) = %d, want 20", b)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		pct  int
		want float64
	}{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {75, 8}} {
		if got := percentile(asc, tc.pct); got != tc.want {
			t.Errorf("p%d = %v, want %v", tc.pct, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestCalibrationCancelsHostSpeed: ops that take twice as long while the
// kernel also reads twice as slow calibrate to the same latency, and
// throughput counts calibrated load time.
func TestCalibrationCancelsHostSpeed(t *testing.T) {
	ph := &phase{}
	for e := 0; e < 40; e++ {
		slow := 1.0
		if e >= 20 {
			slow = 2 // the host halves its speed for the second half
		}
		ph.readings = append(ph.readings, nominalKernelNs*slow)
		ph.loadNs = append(ph.loadNs, int64(10e6*slow))
		for i := 0; i < 10; i++ {
			ph.ops = append(ph.ops, opRec{ns: int64(1e6 * slow), epoch: int32(e), work: 1})
		}
	}
	s, err := summarize(ph, 99)
	if err != nil {
		t.Fatal(err)
	}
	if s.p50 != 1 || s.tail != 1 {
		t.Errorf("calibrated p50/tail = %v/%v ms, want 1/1", s.p50, s.tail)
	}
	if math.Abs(s.throughput-1000) > 1e-9 {
		t.Errorf("calibrated throughput = %v/s, want 1000", s.throughput)
	}
	if s.rawTail != 2 || s.rawThroughput >= 1000 {
		t.Errorf("raw tail %v ms and throughput %v/s should show the slowdown", s.rawTail, s.rawThroughput)
	}
	// A program change is not cancelled: twice the work at nominal speed
	// reads twice as long.
	for i := range ph.ops {
		ph.ops[i].ns *= 2
	}
	if s2, _ := summarize(ph, 99); s2.p50 != 2 {
		t.Errorf("slower program calibrated p50 = %v, want 2", s2.p50)
	}
}

func TestLocalScalesWindow(t *testing.T) {
	r := []float64{nominalKernelNs, nominalKernelNs, 3 * nominalKernelNs, nominalKernelNs, nominalKernelNs}
	for i, s := range localScales(r, 1) {
		if s != 1 {
			t.Errorf("epoch %d scale %v: one outlier reading must not move a window median", i, s)
		}
	}
	if s := scale([]float64{2 * nominalKernelNs}); s != 0.5 {
		t.Errorf("scale at half speed = %v, want 0.5", s)
	}
}

// fakeBench errors on every fourth op of each lane and fails the output
// check of two ops.
type fakeBench struct{ checkFails int }

func (f *fakeBench) setup(context.Context, *setupTimer) error { return nil }
func (f *fakeBench) op(_ context.Context, _, seq int) (int, time.Duration, error) {
	if seq%4 == 3 {
		return 0, time.Microsecond, errors.New("refused")
	}
	return 1, time.Microsecond, nil
}
func (f *fakeBench) check(context.Context) (int, error) { return f.checkFails, nil }
func (f *fakeBench) close()                             {}

// TestFailRatioCounting: errored and refused ops count as attempted and
// failed, successful ops feed the latency record, and output-check
// failures add to failed without adding attempts.
func TestFailRatioCounting(t *testing.T) {
	def := &workloadDef{lanes: 2, busy: 1, epoch: 0}
	fb := &fakeBench{checkFails: 2}
	ph, err := runPhase(context.Background(), def, fb, newCalibrator(1), 0, time.Minute, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 0 runs one op per lane, so 20 epochs give 40 ops: seq 0..19 on
	// each lane, five of which (seq 3, 7, ...) error.
	if ph.attempted() != 40 || ph.errors != 10 || len(ph.ops) != 30 {
		t.Fatalf("attempted %d, errors %d, ok %d; want 40, 10, 30", ph.attempted(), ph.errors, len(ph.ops))
	}
	checkFailed, _ := fb.check(context.Background())
	failed, attempted, ratio := failCount(ph, checkFailed)
	if failed != 12 || attempted != 40 || ratio != 0.3 {
		t.Fatalf("failCount = %d/%d (%v), want 12/40 (0.3)", failed, attempted, ratio)
	}
}

func TestInputsAreReproducible(t *testing.T) {
	for _, wl := range []string{"advise-warm", "sweep-cold", "fleet-warm"} {
		a := inputStream(wl, 7, 2, 2000)
		b := inputStream(wl, 7, 2, 2000)
		c := inputStream(wl, 8, 2, 2000)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different input streams", wl)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same input stream", wl)
		}
	}
}

func TestGeneratorsStayInRange(t *testing.T) {
	w := newPriceWalk(3, 0)
	for i := 0; i < 100000; i++ {
		if idx := w.next(); idx < 0 || idx >= adviseGridLen {
			t.Fatalf("walk left the grid: index %d", idx)
		}
	}
	if advisePrice(0) != 0.05 || advisePrice(adviseGridLen-1) != 0.98 {
		t.Fatalf("advice grid spans %v..%v, want 0.05..0.98", advisePrice(0), advisePrice(adviseGridLen-1))
	}
	for seed := uint64(0); seed < 50; seed++ {
		rs := sweepRatios(seed)
		for i, r := range rs {
			lo, hi := (float64(i)+0.5)/10-0.04, (float64(i)+0.5)/10+0.04
			if r < lo-1e-9 || r > hi+1e-9 {
				t.Fatalf("seed %d decile %d ratio %v outside [%v, %v]", seed, i, r, lo, hi)
			}
		}
		g := fleetGrid(seed, int(seed))
		for i, r := range g {
			if r < 0.05 || r > 0.95 || (i > 0 && r < g[i-1]) {
				t.Fatalf("seed %d fleet grid %v not ascending within [0.05, 0.95]", seed, g)
			}
		}
	}
}
