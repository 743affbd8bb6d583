package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"scshare/internal/core"
	"scshare/internal/spec"
)

// sweepMaxShare is the strategy cap of the two sweep workloads: 27 share
// vectors, so a cold sweep solves every one of them once.
const sweepMaxShare = 2

// sweepSpec is the normalized spec of the sweep workloads.
func sweepSpec() spec.Federation {
	sp := fig7aSpec(sweepMaxShare)
	if err := sp.Normalize(); err != nil {
		panic(fmt.Sprintf("perfbench: built-in sweep spec: %v", err)) // a bug in fig7aSpec
	}
	return sp
}

// sweepBench runs one cold Fig. 7a sweep at a time, each on a fresh
// framework, over the run's jittered decile grid and three alphas.
type sweepBench struct {
	procs  int
	sp     spec.Federation
	ratios []float64
	outs   [][]core.SweepPoint
}

func newSweepBench(seed uint64, procs int) bench {
	return &sweepBench{procs: procs, sp: sweepSpec(), ratios: sweepRatios(seed)}
}

// coldSweep builds a fresh framework and sweeps the grid on it.
func coldSweep(ctx context.Context, sp spec.Federation, ratios []float64, opts core.SweepOptions) ([]core.SweepPoint, error) {
	fw, err := core.New(sp.Config())
	if err != nil {
		return nil, err
	}
	return fw.SweepContext(ctx, ratios, sweepAlphas, nil, opts)
}

func (s *sweepBench) opts() core.SweepOptions {
	return core.SweepOptions{Workers: s.procs, WarmStart: true}
}

// setup's warm-up is one full cold sweep.
func (s *sweepBench) setup(ctx context.Context, st *setupTimer) error {
	_, err := coldSweep(ctx, s.sp, s.ratios, s.opts())
	return err
}

func (s *sweepBench) op(ctx context.Context, _, _ int) (int, time.Duration, error) {
	t := time.Now()
	pts, err := coldSweep(ctx, s.sp, s.ratios, s.opts())
	d := time.Since(t)
	if err != nil {
		return 0, d, err
	}
	s.outs = append(s.outs, pts)
	return len(pts), d, nil
}

// check compares every sweep with a serial (Workers: 1) cold sweep of the
// same grid and options — the schedule the parallel sweep must reproduce.
func (s *sweepBench) check(ctx context.Context) (int, error) {
	opts := s.opts()
	opts.Workers = 1
	want, err := coldSweep(ctx, s.sp, s.ratios, opts)
	if err != nil {
		return 0, err
	}
	failed := 0
	for i, got := range s.outs {
		if d := sweepMismatch(got, want); d != "" {
			if failed == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: sweep op %d: %s\n", i, d)
			}
			failed++
		}
	}
	return failed, nil
}

func (s *sweepBench) close() {}
