package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// bench is one workload's system under test, built fresh by each set-up.
type bench interface {
	// setup boots and warms the system, calling st.pause between steps so
	// the kernel is timed while the load pauses.
	setup(ctx context.Context, st *setupTimer) error
	// op runs one closed-loop operation on a lane (a client), returning
	// the work units it completed and its latency, which leaves out the
	// recording of its output for the check. seq counts the lane's ops
	// from 0.
	op(ctx context.Context, lane, seq int) (work int, d time.Duration, err error)
	// check compares every recorded output with its reference, outside
	// the timed region, and returns how many ops failed.
	check(ctx context.Context) (failed int, err error)
	// close stops everything setup started and waits for it.
	close()
}

// workloadDef fixes one workload's shape.
type workloadDef struct {
	name string
	why  string
	// lanes is how many closed-loop clients run at once; busy is how many
	// goroutines the workload keeps busy, which the kernel mirrors.
	lanes, busy int
	// epoch is the load time between kernel readings (0: one op per lane).
	epoch time.Duration
	// minOps is the op count every run reaches, extending the timed phase
	// past --seconds if needed; the tail percentile is fixed from it.
	minOps int
	// setups is how many full set-ups a run makes; setup_s is their
	// median, so one slow boot does not decide it. A set-up that is one
	// cold sweep varies by ±20%, so cheap set-ups are repeated more.
	setups int
	// workUnit names what throughput counts.
	workUnit string
	build    func(seed uint64, procs int) bench
	// ladder replays the workload through its layers for the traced run.
	ladder func(ctx context.Context, seed uint64, procs int, tr *tracer, cal *calibrator, d time.Duration, primary bool) (layerMetrics, error)
}

// opRec is one successful timed op.
type opRec struct {
	ns    int64
	epoch int32
	work  int32
}

// phase is the record of one timed phase.
type phase struct {
	ops      []opRec
	errors   int
	firstErr error
	readings []float64 // one kernel reading after each epoch
	loadNs   []int64   // load wall time of each epoch
	mem      runtimeDelta
}

func (p *phase) attempted() int { return len(p.ops) + p.errors }

// failCount is fail_ratio's numerator and denominator: ops that errored or
// were refused, plus ops whose output failed its check, over ops attempted.
func failCount(p *phase, checkFailed int) (failed, attempted int, ratio float64) {
	failed, attempted = p.errors+checkFailed, p.attempted()
	return failed, attempted, float64(failed) / float64(attempted)
}

// runPhase drives the closed loop in epochs: every lane runs ops until the
// epoch's load time is spent, then the load pauses for one kernel reading.
// It stops once minDur of load and def.minOps ops are done, or at maxDur.
func runPhase(ctx context.Context, def *workloadDef, b bench, cal *calibrator, minDur, maxDur time.Duration, minOps int) (*phase, error) {
	ph := &phase{}
	laneOps := make([][]opRec, def.lanes)
	laneErrs := make([]int, def.lanes)
	laneFirst := make([]error, def.lanes)
	laneSeq := make([]int, def.lanes)
	var load time.Duration
	start := time.Now()
	before := readRuntime()
	for epoch := 0; ; epoch++ {
		t0 := time.Now()
		deadline := t0.Add(def.epoch)
		var wg sync.WaitGroup
		for l := 0; l < def.lanes; l++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					work, d, err := b.op(ctx, l, laneSeq[l])
					laneSeq[l]++
					if err != nil {
						if laneErrs[l] == 0 {
							laneFirst[l] = err
						}
						laneErrs[l]++
					} else {
						laneOps[l] = append(laneOps[l], opRec{ns: int64(d), epoch: int32(epoch), work: int32(work)})
					}
					if !time.Now().Before(deadline) {
						return
					}
				}
			}()
		}
		wg.Wait()
		el := time.Since(t0)
		load += el
		ph.loadNs = append(ph.loadNs, int64(el))
		ph.readings = append(ph.readings, cal.read())
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := 0
		for l := range laneOps {
			n += len(laneOps[l]) + laneErrs[l]
		}
		if (load >= minDur && n >= minOps) || time.Since(start) >= maxDur {
			break
		}
	}
	ph.mem = readRuntime().sub(before)
	for l := range laneOps {
		ph.ops = append(ph.ops, laneOps[l]...)
		ph.errors += laneErrs[l]
		if ph.firstErr == nil {
			ph.firstErr = laneFirst[l]
		}
	}
	return ph, nil
}

// e2e is the end-to-end summary of one phase, calibrated and raw.
type e2e struct {
	p50, tail, rawP50, rawTail float64 // ms
	throughput, rawThroughput  float64 // work units per second
	tailPct, samples           int
}

// summarize calibrates each op by its epoch's local kernel median.
func summarize(ph *phase, tailPct int) (e2e, error) {
	if len(ph.ops) == 0 {
		return e2e{}, fmt.Errorf("no op succeeded (first error: %v)", ph.firstErr)
	}
	scales := localScales(ph.readings, epochHalfWindow)
	cal := make([]float64, len(ph.ops))
	raw := make([]float64, len(ph.ops))
	work := 0.0
	for i, o := range ph.ops {
		raw[i] = float64(o.ns) / 1e6
		cal[i] = raw[i] * scales[o.epoch]
		work += float64(o.work)
	}
	var loadS, calLoadS float64
	for e, ns := range ph.loadNs {
		loadS += float64(ns) / 1e9
		calLoadS += float64(ns) / 1e9 * scales[e]
	}
	cs, rs := sorted(cal), sorted(raw)
	return e2e{
		p50: median(cs), tail: percentile(cs, tailPct),
		rawP50: median(rs), rawTail: percentile(rs, tailPct),
		throughput: work / calLoadS, rawThroughput: work / loadS,
		tailPct: tailPct, samples: len(cs),
	}, nil
}

// runtimeSample is the Go runtime's cumulative allocation and CPU account.
type runtimeSample struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

// runtimeDelta is the difference of two samples.
type runtimeDelta runtimeSample

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeDelta {
	return runtimeDelta{
		allocBytes: a.allocBytes - b.allocBytes,
		allocs:     a.allocs - b.allocs,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

// goMetrics turns a phase's runtime delta into the go.* layer metrics.
func goMetrics(ph *phase) layerMetrics {
	ops := float64(len(ph.ops))
	share := 0.0
	if ph.mem.totalCPU > 0 {
		share = ph.mem.gcCPU / ph.mem.totalCPU
	}
	return layerMetrics{
		"go.alloc_mb_per_op": float64(ph.mem.allocBytes) / 1e6 / ops,
		"go.allocs_per_op":   float64(ph.mem.allocs) / ops,
		"go.gc_cpu_share":    share,
	}
}

// setUp builds and warms one instance of the workload, returning it with
// its raw and calibrated set-up seconds.
func setUp(ctx context.Context, def *workloadDef, seed uint64, procs int, cal *calibrator) (bench, float64, float64, error) {
	b := def.build(seed, procs)
	st := newSetupTimer(cal)
	st.pause()
	if err := b.setup(ctx, st); err != nil {
		b.close()
		return nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	raw, c := st.finish()
	return b, raw, c, nil
}

// moreSetUps makes the run's remaining set-ups after the timed phase, each
// torn down at once, and returns their calibrated and raw seconds. Running
// them after the phase keeps their transient memory out of the VmHWM the
// phase reports.
func moreSetUps(ctx context.Context, def *workloadDef, seed uint64, procs int, cal *calibrator) (cals, raws []float64, err error) {
	for i := 1; i < def.setups; i++ {
		runtime.GC()
		b, raw, c, err := setUp(ctx, def, seed, procs, cal)
		if err != nil {
			return nil, nil, err
		}
		b.close()
		raws = append(raws, raw)
		cals = append(cals, c)
	}
	return cals, raws, nil
}
