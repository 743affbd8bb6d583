// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the real entry points — scserve's handler on a
// loopback listener (advise-warm), core.Framework.SweepContext
// (sweep-cold), and an in-process fleet dispatcher with two workers
// (fleet-warm) — checks every output against an in-process reference, and
// prints host-calibrated metrics. With --trace 1 it instead replays the
// workload through the public functions of successive layers and prints
// per-layer metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print every
// metric by name and unit, plus the host.* and go.* diagnostics and the
// recorded environment. NOTES.md explains the workloads and the metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics of a --trace 0 run. Two more are printed
// but not gated: fail_ratio is 0 on a correct program, so it cannot carry
// a relative bound (the result's failed and attempted fields gate it), and
// peak_rss_mb, a single VmHWM maximum, varies too much from run to run
// (NOTES.md, "Run-to-run spreads").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the metrics of a --trace 1 run, outermost layer first.
var perLayer = []metricDef{
	{"serve.request_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.shed_ratio", "ratio"},
	{"core.advise_ms", "ms"},
	{"core.sweep_ms", "ms"},
	{"core.first_point_ms", "ms"},
	{"core.new_ms", "ms"},
	{"market.game_ms", "ms"},
	{"market.evaluate_ms", "ms"},
	{"market.evals_per_op", "count"},
	{"market.rounds_per_op", "count"},
	{"market.hit_ratio", "ratio"},
	{"market.misses_per_op", "count"},
	{"approx.solve_ms", "ms"},
	{"approx.solve_share", "ratio"},
	{"approx.truncated_mass", "prob"},
	{"approx.truncated_joints", "count"},
	{"approx.warm_hit_ratio", "ratio"},
	{"markov.iterations_per_solve", "count"},
	{"markov.solves_per_solve", "count"},
	{"fleet.sweep_ms", "ms"},
	{"fleet.first_point_ms", "ms"},
	{"fleet.compute_ms", "ms"},
	{"fleet.jobs_per_op", "count"},
	{"fleet.requeues", "count"},
	{"fleet.expired_leases", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"host.calib_ms", "ms"},
	{"host.speed_spread", "ratio"},
	{"host.steal_share", "ratio"},
	{"host.raw_p50_ms", "ms"},
	{"trace.overhead", "ratio"},
}

// layerMetrics maps per-layer metric names to values.
type layerMetrics map[string]float64

// workloadDefs defines the three workloads for a host with procs CPUs.
func workloadDefs(procs int) []*workloadDef {
	return []*workloadDef{
		{
			name:  "advise-warm",
			why:   "the operator path: warm served advice, where serve and the game's cache-hit path do the work and the solvers do none",
			lanes: procs, busy: procs, epoch: 100 * time.Millisecond, minOps: 1000, setups: 3,
			workUnit: "advice responses",
			build:    newAdviseBench, ladder: adviseLadder,
		},
		{
			name:  "sweep-cold",
			why:   "the figure and pricing path: a cold Fig. 7a sweep, almost all model solves, with Prime and the warm chain firing",
			lanes: 1, busy: procs, epoch: 0, minOps: 60, setups: 5,
			workUnit: "grid points",
			build:    newSweepBench, ladder: sweepLadder,
		},
		{
			name:  "fleet-warm",
			why:   "the fleet protocol on warm workers: leases, results and watches dominate, points run serial and cold-started",
			lanes: 1, busy: fleetWorkers, epoch: 100 * time.Millisecond, minOps: 1000, setups: 5,
			workUnit: "grid points",
			build:    newFleetBench, ladder: fleetLadder,
		},
	}
}

// runBudget caps one invocation, well inside the 180 s a run may take.
const runBudget = 170 * time.Second

// maxPhase is the longest a timed phase may stretch to reach its op
// minimum.
func maxPhase(seconds int) time.Duration {
	d := time.Duration(seconds) * time.Second
	return max(d, min(3*d, 90*time.Second))
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "advise-warm, sweep-cold or fleet-warm")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	procs := runtime.GOMAXPROCS(0)
	var def *workloadDef
	for _, d := range workloadDefs(procs) {
		if d.name == *name {
			def = d
		}
	}
	switch {
	case def == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root (no go.mod here)")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	env := recordEnv()
	envJSON, _ := json.Marshal(env) // plain strings and ints always encode
	digest := sha256.Sum256(inputStream(def.name, *seed, def.lanes, 4096))
	fmt.Fprintf(stdout, "perfbench: workload %s seed %d seconds %d trace %d\n", def.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "why: %s\n", def.why)
	fmt.Fprintf(stdout, "env: %s\n", envJSON)
	fmt.Fprintf(stdout, "inputs: sha256 %s (first 4096 inputs of each stream)\n", hex.EncodeToString(digest[:8]))

	var res *result
	var err error
	if *trace == 1 {
		res, err = traceRun(ctx, def, *seed, *seconds, procs, stdout)
	} else {
		res, err = e2eRun(ctx, def, *seed, *seconds, procs, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// hostMetrics are the host.* diagnostics of a run.
func hostMetrics(cal *calibrator, total0, steal0 uint64, rawP50 float64) layerMetrics {
	total1, steal1 := cpuTimes()
	steal := 0.0
	if total1 > total0 {
		steal = float64(steal1-steal0) / float64(total1-total0)
	}
	asc := sorted(cal.readings)
	return layerMetrics{
		"host.calib_ms":     median(cal.readings) / 1e6,
		"host.speed_spread": percentile(asc, 90) / percentile(asc, 10),
		"host.steal_share":  steal,
		"host.raw_p50_ms":   rawP50,
	}
}

// printLayer prints named diagnostics, sorted by name.
func printLayer(w io.Writer, m layerMetrics, units map[string]string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, m[n], units[n])
	}
}

func unitsOf(defs []metricDef) map[string]string {
	u := make(map[string]string, len(defs))
	for _, d := range defs {
		u[d.name] = d.unit
	}
	return u
}

// collect builds the metrics object from values, failing on a missing or
// non-finite value.
func collect(defs []metricDef, vals layerMetrics) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is missing or not finite (%v)", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// e2eRun is the untraced, gated run.
func e2eRun(ctx context.Context, def *workloadDef, seed uint64, seconds, procs int, w io.Writer) (*result, error) {
	cal := newCalibrator(def.busy)
	total0, steal0 := cpuTimes()
	b, rawSetup, setup, err := setUp(ctx, def, seed, procs, cal)
	if err != nil {
		return nil, err
	}
	ph, err := runPhase(ctx, def, b, cal, time.Duration(seconds)*time.Second, maxPhase(seconds), def.minOps)
	if err != nil {
		b.close()
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		b.close()
		return nil, err
	}
	checkFailed, err := b.check(ctx)
	b.close()
	if err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	setups, rawSetups, err := moreSetUps(ctx, def, seed, procs, cal)
	if err != nil {
		return nil, err
	}
	setups, rawSetups = append(setups, setup), append(rawSetups, rawSetup)
	sum, err := summarize(ph, tailPercentile(def.minOps))
	if err != nil {
		return nil, err
	}
	failed, attempted, failRatio := failCount(ph, checkFailed)
	if ph.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d ops failed; first: %v\n", ph.errors, ph.firstErr)
	}

	vals := layerMetrics{
		"setup_s":          median(setups),
		"p50_ms":           sum.p50,
		"tail_ms":          sum.tail,
		"throughput_per_s": sum.throughput,
		"peak_rss_mb":      rss,
	}
	metrics, err := collect(endToEnd, vals)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "end-to-end (calibrated to nominal host speed):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	fmt.Fprintf(w, "  %-30s %14.6g MB (VmHWM; not gated)\n", "peak_rss_mb", rss)
	fmt.Fprintf(w, "  %-30s %14.6g ratio (%d failed of %d ops attempted; not gated)\n", "fail_ratio", failRatio, failed, attempted)
	fmt.Fprintf(w, "tail_ms is p%d of %d timed ops; throughput counts %s; setup_s is the median of %d set-ups (calibrated %v s, raw %v s)\n",
		sum.tailPct, sum.samples, def.workUnit, len(setups), setups, rawSetups)
	fmt.Fprintf(w, "raw (uncalibrated): p50_ms %.6g tail_ms %.6g throughput_per_s %.6g setup_s %.6g\n",
		sum.rawP50, sum.rawTail, sum.rawThroughput, median(rawSetups))
	diag := hostMetrics(cal, total0, steal0, sum.rawP50)
	for k, v := range goMetrics(ph) {
		diag[k] = v
	}
	fmt.Fprintln(w, "diagnostics:")
	printLayer(w, diag, unitsOf(perLayer))
	return &result{Correct: checkFailed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}
