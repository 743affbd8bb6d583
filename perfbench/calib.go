package main

import (
	"sync"
	"time"
)

// nominalKernelNs is the kernel reading taken as nominal host speed: the
// median reading on the reference host (2 vCPUs, x86-64) in its fast
// regime. Every time metric is scaled by nominalKernelNs ÷ the measured
// median, so a host that runs everything 1.7× slower for a while reads the
// same, while a program change — which cannot touch the kernel — still
// moves the number.
const nominalKernelNs = 750e3

// calibrator times the kernel on as many goroutines as the workload keeps
// busy, between ops, while the load pauses. It keeps every reading for the
// host.* diagnostics.
type calibrator struct {
	procs    int
	readings []float64
	ns       []int64
	acc      []float64
}

// newCalibrator returns a calibrator whose goroutines have already run the
// kernel once, so the first kept reading does not pay first-touch costs.
func newCalibrator(procs int) *calibrator {
	c := &calibrator{procs: procs, ns: make([]int64, procs), acc: make([]float64, procs)}
	c.read()
	c.readings = c.readings[:0]
	return c
}

// readingsPerPause is how many kernel readings one pause of the load
// takes; their median is the pause's reading, so one reading stretched by
// a preemption does not count.
const readingsPerPause = 3

// read takes one pause's readings and returns their median in
// nanoseconds, keeping it for the host.* diagnostics.
func (c *calibrator) read() float64 {
	var rs [readingsPerPause]float64
	for i := range rs {
		rs[i] = c.readOnce()
	}
	r := median(rs[:])
	c.readings = append(c.readings, r)
	return r
}

// readOnce runs the kernel on every goroutine at once and returns the
// mean per-goroutine time in nanoseconds.
func (c *calibrator) readOnce() float64 {
	var wg sync.WaitGroup
	for g := 0; g < c.procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			c.acc[g] += kernel(kernelRounds)
			c.ns[g] = int64(time.Since(t))
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, v := range c.ns {
		sum += float64(v)
	}
	return sum / float64(c.procs)
}

// scale is the calibration factor for a set of readings taken around the
// measured work: nominal ÷ their median.
func scale(readings []float64) float64 {
	return nominalKernelNs / median(readings)
}

// epochHalfWindow is how many epochs on each side of an epoch feed its
// calibration median. Regime shifts last 10–40 s on the reference host and
// an epoch is well under a second, so the window tracks a shift within a
// second or two while still smoothing single noisy readings.
const epochHalfWindow = 5

// localScales gives each epoch the calibration factor from the median of
// the readings in its ±half window, so ops are scaled by the host speed
// around them rather than by a run-wide average.
func localScales(readings []float64, half int) []float64 {
	out := make([]float64, len(readings))
	for i := range readings {
		lo, hi := max(0, i-half), min(len(readings), i+half+1)
		out[i] = scale(readings[lo:hi])
	}
	return out
}

// setupTimer measures one set-up: wall time from its start to the first
// timed op, minus the kernel readings taken in its pauses, scaled by the
// median of those readings.
type setupTimer struct {
	cal      *calibrator
	start    time.Time
	paused   time.Duration
	readings []float64
}

func newSetupTimer(cal *calibrator) *setupTimer {
	return &setupTimer{cal: cal, start: time.Now()}
}

// pause takes a kernel reading between set-up steps.
func (s *setupTimer) pause() {
	t := time.Now()
	s.readings = append(s.readings, s.cal.read())
	s.paused += time.Since(t)
}

// finish closes the set-up, returning its raw and calibrated seconds.
func (s *setupTimer) finish() (raw, cal float64) {
	s.pause()
	raw = (time.Since(s.start) - s.paused).Seconds()
	return raw, raw * scale(s.readings)
}
