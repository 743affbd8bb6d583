package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"scshare/internal/core"
	"scshare/internal/fleet"
	"scshare/internal/spec"
)

// fleetWorkers is the in-process worker count, each solving serially.
const fleetWorkers = 2

// fleetPoll is the idle poll interval of the dispatcher and the workers,
// as in the fleet tests; it bounds how long a queued job waits for an
// idle worker, so it is part of the workload definition.
const fleetPoll = 2 * time.Millisecond

// fleetWorkerOpts is how each in-process worker runs.
func fleetWorkerOpts(url string, i int, hc *http.Client) fleet.WorkerOptions {
	return fleet.WorkerOptions{URL: url, Name: "bench-" + strconv.Itoa(i), Procs: 1, Poll: fleetPoll, HTTPClient: hc}
}

// fleetRig is an in-process dispatcher on loopback with its workers.
type fleetRig struct {
	disp   *fleet.Dispatcher
	lb     *loopback
	client *fleet.Client
	stop   context.CancelFunc
	wg     sync.WaitGroup
}

func startFleet() (*fleetRig, error) {
	r := &fleetRig{disp: fleet.NewDispatcher(fleet.Options{Poll: fleetPoll})}
	// Workers long-poll, heartbeat and report at once: no connection cap.
	lb, err := startLoopback(r.disp, 0, 4*fleetWorkers)
	if err != nil {
		return nil, err
	}
	r.lb = lb
	r.client = fleet.NewClient(lb.url, lb.hc)
	ctx, cancel := context.WithCancel(context.Background())
	r.stop = cancel
	for i := 0; i < fleetWorkers; i++ {
		w := fleet.NewWorker(fleetWorkerOpts(lb.url, i, lb.hc))
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = w.Run(ctx) // returns ctx.Err() once stopped
		}()
	}
	return r, nil
}

// close stops the workers, waits for them, then stops the dispatcher.
func (r *fleetRig) close() {
	r.stop()
	r.wg.Wait()
	r.lb.close()
}

// metrics reads the dispatcher's queue counters.
func (r *fleetRig) metrics(ctx context.Context) (fleetQueue, error) {
	var m struct {
		Queue fleetQueue `json:"queue"`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.lb.url+"/metrics", nil)
	if err != nil {
		return fleetQueue{}, err
	}
	resp, err := r.lb.hc.Do(req)
	if err != nil {
		return fleetQueue{}, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m.Queue, err
}

// fleetQueue is the part of the dispatcher's /metrics the trace reads.
type fleetQueue struct {
	CompletedJobs int `json:"completedJobs"`
	ExpiredLeases int `json:"expiredLeases"`
	Requeues      int `json:"requeues"`
}

func wireFloats(vs []float64) []fleet.WF {
	out := make([]fleet.WF, len(vs))
	for i, v := range vs {
		out[i] = fleet.WF(v)
	}
	return out
}

// submit builds the sweep submission for one grid.
func submit(raw json.RawMessage, ratios []float64) fleet.SubmitRequest {
	return fleet.SubmitRequest{Spec: raw, Ratios: wireFloats(ratios), Alphas: wireFloats(sweepAlphas)}
}

// fleetOut is one distinct merged result of a grid and how many ops got it.
type fleetOut struct {
	n   int
	pts []fleet.WirePoint
}

// fleetBench keeps one sweep in flight through fleet.Client.RunSweep.
type fleetBench struct {
	seed  uint64
	sp    spec.Federation
	raw   json.RawMessage
	grids [][]float64
	rig   *fleetRig
	seen  []map[string]*fleetOut
}

func newFleetBench(seed uint64, _ int) bench {
	return &fleetBench{seed: seed, sp: sweepSpec()}
}

// setup boots the fleet and runs one cold sweep so the workers' caches
// are warm.
func (f *fleetBench) setup(ctx context.Context, st *setupTimer) error {
	raw, err := json.Marshal(f.sp)
	if err != nil {
		return err
	}
	f.raw = raw
	f.grids = make([][]float64, fleetGridCount)
	for i := range f.grids {
		f.grids[i] = fleetGrid(f.seed, i)
	}
	f.seen = make([]map[string]*fleetOut, fleetGridCount)
	if f.rig, err = startFleet(); err != nil {
		return err
	}
	st.pause()
	_, err = f.rig.client.RunSweep(ctx, submit(f.raw, sweepRatios(f.seed)), nil)
	return err
}

func (f *fleetBench) op(ctx context.Context, _, seq int) (int, time.Duration, error) {
	slot := seq % fleetGridCount
	t := time.Now()
	pts, err := f.rig.client.RunSweep(ctx, submit(f.raw, f.grids[slot]), nil)
	d := time.Since(t)
	if err != nil {
		return 0, d, err
	}
	key, err := json.Marshal(pts)
	if err != nil {
		return 0, d, err
	}
	m := f.seen[slot]
	if m == nil {
		m = make(map[string]*fleetOut)
		f.seen[slot] = m
	}
	if o := m[string(key)]; o != nil {
		o.n++
	} else {
		m[string(key)] = &fleetOut{n: 1, pts: pts}
	}
	return len(pts), d, nil
}

// check compares every distinct merged grid with a serial cold-start
// (Workers: 1, WarmStart off) sweep of the same grid — the fleet's
// local-equals-fleet contract.
func (f *fleetBench) check(ctx context.Context) (int, error) {
	fw, err := core.New(f.sp.Config())
	if err != nil {
		return 0, err
	}
	failed := 0
	for slot, m := range f.seen {
		if len(m) == 0 {
			continue
		}
		want, err := fw.SweepContext(ctx, f.grids[slot], sweepAlphas, nil, core.SweepOptions{Workers: 1})
		if err != nil {
			return 0, err
		}
		for _, o := range m {
			got := make([]core.SweepPoint, len(o.pts))
			for i, wp := range o.pts {
				got[i] = wp.Point()
			}
			if d := sweepMismatch(got, want); d != "" {
				if failed == 0 {
					fmt.Fprintf(os.Stderr, "perfbench: fleet grid %d: %s\n", slot, d)
				}
				failed += o.n
			}
		}
	}
	return failed, nil
}

func (f *fleetBench) close() {
	if f.rig != nil {
		f.rig.close()
	}
}
