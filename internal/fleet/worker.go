package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"scshare/internal/core"
	"scshare/internal/spec"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// URL is the dispatcher's base URL.
	URL string
	// Name labels the worker in dispatcher logs (hostname-pid style).
	Name string
	// Procs bounds per-job point parallelism (0 = GOMAXPROCS, 1 = serial).
	// It cannot affect results: every point solves cold and merges by grid
	// index, the same determinism contract as SweepOptions.Workers.
	Procs int
	// MaxFrameworks bounds the worker's framework cache (default 32).
	MaxFrameworks int
	// Poll overrides the dispatcher-advertised idle poll interval.
	Poll time.Duration
	// DisableSnapshot skips booting from the dispatcher-served snapshot of
	// solved vectors even when one is offered.
	DisableSnapshot bool
	// HTTPClient overrides the protocol client's http.Client.
	HTTPClient *http.Client
	// Logf receives operational log lines (default: drop them).
	Logf func(format string, args ...any)
}

// Worker is the scworkd solve loop: register, optionally boot warm from the
// dispatcher's snapshot, then lease jobs, stream per-point results, and
// heartbeat until the context ends. Cancel the context to kill the worker;
// in-flight jobs stop unreported, which is exactly the crash path — their
// leases expire on the dispatcher and the unreported remainder is requeued.
type Worker struct {
	client *Client
	opts   WorkerOptions
	cache  *spec.Cache
	logf   func(format string, args ...any)
}

// NewWorker builds a worker against the dispatcher at opts.URL.
func NewWorker(opts WorkerOptions) *Worker {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Worker{
		client: NewClient(opts.URL, opts.HTTPClient),
		opts:   opts,
		cache:  spec.NewCache(opts.MaxFrameworks),
		logf:   logf,
	}
}

// sleep waits d or until ctx ends, reporting whether the full wait passed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Run drives the worker until ctx ends, returning ctx.Err. It retries
// registration and transient protocol errors at the poll cadence instead of
// failing — a fleet worker's job is to outlive dispatcher restarts. When a
// restarted dispatcher no longer knows the worker (ErrUnknownWorker on
// lease, or a heartbeat answering OK false mid-job), the loop registers
// afresh and keeps going; the warm framework cache survives re-registration.
func (w *Worker) Run(ctx context.Context) error {
	for {
		reg, err := w.register(ctx)
		if err != nil {
			return err
		}
		poll := time.Duration(reg.PollMs) * time.Millisecond
		if w.opts.Poll > 0 {
			poll = w.opts.Poll
		}
		if poll <= 0 {
			poll = 500 * time.Millisecond
		}
		leaseTTL := time.Duration(reg.LeaseTTLMs) * time.Millisecond
		if reg.Snapshot && !w.opts.DisableSnapshot {
			w.bootFromSnapshot(ctx)
		}
		w.logf("fleet: worker %s ready (poll=%v leaseTTL=%v)", reg.WorkerID, poll, leaseTTL)
		for {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lease, err := w.client.Lease(ctx, reg.WorkerID)
			if errors.Is(err, ErrUnknownWorker) {
				w.logf("fleet: dispatcher no longer knows worker %s; re-registering", reg.WorkerID)
				break
			}
			if err != nil {
				w.logf("fleet: lease failed: %v", err)
				sleep(ctx, poll)
				continue
			}
			if lease == nil {
				sleep(ctx, poll)
				continue
			}
			w.runJob(ctx, reg.WorkerID, lease, leaseTTL)
		}
	}
}

// register announces the worker, retrying until it succeeds or ctx ends.
func (w *Worker) register(ctx context.Context) (RegisterResponse, error) {
	for {
		reg, err := w.client.Register(ctx, RegisterRequest{
			Version: ProtocolVersion,
			Name:    w.opts.Name,
			Procs:   w.opts.Procs,
		})
		if err == nil {
			return reg, nil
		}
		w.logf("fleet: register failed: %v", err)
		if !sleep(ctx, time.Second) {
			return RegisterResponse{}, ctx.Err()
		}
	}
}

// bootFromSnapshot merges the dispatcher-served snapshot's solved vectors
// into the framework cache's memos. Failure is logged and ignored — a
// snapshot is an optimization.
func (w *Worker) bootFromSnapshot(ctx context.Context) {
	body, err := w.client.Snapshot(ctx)
	if err != nil {
		w.logf("fleet: snapshot fetch failed: %v", err)
		return
	}
	defer body.Close()
	n, err := w.cache.ReadSnapshot(body)
	if err != nil {
		w.logf("fleet: snapshot restore failed: %v", err)
		return
	}
	w.logf("fleet: adopted %d solved vectors from dispatcher snapshot", n)
}

// runJob solves one leased job: heartbeat in the background, stream each
// finished point, and close the job with a full idempotent point set (so a
// lost per-point post cannot strand a point). On cancellation — worker
// shutdown, or the dispatcher revoking the lease — it stops without a
// final report and lets lease expiry requeue the remainder.
func (w *Worker) runJob(ctx context.Context, workerID string, lease *JobLease, leaseTTL time.Duration) {
	var sp spec.Federation
	if err := json.Unmarshal(lease.Spec, &sp); err != nil {
		w.reportError(ctx, workerID, lease.JobID, fmt.Errorf("decoding spec: %w", err))
		return
	}
	if err := sp.Normalize(); err != nil {
		w.reportError(ctx, workerID, lease.JobID, err)
		return
	}
	fw, err := w.cache.Framework(&sp)
	if err != nil {
		w.reportError(ctx, workerID, lease.JobID, err)
		return
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := leaseTTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-tick.C:
			}
			hb, err := w.client.Heartbeat(jobCtx, workerID, []string{lease.JobID})
			if err != nil {
				continue // transient; the lease survives until TTL
			}
			if !hb.OK {
				w.logf("fleet: dispatcher dropped worker %s; abandoning job %s", workerID, lease.JobID)
				cancel()
				return
			}
			for _, id := range hb.Cancel {
				if id == lease.JobID {
					w.logf("fleet: job %s canceled by dispatcher", lease.JobID)
					cancel()
					return
				}
			}
		}
	}()
	defer func() {
		cancel()
		<-hbDone
	}()

	ratios := make([]float64, len(lease.Points))
	for i, p := range lease.Points {
		ratios[i] = float64(p.Ratio)
	}
	done := make([]WirePoint, 0, len(lease.Points))
	pts, err := fw.SweepContext(jobCtx, ratios, floats(lease.Alphas), lease.Initials, core.SweepOptions{
		Workers:   w.opts.Procs,
		WarmStart: false, // the fleet determinism contract: every point cold
		OnPoint: func(i int, pt core.SweepPoint) {
			wp := ToWire(lease.Points[i].Index, pt)
			done = append(done, wp) // OnPoint calls are serialized by the driver
			ok, err := w.client.Result(jobCtx, ResultRequest{
				WorkerID: workerID,
				JobID:    lease.JobID,
				Points:   []WirePoint{wp},
			})
			if err == nil && !ok {
				cancel() // lease lost; someone else owns the job now
			}
		},
	})
	if jobCtx.Err() != nil {
		// Killed (worker shutdown) or revoked (dispatcher cancel): stop
		// silently and let the lease requeue whatever is unreported.
		return
	}
	if err != nil {
		w.reportError(ctx, workerID, lease.JobID, err)
		return
	}
	_ = pts // the per-point stream already carried every result
	_, err = w.client.Result(ctx, ResultRequest{
		WorkerID: workerID,
		JobID:    lease.JobID,
		Points:   done,
		Done:     true,
	})
	if err != nil {
		w.logf("fleet: final report for job %s failed: %v", lease.JobID, err)
	}
}

// reportError closes a job with a hard failure.
func (w *Worker) reportError(ctx context.Context, workerID, jobID string, err error) {
	w.logf("fleet: job %s failed: %v", jobID, err)
	_, rerr := w.client.Result(ctx, ResultRequest{
		WorkerID: workerID,
		JobID:    jobID,
		Done:     true,
		Error:    err.Error(),
	})
	if rerr != nil {
		w.logf("fleet: error report for job %s failed: %v", jobID, rerr)
	}
}
