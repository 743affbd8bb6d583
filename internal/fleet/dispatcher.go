package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"time"

	"scshare/internal/spec"
)

// maxBodyBytes bounds every request body the dispatcher reads — ample for
// the largest sweep submission, small enough that a misbehaving client
// cannot balloon memory.
const maxBodyBytes = 16 << 20

// Options configures a Dispatcher.
type Options struct {
	// LeaseTTL is how long a leased job survives without a heartbeat or
	// result before it is requeued (default 10s).
	LeaseTTL time.Duration
	// Poll is the idle-worker poll interval advertised at registration
	// (default 500ms).
	Poll time.Duration
	// Batch is how many grid points one job carries (default 1: every
	// point is its own job, the finest-grained and most parallel split).
	Batch int
	// MaxAttempts is how many times one job may be (re)tried before its
	// whole sweep fails (default 5).
	MaxAttempts int
	// SnapshotPath optionally names a snapshot file of solved vectors (the
	// spec.Cache envelope, as written by scserve -snapshot); when set and
	// readable, workers are offered it at registration and fetch it from
	// GET /fleet/v1/snapshot to boot with those vectors memoized.
	SnapshotPath string
	// Logf receives operational log lines (default: drop them).
	Logf func(format string, args ...any)
	// now overrides the clock in tests.
	now func() time.Time
}

// Dispatcher is the fleet coordinator: it accepts sweeps over HTTP, splits
// them into leased point-batch jobs, merges worker results by grid index,
// and serves long-poll watchers. It implements http.Handler and is safe
// for concurrent use.
type Dispatcher struct {
	q            *queue
	poll         time.Duration
	leaseTTL     time.Duration
	snapshotPath string
	logf         func(format string, args ...any)
	mux          *http.ServeMux
	start        time.Time
}

// NewDispatcher builds a Dispatcher with its routes registered.
func NewDispatcher(opts Options) *Dispatcher {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	d := &Dispatcher{
		q:            newQueue(opts.LeaseTTL, opts.MaxAttempts, opts.Batch, opts.now),
		poll:         opts.Poll,
		leaseTTL:     opts.LeaseTTL,
		snapshotPath: opts.SnapshotPath,
		logf:         opts.Logf,
		start:        time.Now(),
	}
	d.mux = http.NewServeMux()
	d.mux.HandleFunc("POST /fleet/v1/register", d.handleRegister)
	d.mux.HandleFunc("POST /fleet/v1/lease", d.handleLease)
	d.mux.HandleFunc("POST /fleet/v1/heartbeat", d.handleHeartbeat)
	d.mux.HandleFunc("POST /fleet/v1/result", d.handleResult)
	d.mux.HandleFunc("GET /fleet/v1/snapshot", d.handleSnapshot)
	d.mux.HandleFunc("POST /fleet/v1/sweeps", d.handleSubmit)
	d.mux.HandleFunc("GET /fleet/v1/sweeps/{id}", d.handleWatch)
	d.mux.HandleFunc("GET /healthz", d.handleHealthz)
	d.mux.HandleFunc("GET /metrics", d.handleMetrics)
	return d
}

// ServeHTTP implements http.Handler.
func (d *Dispatcher) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mux.ServeHTTP(w, r)
}

// errorBody is the JSON error payload shared by all non-2xx answers.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func fail(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

func (d *Dispatcher) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	if req.Version != ProtocolVersion {
		fail(w, http.StatusBadRequest,
			fmt.Errorf("protocol version %d not supported (dispatcher speaks %d)", req.Version, ProtocolVersion))
		return
	}
	wi := d.q.register(req.Name, req.Procs)
	d.logf("fleet: worker %s registered (name=%q procs=%d)", wi.id, req.Name, req.Procs)
	writeJSON(w, http.StatusOK, RegisterResponse{
		Version:    ProtocolVersion,
		WorkerID:   wi.id,
		LeaseTTLMs: d.leaseTTL.Milliseconds(),
		PollMs:     d.poll.Milliseconds(),
		Snapshot:   d.snapshotAvailable(),
	})
}

func (d *Dispatcher) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decodeJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	lease, known := d.q.lease(req.WorkerID)
	if !known {
		// An unknown worker is one that outlived a dispatcher restart: its
		// registration died with the old process. 409 (not an empty lease)
		// tells it to re-register instead of idling forever.
		fail(w, http.StatusConflict, fmt.Errorf("unknown worker %q: re-register", req.WorkerID))
		return
	}
	if lease != nil {
		d.logf("fleet: job %s (%d points) leased to %s", lease.JobID, len(lease.Points), req.WorkerID)
	}
	writeJSON(w, http.StatusOK, LeaseResponse{Job: lease})
}

func (d *Dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := decodeJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	ok, cancel := d.q.heartbeat(req.WorkerID, req.JobIDs)
	writeJSON(w, http.StatusOK, HeartbeatResponse{OK: ok, Cancel: cancel})
}

func (d *Dispatcher) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if err := decodeJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	ok := d.q.result(req.WorkerID, req.JobID, req.Points, req.Done, req.Error)
	if req.Done {
		d.logf("fleet: job %s done by %s (held=%v err=%q)", req.JobID, req.WorkerID, ok, req.Error)
	}
	writeJSON(w, http.StatusOK, ResultResponse{OK: ok})
}

// snapshotAvailable reports whether the configured snapshot file exists.
func (d *Dispatcher) snapshotAvailable() bool {
	if d.snapshotPath == "" {
		return false
	}
	_, err := os.Stat(d.snapshotPath)
	return err == nil
}

func (d *Dispatcher) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if d.snapshotPath == "" {
		fail(w, http.StatusNotFound, errors.New("no snapshot configured"))
		return
	}
	f, err := os.Open(d.snapshotPath)
	if err != nil {
		fail(w, http.StatusNotFound, errors.New("snapshot not available"))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.Copy(w, f)
}

func (d *Dispatcher) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeJSON(r, &req); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Ratios) == 0 {
		fail(w, http.StatusBadRequest, errors.New("sweep needs at least one ratio"))
		return
	}
	if len(req.Alphas) == 0 {
		fail(w, http.StatusBadRequest, errors.New("sweep needs at least one alpha"))
		return
	}
	for _, ratio := range req.Ratios {
		v := float64(ratio)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			fail(w, http.StatusBadRequest, fmt.Errorf("bad ratio %v: want a finite ratio >= 0", v))
			return
		}
	}
	// Re-normalize the spec here so a bad federation fails the submitter
	// with 400 instead of failing every job on every worker; re-marshaling
	// the normalized spec also canonicalizes it, so worker framework-cache
	// keys are exactly the front door's.
	var sp spec.Federation
	if err := json.Unmarshal(req.Spec, &sp); err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
		return
	}
	if err := sp.Normalize(); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	key, err := sp.Key()
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	sw := d.q.submit(json.RawMessage(key), floats(req.Ratios), floats(req.Alphas), req.Initials)
	d.logf("fleet: sweep %s submitted (%d points, %d alphas)", sw.id, sw.total, len(sw.alphas))
	writeJSON(w, http.StatusOK, SubmitResponse{SweepID: sw.id, Total: sw.total})
}

// watchWindow bounds one long-poll; clients re-poll with the next `from`.
const watchWindow = 25 * time.Second

func (d *Dispatcher) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			fail(w, http.StatusBadRequest, fmt.Errorf("bad from %q", s))
			return
		}
		from = v
	}
	deadline := time.NewTimer(watchWindow)
	defer deadline.Stop()
	// Lease expiry is handler-driven, so a watcher must tick on its own:
	// if every worker died, nothing else would ever expire their leases
	// and the watch would hang instead of surfacing the failure.
	tick := time.NewTicker(d.leaseTTL / 2)
	defer tick.Stop()
	for {
		st, update, ok := d.q.status(id, from)
		if !ok {
			fail(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
			return
		}
		if len(st.Points) > 0 || st.Done {
			writeJSON(w, http.StatusOK, st)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-deadline.C:
			writeJSON(w, http.StatusOK, st)
			return
		case <-update:
		case <-tick.C:
		}
	}
}

func (d *Dispatcher) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, maxBodyBytes))
	writeJSON(w, http.StatusOK, struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
	}{"ok", time.Since(d.start).Seconds()})
}

// dispatcherMetrics is the GET /metrics payload.
type dispatcherMetrics struct {
	UptimeSeconds float64    `json:"uptimeSeconds"`
	Protocol      int        `json:"protocolVersion"`
	Queue         queueStats `json:"queue"`
}

func (d *Dispatcher) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, dispatcherMetrics{
		UptimeSeconds: time.Since(d.start).Seconds(),
		Protocol:      ProtocolVersion,
		Queue:         d.q.stats(),
	})
}
