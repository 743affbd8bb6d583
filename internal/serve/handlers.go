package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"scshare/internal/core"
)

// maxBodyBytes bounds request bodies; federation specs are tiny, so 1 MiB
// is generous.
const maxBodyBytes = 1 << 20

// adviseResponse mirrors core.Advice with the same field names the scmarket
// CLI emits, but with possibly non-finite floats as nullable pointers —
// encoding/json cannot represent ±Inf, and a dead market's utilities are
// -Inf by construction.
type adviseResponse struct {
	FederationPrice float64            `json:"federationPrice"`
	PriceRatio      float64            `json:"priceRatio"`
	Rounds          int                `json:"rounds"`
	Evaluations     int                `json:"evaluations"`
	Converged       bool               `json:"converged"`
	SCs             []scAdviceResponse `json:"scs"`
	// Warnings carries core.DiagnoseAdvice's findings: conditions under
	// which the advice is technically well-formed but operationally
	// suspect (non-converged negotiation, a federation nobody joins).
	Warnings []string `json:"warnings,omitempty"`
}

type scAdviceResponse struct {
	Name                string   `json:"name"`
	Share               int      `json:"share"`
	Join                bool     `json:"join"`
	BaselineCostPerSec  float64  `json:"baselineCostPerSec"`
	CostPerSec          float64  `json:"costPerSec"`
	SavingPerSec        float64  `json:"savingPerSec"`
	BorrowVMs           float64  `json:"borrowVMs"`
	LendVMs             float64  `json:"lendVMs"`
	Utilization         float64  `json:"utilization"`
	BaselineUtilization float64  `json:"baselineUtilization"`
	Utility             *float64 `json:"utility"`
}

// sweepLine is one NDJSON line of POST /v1/sweep: a finished grid point.
// Index is the point's position in the request's ratio grid (points can
// finish out of order when workers > 1); Alphas names the welfare regimes
// the Welfare/Efficiency slices are indexed by. Non-finite welfare (a dead
// market's -Inf) is encoded as null.
type sweepLine struct {
	Index      int        `json:"index"`
	Total      int        `json:"total"`
	Ratio      float64    `json:"ratio"`
	Price      float64    `json:"price"`
	Shares     []int      `json:"shares"`
	Utilities  []*float64 `json:"utilities"`
	Alphas     []string   `json:"alphas"`
	Welfare    []*float64 `json:"welfare"`
	Efficiency []*float64 `json:"efficiency"`
	Rounds     int        `json:"rounds"`
	Converged  bool       `json:"converged"`
}

// sweepTrailer is the final NDJSON line: either the whole grid finished
// (Done true) or the sweep failed after zero or more streamed points. On
// success, Warnings carries core.Diagnose's findings over the whole grid
// (dead markets, nothing converged, nobody ever shares) — the conditions a
// client scanning only per-point lines would otherwise miss.
type sweepTrailer struct {
	Done     bool     `json:"done"`
	Points   int      `json:"points,omitempty"`
	Error    string   `json:"error,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
}

// errorResponse is the body of every non-streaming error reply.
type errorResponse struct {
	Error string `json:"error"`
}

// fptr returns a pointer to v, or nil when v is not a finite number —
// JSON-encodable in either case.
func fptr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

func fptrs(vs []float64) []*float64 {
	out := make([]*float64, len(vs))
	for i, v := range vs {
		out[i] = fptr(v)
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// fail answers a request with a JSON error and counts it.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.metrics.errors.Add(1)
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// shed answers a request the admission layer rejected: 429 with a
// Retry-After priced from the observed solve latency. Shed requests are
// counted by acquire, not as errors — load shedding is the server working
// as configured, not failing.
func (s *Server) shed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
	writeJSON(w, http.StatusTooManyRequests,
		errorResponse{Error: "server is at its max-inflight solve capacity; retry after the indicated delay"})
}

// decodeJSON strictly decodes the request body into v: unknown fields and
// trailing garbage are errors, so typos in a spec fail loudly instead of
// silently running a default configuration.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return errors.New("bad request body: trailing data after JSON object")
	}
	return nil
}

// solveContext derives the context a solve runs under: the request context
// (so a client disconnect cancels the worker-pool rounds) capped by the
// effective timeout — the server's solve timeout, shortened (never
// extended) by the request's deadlineMs override. The effective timeout is
// returned for error messages; 0 means uncapped. A deadlineMs too large
// for a time.Duration is clamped to the longest one instead of wrapping,
// so it too leaves the server cap in place.
func (s *Server) solveContext(r *http.Request, deadlineMs int64) (context.Context, context.CancelFunc, time.Duration) {
	timeout := s.solveTimeout
	if deadlineMs > 0 {
		if d := time.Duration(min(deadlineMs, maxDurationMs)) * time.Millisecond; timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		return ctx, cancel, timeout
	}
	ctx, cancel := context.WithCancel(r.Context())
	return ctx, cancel, 0
}

// maxDurationMs is the largest whole number of milliseconds a
// time.Duration holds; a millisecond count above it overflows int64
// nanoseconds when converted.
const maxDurationMs = math.MaxInt64 / int64(time.Millisecond)

// validDeadline rejects a negative deadlineMs before it silently disables
// the server cap (solveContext only applies positive overrides).
func validDeadline(deadlineMs int64) error {
	if deadlineMs < 0 {
		return fmt.Errorf("bad deadlineMs %d: want a duration in milliseconds >= 0", deadlineMs)
	}
	return nil
}

// validWorkers rejects a negative sweep worker count.
func validWorkers(workers int) error {
	if workers < 0 {
		return fmt.Errorf("bad workers %d: want a worker count >= 0 (0 = GOMAXPROCS)", workers)
	}
	return nil
}

// sweepWorkers resolves a validated sweep worker count against the CPUs
// this process may use: 0 and anything above GOMAXPROCS become GOMAXPROCS.
// Admission counts a sweep as one solve, and every worker (and the
// sweep's speculative Prime) solves on its own goroutine, so more workers
// than CPUs would only take CPUs from the other admitted solves. The
// sweep's output is the same at any worker count.
func sweepWorkers(workers int) int {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > procs {
		return procs
	}
	return workers
}

// validPrice admits the federation prices a solve can digest: finite and
// non-negative. NaN and ±Inf would otherwise flow straight into AdviseAt
// and poison every downstream comparison.
func validPrice(price float64) error {
	if math.IsNaN(price) || math.IsInf(price, 0) || price < 0 {
		return fmt.Errorf("bad price %v: want a finite price >= 0", price)
	}
	return nil
}

// clientGone reports whether a solve error is due to the client
// disconnecting (as opposed to the server-side solve timeout).
func clientGone(r *http.Request, err error) bool {
	return errors.Is(err, context.Canceled) && r.Context().Err() != nil
}

// handleAdvise runs one equilibrium solve and returns the per-SC advice.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	s.metrics.advise.Add(1)
	var req adviseRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Normalize(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := validPrice(req.Price); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := validDeadline(req.DeadlineMs); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	alpha, err := parseAlpha(req.Alpha)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var initials [][]int
	if req.Initial != nil {
		if len(req.Initial) != len(req.SCs) {
			s.fail(w, http.StatusBadRequest,
				fmt.Errorf("initial has %d entries for %d SCs", len(req.Initial), len(req.SCs)))
			return
		}
		initials = [][]int{req.Initial}
	}
	fw, err := s.framework(&req.federationSpec)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	release, ok := s.adm.acquire(r.Context(), &s.metrics)
	if !ok {
		s.shed(w)
		return
	}
	defer release()
	ctx, cancel, timeout := s.solveContext(r, req.DeadlineMs)
	defer cancel()
	// Both gauge updates are deferred: a panicking solve must not wedge
	// inFlight (admission and monitoring key off it) or leak its slot.
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	solveStart := time.Now()
	adv, err := fw.AdviseAt(ctx, req.Price, initials, alpha)
	s.adm.observe(time.Since(solveStart))
	if err != nil {
		switch {
		case clientGone(r, err):
			s.metrics.canceled.Add(1)
		case errors.Is(err, context.DeadlineExceeded):
			s.fail(w, http.StatusGatewayTimeout,
				fmt.Errorf("solve exceeded the effective %v timeout", timeout))
		default:
			s.fail(w, http.StatusUnprocessableEntity, err)
		}
		return
	}
	s.metrics.solveRounds.Add(int64(adv.Rounds))
	s.metrics.solveEvals.Add(int64(adv.Evaluations))

	resp := adviseResponse{
		FederationPrice: adv.FederationPrice,
		PriceRatio:      adv.PriceRatio,
		Rounds:          adv.Rounds,
		Evaluations:     adv.Evaluations,
		Converged:       adv.Converged,
		Warnings: append(core.DiagnoseAdvice(adv),
			core.DiagnosePruning(fw.PruneStats())...),
	}
	for _, sc := range adv.SCs {
		resp.SCs = append(resp.SCs, scAdviceResponse{
			Name:                sc.Name,
			Share:               sc.Share,
			Join:                sc.Join,
			BaselineCostPerSec:  sc.BaselineCostPerSec,
			CostPerSec:          sc.CostPerSec,
			SavingPerSec:        sc.SavingPerSec,
			BorrowVMs:           sc.BorrowVMs,
			LendVMs:             sc.LendVMs,
			Utilization:         sc.Utilization,
			BaselineUtilization: sc.BaselineUtilization,
			Utility:             fptr(sc.Utility),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSweep runs the Fig. 7-style price-grid sweep and streams each
// finished point as one NDJSON line, followed by a trailer line. Validation
// failures are plain JSON errors (the stream has not started); a solve
// failure mid-stream arrives as a trailer with the error, since the 200
// status is already on the wire.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.metrics.sweep.Add(1)
	var req sweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Normalize(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Ratios) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("request needs at least one ratio"))
		return
	}
	for _, ratio := range req.Ratios {
		// Non-finite covers +Inf too, which the old IsNaN||<0 check admitted.
		if math.IsNaN(ratio) || math.IsInf(ratio, 0) || ratio < 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad ratio %v: want a finite ratio >= 0", ratio))
			return
		}
	}
	if err := validDeadline(req.DeadlineMs); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := validWorkers(req.Workers); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	alphaVals, alphaNames, err := parseAlphas(req.Alphas)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var run sweepRun
	if s.dispatch != nil {
		// Fleet mode: same validation, admission, and stream shape — the
		// grid just solves on scworkd workers instead of this process.
		run, err = s.dispatchSweep(&req, alphaVals)
	} else {
		run, err = s.localSweep(&req, alphaVals)
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.streamSweep(w, r, &req, alphaNames, run)
}

// sweepRun solves a sweep's grid under ctx, calling onPoint with each
// finished point and its grid index, one call at a time. It returns the
// points in grid order plus any trailer warnings beyond core.Diagnose's.
type sweepRun func(ctx context.Context, onPoint func(int, core.SweepPoint)) ([]core.SweepPoint, []string, error)

// localSweep solves the grid on this process's framework and worker pool.
func (s *Server) localSweep(req *sweepRequest, alphaVals []float64) (sweepRun, error) {
	fw, err := s.framework(&req.federationSpec)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, onPoint func(int, core.SweepPoint)) ([]core.SweepPoint, []string, error) {
		pts, err := fw.SweepContext(ctx, req.Ratios, alphaVals, nil, core.SweepOptions{
			Workers:   sweepWorkers(req.Workers),
			WarmStart: !req.ColdStart,
			OnPoint:   onPoint,
		})
		if err != nil {
			return nil, nil, err
		}
		return pts, core.DiagnosePruning(fw.PruneStats()), nil
	}, nil
}

// streamSweep is the /v1/sweep stream of both modes: one admission slot
// and the effective timeout cover the whole run, and its points and
// trailer stream as handleSweep describes.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, req *sweepRequest, alphaNames []string, run sweepRun) {
	release, ok := s.adm.acquire(r.Context(), &s.metrics)
	if !ok {
		s.shed(w)
		return
	}
	defer release()
	ctx, cancel, timeout := s.solveContext(r, req.DeadlineMs)
	defer cancel()
	sw := newStreamWriter(w, false) // NDJSON: /v1/sweep has no SSE form

	total := len(req.Ratios)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1) // deferred: a panicking solve must not wedge the gauge
	solveStart := time.Now()
	// onPoint runs one call at a time and never after run returns, so the
	// ResponseWriter sees one writer at a time. The first failed write
	// cancels the solve: the client is gone, so solving the rest of the
	// grid for a dead connection would be pure waste.
	pts, warnings, err := run(ctx, func(i int, pt core.SweepPoint) {
		s.metrics.sweepPoints.Add(1)
		s.metrics.solveRounds.Add(int64(pt.Rounds))
		if !sw.write(sweepLine{
			Index:      i,
			Total:      total,
			Ratio:      pt.Ratio,
			Price:      pt.Price,
			Shares:     pt.Shares,
			Utilities:  fptrs(pt.Utilities),
			Alphas:     alphaNames,
			Welfare:    fptrs(pt.Welfare),
			Efficiency: fptrs(pt.Efficiency),
			Rounds:     pt.Rounds,
			Converged:  pt.Converged,
		}) {
			cancel()
		}
	})
	s.adm.observe(time.Since(solveStart))
	switch {
	case sw.err() != nil || clientGone(r, err):
		// Nobody is listening; just unwind.
		s.metrics.canceled.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.errors.Add(1)
		sw.write(sweepTrailer{Error: fmt.Sprintf("sweep exceeded the effective %v timeout", timeout)})
	case err != nil:
		s.metrics.errors.Add(1)
		sw.write(sweepTrailer{Error: err.Error()})
	default:
		sw.write(sweepTrailer{Done: true, Points: len(pts),
			Warnings: append(core.Diagnose(pts), warnings...)})
	}
}

// handleHealthz answers liveness probes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.healthz.Add(1)
	io.Copy(io.Discard, io.LimitReader(r.Body, maxBodyBytes))
	writeJSON(w, http.StatusOK, struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
	}{"ok", time.Since(s.start).Seconds()})
}

// handleMetrics reports the expvar-style counter snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.metricsReqs.Add(1)
	writeJSON(w, http.StatusOK, s.snapshot(time.Since(s.start).Seconds()))
}
