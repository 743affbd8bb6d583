package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"scshare/internal/core"
)

// trackRequest is the body of POST /v1/track: a federation spec plus a
// price schedule to follow. Each step re-equilibrates at the next price,
// seeding the game with the previous step's equilibrium (the Tatonnement
// view of Sect. VII: as C^G drifts, the market re-converges from where it
// was, not from scratch).
type trackRequest struct {
	federationSpec
	// Prices is the C^G schedule to follow, streamed one step per price.
	Prices []float64 `json:"prices"`
	// IntervalMs optionally paces the steps (a poll interval): the server
	// sleeps this long between consecutive steps, so a schedule doubles as
	// a low-rate subscription. 0 streams as fast as the solves finish.
	IntervalMs int64 `json:"intervalMs,omitempty"`
	// Alpha selects the welfare used to pick among equilibria per step.
	Alpha string `json:"alpha,omitempty"`
	// ColdStart disables the warm chaining: every step solves from the
	// default start. Mostly useful for measuring what the chaining saves.
	ColdStart bool `json:"coldStart,omitempty"`
	// DeadlineMs optionally shortens the server's solve timeout for the
	// whole schedule (milliseconds); it can never extend it.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}

// trackLine is one streamed step: the advice at one schedule price, plus
// the re-equilibration cost that step paid. Warm reports whether the step
// was seeded with the previous step's equilibrium — the first step (and
// every step under coldStart) is cold by construction.
type trackLine struct {
	Step        int                `json:"step"`
	Total       int                `json:"total"`
	Price       float64            `json:"price"`
	PriceRatio  float64            `json:"priceRatio"`
	Rounds      int                `json:"rounds"`
	Evaluations int                `json:"evaluations"`
	Converged   bool               `json:"converged"`
	Warm        bool               `json:"warm"`
	SCs         []scAdviceResponse `json:"scs"`
	Warnings    []string           `json:"warnings,omitempty"`
}

// trackTrailer is the final stream element: the whole schedule finished
// (Done true) or the session failed after zero or more streamed steps.
type trackTrailer struct {
	Done  bool   `json:"done"`
	Steps int    `json:"steps,omitempty"`
	Error string `json:"error,omitempty"`
}

// streamWriter serializes stream elements as NDJSON or SSE, flushing
// after each element. The first write error is sticky and reported
// through err() — the signal that the client stopped listening.
type streamWriter struct {
	w        http.ResponseWriter
	flusher  http.Flusher
	sse      bool
	writeErr error
}

// newStreamWriter sets the response Content-Type for the chosen stream
// format. SSE frames each element as one `data:` event; NDJSON is one JSON
// object per line.
func newStreamWriter(w http.ResponseWriter, sse bool) *streamWriter {
	sw := &streamWriter{w: w, sse: sse}
	sw.flusher, _ = w.(http.Flusher)
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	return sw
}

// write streams one element; it reports false once a write has failed, so
// callers can stop producing.
func (sw *streamWriter) write(v any) bool {
	if sw.writeErr != nil {
		return false
	}
	b, err := json.Marshal(v)
	if err != nil {
		sw.writeErr = err
		return false
	}
	if sw.sse {
		_, err = fmt.Fprintf(sw.w, "data: %s\n\n", b)
	} else {
		_, err = fmt.Fprintf(sw.w, "%s\n", b)
	}
	if err != nil {
		sw.writeErr = err
		return false
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	return true
}

func (sw *streamWriter) err() error { return sw.writeErr }

// handleTrack follows a drifting federation price: one equilibrium solve
// per schedule step, each warm-started from the previous step's
// equilibrium via AdviseAt's initial-vector seam, streamed as it lands.
// This is the incremental re-equilibration the batch endpoints cannot
// express — /v1/advise solves cold per query, /v1/sweep scores a whole
// grid; /v1/track rides one negotiation forward through price drift.
func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	s.metrics.track.Add(1)
	var req trackRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Normalize(); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Prices) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("request needs at least one price in prices"))
		return
	}
	for _, p := range req.Prices {
		if err := validPrice(p); err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
	}
	if req.IntervalMs < 0 || req.IntervalMs > maxDurationMs {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad intervalMs %d: want milliseconds in [0, %d]", req.IntervalMs, maxDurationMs))
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
	fw, err := s.framework(&req.federationSpec)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	// One admission slot covers the whole session: a track request is one
	// continuous consumer of solver capacity, however many steps it streams.
	release, ok := s.adm.acquire(r.Context(), &s.metrics)
	if !ok {
		s.shed(w)
		return
	}
	defer release()
	ctx, cancel, timeout := s.solveContext(r, req.DeadlineMs)
	defer cancel()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1) // deferred: a panicking solve must not wedge the gauge
	sw := newStreamWriter(w, strings.Contains(r.Header.Get("Accept"), "text/event-stream"))

	// fail ends the stream: mid-stream errors arrive as a trailer (the 200
	// is already on the wire); a dead client is counted, not answered.
	failStream := func(err error) {
		switch {
		case sw.err() != nil || clientGone(r, err):
			s.metrics.canceled.Add(1)
		case errors.Is(err, context.DeadlineExceeded):
			s.metrics.errors.Add(1)
			sw.write(trackTrailer{Error: fmt.Sprintf("track exceeded the effective %v timeout", timeout)})
		default:
			s.metrics.errors.Add(1)
			sw.write(trackTrailer{Error: err.Error()})
		}
	}

	var prev []int
	total := len(req.Prices)
	for step, price := range req.Prices {
		var initials [][]int
		warm := prev != nil && !req.ColdStart
		if warm {
			initials = [][]int{prev}
		}
		solveStart := time.Now()
		adv, err := fw.AdviseAt(ctx, price, initials, alpha)
		s.adm.observe(time.Since(solveStart))
		if err != nil {
			failStream(err)
			return
		}
		s.metrics.trackSteps.Add(1)
		s.metrics.solveRounds.Add(int64(adv.Rounds))
		s.metrics.solveEvals.Add(int64(adv.Evaluations))

		line := trackLine{
			Step:        step,
			Total:       total,
			Price:       adv.FederationPrice,
			PriceRatio:  adv.PriceRatio,
			Rounds:      adv.Rounds,
			Evaluations: adv.Evaluations,
			Converged:   adv.Converged,
			Warm:        warm,
			Warnings:    core.DiagnoseAdvice(adv),
		}
		prev = make([]int, len(adv.SCs))
		for i, sc := range adv.SCs {
			prev[i] = sc.Share
			line.SCs = append(line.SCs, scAdviceResponse{
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
		if !sw.write(line) {
			s.metrics.canceled.Add(1)
			return
		}
		if req.IntervalMs > 0 && step < total-1 {
			pause := time.NewTimer(time.Duration(req.IntervalMs) * time.Millisecond)
			select {
			case <-ctx.Done():
				pause.Stop()
				failStream(fmt.Errorf("track interrupted between steps: %w", ctx.Err()))
				return
			case <-pause.C:
			}
		}
	}
	sw.write(trackTrailer{Done: true, Steps: total})
}
