package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// httpReq is a throwaway request for exercising solveContext directly.
func httpReq(t *testing.T) *http.Request {
	t.Helper()
	return httptest.NewRequest(http.MethodPost, "/v1/advise", nil)
}

// TestAdmissionSheds429 saturates a MaxInflight-1 server by parking a
// synthetic solve in the only slot, and proves the next request is shed
// with 429 + a Retry-After the client can act on — then that draining the
// slot restores service.
func TestAdmissionSheds429(t *testing.T) {
	s := New(Options{MaxInflight: 1})

	// Park a fake solve in the only slot, as an in-flight request would.
	s.adm.slots <- struct{}{}

	rec := postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 0.5})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated advise = %d, want 429 (%s)", rec.Code, rec.Body)
	}
	retry, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("shed body %q not a JSON error", rec.Body)
	}
	// Sweeps and tracks share the same budget.
	rec = postJSON(t, s, "/v1/sweep", sweepRequest{federationSpec: testSpec(), Ratios: []float64{0.5}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated sweep = %d, want 429", rec.Code)
	}
	rec = postJSON(t, s, "/v1/track", trackRequest{federationSpec: testSpec(), Prices: []float64{0.5}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated track = %d, want 429", rec.Code)
	}
	if shed := s.metrics.shed.Load(); shed != 3 {
		t.Fatalf("shed counter = %d, want 3", shed)
	}
	// Shedding is the server working as configured, not failing.
	if errs := s.metrics.errors.Load(); errs != 0 {
		t.Fatalf("shed requests counted as errors: %d", errs)
	}

	<-s.adm.slots // the parked solve finishes
	rec = postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 0.5})
	if rec.Code != http.StatusOK {
		t.Fatalf("drained advise = %d: %s", rec.Code, rec.Body)
	}
	if adm := s.metrics.admitted.Load(); adm != 1 {
		t.Fatalf("admitted counter = %d, want 1", adm)
	}

	// /metrics reports the admission section.
	var snap metricsSnapshot
	if err := json.Unmarshal(get(s, "/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Admission.MaxInflight != 1 || snap.Admission.Shed != 3 || snap.Admission.Admitted != 1 {
		t.Fatalf("admission report = %+v", snap.Admission)
	}
	if snap.Admission.AvgSolveSeconds <= 0 {
		t.Fatalf("no solve latency observed: %+v", snap.Admission)
	}
}

// TestAdmissionQueueWait: with a queue window, a request arriving at a full
// server waits for a slot instead of shedding, and succeeds once one frees.
func TestAdmissionQueueWait(t *testing.T) {
	s := New(Options{MaxInflight: 1, QueueWait: 5 * time.Second})
	s.adm.slots <- struct{}{}
	go func() {
		time.Sleep(50 * time.Millisecond)
		<-s.adm.slots
	}()
	rec := postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 0.5})
	if rec.Code != http.StatusOK {
		t.Fatalf("queued advise = %d, want 200 after the slot frees (%s)", rec.Code, rec.Body)
	}
	if s.metrics.queueWaitNs.Load() <= 0 {
		t.Fatal("queue wait not recorded")
	}

	// A too-short window sheds after waiting it out.
	s2 := New(Options{MaxInflight: 1, QueueWait: 10 * time.Millisecond})
	s2.adm.slots <- struct{}{}
	rec = postJSON(t, s2, "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 0.5})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("expired queue wait = %d, want 429", rec.Code)
	}
}

// TestRetryAfterPricing: the header tracks the observed solve latency,
// rounded up to whole seconds, never below 1.
func TestRetryAfterPricing(t *testing.T) {
	a := newAdmission(1, 0)
	if got := a.retryAfterSeconds(); got != 1 {
		t.Fatalf("no history: Retry-After = %d, want 1", got)
	}
	a.observe(2500 * time.Millisecond)
	if got := a.retryAfterSeconds(); got != 3 {
		t.Fatalf("after a 2.5s solve: Retry-After = %d, want 3 (ceil)", got)
	}
	// The EWMA moves toward faster solves without forgetting instantly.
	for i := 0; i < 20; i++ {
		a.observe(10 * time.Millisecond)
	}
	if got := a.retryAfterSeconds(); got != 1 {
		t.Fatalf("after fast solves: Retry-After = %d, want 1", got)
	}
}

// TestDeadlineMsShortensCap: a request deadline below the server cap turns
// a slow solve into 504; deadlineMs can never extend the server cap.
func TestDeadlineMsShortensCap(t *testing.T) {
	s := New(Options{SolveTimeout: time.Hour})
	req := httpReq(t)
	if _, cancel, timeout := s.solveContext(req, 500); timeout != 500*time.Millisecond {
		cancel()
		t.Fatalf("effective timeout = %v, want 500ms", timeout)
	} else {
		cancel()
	}
	if _, cancel, timeout := s.solveContext(req, 0); timeout != time.Hour {
		cancel()
		t.Fatalf("effective timeout = %v, want the server cap", timeout)
	} else {
		cancel()
	}
	// Longer than the cap: the cap wins.
	if _, cancel, timeout := s.solveContext(req, 2*3600*1000); timeout != time.Hour {
		cancel()
		t.Fatalf("effective timeout = %v, want the server cap", timeout)
	} else {
		cancel()
	}
	// Far longer than the cap, up to values whose nanoseconds overflow
	// int64: the cap still wins.
	for _, ms := range []int64{9223372036855, 1 << 62, math.MaxInt64} {
		if _, cancel, timeout := s.solveContext(req, ms); timeout != time.Hour {
			cancel()
			t.Fatalf("deadlineMs %d: effective timeout = %v, want the server cap", ms, timeout)
		} else {
			cancel()
		}
	}
	// No server cap: the request deadline is the only bound.
	uncapped := New(Options{})
	if _, cancel, timeout := uncapped.solveContext(req, 250); timeout != 250*time.Millisecond {
		cancel()
		t.Fatalf("effective timeout = %v, want 250ms", timeout)
	} else {
		cancel()
	}
}
