package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"scshare/internal/cloud"
	"scshare/internal/core"
	"scshare/internal/market"
	"scshare/internal/spec"
)

// testSpec is a fast 2-SC federation under the fluid model: the served
// answers must match a directly-built framework bit for bit, so the tests
// mirror it with testConfig below.
func testSpec() federationSpec {
	return federationSpec{
		SCs: []scSpec{
			{VMs: 10, ArrivalRate: 5.8},
			{VMs: 10, ArrivalRate: 8.4},
		},
		Model:    "fluid",
		MaxShare: 4,
	}
}

// testConfig is the core configuration testSpec normalizes to, at the
// service's canonical price 0.
func testConfig() core.Config {
	return core.Config{
		Federation: cloud.Federation{SCs: []cloud.SC{
			{Name: "sc0", VMs: 10, ArrivalRate: 5.8, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "sc1", VMs: 10, ArrivalRate: 8.4, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		}},
		Model:     core.ModelFluid,
		MaxShares: []int{4, 4},
	}
}

func postJSON(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	return rec
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestAdviseMatchesFramework: POST /v1/advise must return exactly what a
// framework built on the same configuration computes — the scmarket parity
// contract of the service.
func TestAdviseMatchesFramework(t *testing.T) {
	s := New(Options{})
	rec := postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 0.5})
	if rec.Code != http.StatusOK {
		t.Fatalf("advise = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var got adviseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}

	fw, err := core.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.AdviseAt(context.Background(), 0.5, nil, market.AlphaUtilitarian)
	if err != nil {
		t.Fatal(err)
	}
	if got.FederationPrice != want.FederationPrice || got.PriceRatio != want.PriceRatio ||
		got.Converged != want.Converged || len(got.SCs) != len(want.SCs) {
		t.Fatalf("served advice header diverged:\ngot  %+v\nwant %+v", got, want)
	}
	for i := range want.SCs {
		g, w := got.SCs[i], want.SCs[i]
		if g.Share != w.Share || g.Join != w.Join ||
			g.CostPerSec != w.CostPerSec || g.BaselineCostPerSec != w.BaselineCostPerSec ||
			g.Utilization != w.Utilization {
			t.Fatalf("served advice for SC %d diverged:\ngot  %+v\nwant %+v", i, g, w)
		}
		if g.Utility == nil || *g.Utility != w.Utility {
			t.Fatalf("served utility for SC %d = %v, want %v", i, g.Utility, w.Utility)
		}
	}
}

// TestAdviseValidation maps bad inputs to 400s (and wrong methods to 405)
// before any solve runs.
func TestAdviseValidation(t *testing.T) {
	s := New(Options{})
	bad := []struct {
		name string
		body string
	}{
		{"not JSON", "not json"},
		{"unknown field", `{"bogus": 1, "scs": [{"vms": 10, "arrivalRate": 5}], "price": 0.5}`},
		{"no SCs", `{"scs": [], "price": 0.5}`},
		{"bad model", `{"scs": [{"vms": 10, "arrivalRate": 5}], "model": "oracle", "price": 0.5}`},
		{"bad alpha", `{"scs": [{"vms": 10, "arrivalRate": 5}], "alpha": "-1", "price": 0.5}`},
		{"bad SC", `{"scs": [{"vms": 0, "arrivalRate": 5}], "price": 0.5}`},
		{"initial length", `{"scs": [{"vms": 10, "arrivalRate": 5}], "initial": [1, 2], "price": 0.5}`},
		{"trailing data", `{"scs": [{"vms": 10, "arrivalRate": 5}], "price": 0.5} tail`},
	}
	for _, tc := range bad {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, rec.Code, rec.Body)
		}
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, rec.Body)
		}
	}

	// A federation price above a public price fails at solve preparation,
	// not input validation: 422.
	rec := postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 2})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("inverted price: status = %d, want 422 (%s)", rec.Code, rec.Body)
	}

	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/advise"},
		{http.MethodGet, "/v1/sweep"},
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/metrics"},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(probe.method, probe.path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", probe.method, probe.path, rec.Code)
		}
	}
}

// TestSweepStreamsNDJSON: the streamed sweep must carry exactly the points
// Framework.Sweep computes, one NDJSON line per grid point plus a done
// trailer.
func TestSweepStreamsNDJSON(t *testing.T) {
	ratios := []float64{0.2, 0.4, 0.6}
	alphaNames := []string{"utilitarian", "maxmin"}
	s := New(Options{})
	rec := postJSON(t, s, "/v1/sweep", sweepRequest{
		federationSpec: testSpec(),
		Ratios:         ratios,
		Alphas:         alphaNames,
		Workers:        1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var lines []sweepLine
	var trailer sweepTrailer
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"done"`)) {
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var ln sweepLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ln)
	}
	if !trailer.Done || trailer.Error != "" || trailer.Points != len(ratios) {
		t.Fatalf("trailer = %+v", trailer)
	}
	if len(lines) != len(ratios) {
		t.Fatalf("streamed %d lines for %d ratios", len(lines), len(ratios))
	}

	fw, err := core.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.Sweep(ratios, []float64{market.AlphaUtilitarian, market.AlphaMaxMin}, nil,
		core.SweepOptions{Workers: 1, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, ln := range lines {
		if ln.Index != i || ln.Total != len(ratios) {
			t.Fatalf("line %d: index/total = %d/%d (serial order expected)", i, ln.Index, ln.Total)
		}
		w := want[i]
		if ln.Ratio != w.Ratio || ln.Price != w.Price || ln.Converged != w.Converged ||
			ln.Rounds != w.Rounds || fmt.Sprint(ln.Shares) != fmt.Sprint(w.Shares) {
			t.Fatalf("line %d diverged from Sweep:\ngot  %+v\nwant %+v", i, ln, w)
		}
		if fmt.Sprint(ln.Alphas) != fmt.Sprint(alphaNames) {
			t.Fatalf("line %d alphas = %v", i, ln.Alphas)
		}
		for j, wf := range w.Welfare {
			got := ln.Welfare[j]
			if fptr(wf) == nil {
				if got != nil {
					t.Fatalf("line %d welfare[%d] = %v, want null", i, j, *got)
				}
				continue
			}
			if got == nil || *got != wf {
				t.Fatalf("line %d welfare[%d] = %v, want %v", i, j, got, wf)
			}
		}
	}
}

// TestHealthzAndMetrics: the two observability endpoints, and that the
// counters move with traffic.
func TestHealthzAndMetrics(t *testing.T) {
	s := New(Options{})
	rec := get(s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var health struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz body %q (%v)", rec.Body, err)
	}

	if rec := postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 0.5}); rec.Code != http.StatusOK {
		t.Fatalf("advise = %d: %s", rec.Code, rec.Body)
	}
	postJSON(t, s, "/v1/advise", adviseRequest{}) // one failing request

	rec = get(s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	var snap metricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests.Advise != 2 || snap.Requests.Healthz != 1 || snap.Requests.Metrics != 1 {
		t.Fatalf("request counters = %+v", snap.Requests)
	}
	if snap.Errors != 1 || snap.InFlight != 0 {
		t.Fatalf("errors/inFlight = %d/%d", snap.Errors, snap.InFlight)
	}
	if snap.Solver.Rounds == 0 || snap.Solver.Evaluations == 0 {
		t.Fatalf("solver counters did not move: %+v", snap.Solver)
	}
	if snap.Cache.Frameworks != 1 || snap.Cache.Hits+snap.Cache.Misses == 0 {
		t.Fatalf("cache stats = %+v", snap.Cache)
	}
	// The default model is approx, whose evaluator is whole-vector: every
	// cache miss must be answered by one SolveAll, never a per-target solve.
	if snap.Cache.WholeVectorSolves == 0 || snap.Cache.PerTargetSolves != 0 {
		t.Fatalf("solve-path split = %+v (approx must take the whole-vector path)", snap.Cache)
	}
	if snap.Cache.WholeVectorSolves+snap.Cache.PerTargetSolves != snap.Cache.Misses {
		t.Fatalf("solve split does not sum to misses: %+v", snap.Cache)
	}
	// The pruning account must be internally consistent: a nonzero discard
	// implies truncated summaries and a nonzero worst case, and the default
	// TruncEps budget can never discard whole units of probability mass.
	p := snap.Pruning
	if (p.TruncatedJoints == 0) != (p.TruncatedMass == 0) || p.MaxSummaryMass > p.TruncatedMass || p.TruncatedMass >= 1 {
		t.Fatalf("pruning account inconsistent: %+v", p)
	}
}

// TestEquivalentSpecsShareFramework: a spec that spells out defaults
// (tabu, maxRounds, an empty approx block) or sets a negative approx prune,
// which means the default, configures the same framework as the bare spec,
// so the three requests must leave one framework in /metrics, not pay
// three cold warm-ups.
func TestEquivalentSpecsShareFramework(t *testing.T) {
	s := New(Options{})
	spelled := testSpec()
	spelled.Tabu, spelled.MaxRounds = market.DefaultTabuDistance, market.DefaultMaxRounds
	spelled.Approx = &spec.Approx{}
	negPrune := testSpec()
	negPrune.Approx = &spec.Approx{Prune: -1}
	for _, sp := range []federationSpec{testSpec(), spelled, negPrune} {
		if rec := postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: sp, Price: 0.5}); rec.Code != http.StatusOK {
			t.Fatalf("advise = %d: %s", rec.Code, rec.Body)
		}
	}
	rec := get(s, "/metrics")
	var snap metricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cache.Frameworks != 1 {
		t.Fatalf("three equivalent specs built %d frameworks, want 1", snap.Cache.Frameworks)
	}
}

// TestFrameworkReuseAcrossPrices: two prices on one spec must share a
// framework — the second request gains cache hits instead of cold solves —
// and the framework cache must stay bounded.
func TestFrameworkReuseAcrossPrices(t *testing.T) {
	s := New(Options{MaxFrameworks: 1})
	if rec := postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 0.3}); rec.Code != http.StatusOK {
		t.Fatalf("first advise = %d: %s", rec.Code, rec.Body)
	}
	first, n := s.cacheStats()
	if n != 1 {
		t.Fatalf("frameworks = %d", n)
	}
	if rec := postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 0.7}); rec.Code != http.StatusOK {
		t.Fatalf("second advise = %d: %s", rec.Code, rec.Body)
	}
	second, n := s.cacheStats()
	if n != 1 {
		t.Fatalf("frameworks = %d", n)
	}
	if second.Hits <= first.Hits {
		t.Fatalf("second price gained no cache hits: %+v -> %+v", first, second)
	}

	// A different spec evicts the old framework under MaxFrameworks 1.
	other := testSpec()
	other.SCs[0].ArrivalRate = 4.2
	if rec := postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: other, Price: 0.5}); rec.Code != http.StatusOK {
		t.Fatalf("third advise = %d: %s", rec.Code, rec.Body)
	}
	if _, n := s.cacheStats(); n != 1 {
		t.Fatalf("framework cache grew past its bound: %d", n)
	}
}

// TestAdviseSolveTimeout: the configured solve timeout must turn a
// too-slow solve into 504, not a hung request.
func TestAdviseSolveTimeout(t *testing.T) {
	s := New(Options{SolveTimeout: time.Nanosecond})
	rec := postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 0.5})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", rec.Code, rec.Body)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("timeout body %q (%v)", rec.Body, err)
	}
}

// TestClientDisconnectCancelsSolve is the service-level cancellation
// proof: a client that walks away mid-solve must unwind the worker-pool
// rounds (InFlight back to 0, goroutine count settling) instead of leaving
// the solve running to completion.
func TestClientDisconnectCancelsSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation solve")
	}
	s := New(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	before := runtime.NumGoroutine()

	// A simulation-model solve is long (hundreds of milliseconds per model
	// evaluation, many evaluations per negotiation), so the cancel lands
	// mid-solve with certainty; cancellation is detected between
	// evaluations, bounding the unwind by roughly one evaluation.
	spec := federationSpec{
		SCs: []scSpec{
			{VMs: 10, ArrivalRate: 5.8},
			{VMs: 10, ArrivalRate: 8.4},
		},
		Model:      "sim",
		MaxShare:   4,
		SimHorizon: 400000,
	}
	body, err := json.Marshal(adviseRequest{federationSpec: spec, Price: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/advise", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request completed with status %d before the disconnect", resp.StatusCode)
		}
		done <- err
	}()

	waitFor := func(what string, timeout time.Duration, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("solve to start", 30*time.Second, func() bool { return s.InFlight() == 1 })
	cancel() // the client hangs up mid-solve

	if err := <-done; !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v", err)
	}
	waitFor("solve to unwind", 60*time.Second, func() bool { return s.InFlight() == 0 })
	waitFor("canceled counter", 10*time.Second, func() bool { return s.metrics.canceled.Load() == 1 })
	// The worker pool and the connection goroutines must drain; allow some
	// slack for the test server's own bookkeeping.
	waitFor("goroutines to settle", 60*time.Second, func() bool {
		return runtime.NumGoroutine() <= before+8
	})
}

// TestResponsesCarryDiagnostics: the advise response and the sweep trailer
// must surface core.Diagnose's warnings. A single-SC federation is the
// deterministic trigger: it converges to an indifference point (a share with
// zero saving), which both diagnostics flag end to end.
func TestResponsesCarryDiagnostics(t *testing.T) {
	soloSpec := federationSpec{
		SCs:   []scSpec{{VMs: 10, ArrivalRate: 5.8}},
		Model: "fluid",
	}
	s := New(Options{})

	rec := postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: soloSpec, Price: 0.5})
	if rec.Code != http.StatusOK {
		t.Fatalf("advise = %d: %s", rec.Code, rec.Body)
	}
	var adv adviseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &adv); err != nil {
		t.Fatal(err)
	}
	if len(adv.Warnings) == 0 {
		t.Fatal("advise response for a single-SC federation carries no warnings")
	}
	if !strings.Contains(strings.Join(adv.Warnings, "\n"), "none saves") {
		t.Fatalf("advise warnings %q do not flag the indifference point", adv.Warnings)
	}

	rec = postJSON(t, s, "/v1/sweep", sweepRequest{
		federationSpec: soloSpec,
		Ratios:         []float64{0.2, 0.6},
		Workers:        1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body)
	}
	var trailer sweepTrailer
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"done"`)) {
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !trailer.Done {
		t.Fatalf("trailer = %+v", trailer)
	}
	if len(trailer.Warnings) == 0 {
		t.Fatal("sweep trailer for a single-SC federation carries no warnings")
	}
	if !strings.Contains(strings.Join(trailer.Warnings, "\n"), "indifference") {
		t.Fatalf("sweep warnings %q do not flag the indifference grid", trailer.Warnings)
	}

	// A healthy two-SC federation must stay warning-free on both paths.
	rec = postJSON(t, s, "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 0.5})
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy advise = %d: %s", rec.Code, rec.Body)
	}
	var healthy adviseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &healthy); err != nil {
		t.Fatal(err)
	}
	if len(healthy.Warnings) != 0 {
		t.Fatalf("healthy federation advise carries warnings %q", healthy.Warnings)
	}
}
