package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestNormalizeRejectsNonFinite: JSON cannot carry NaN or ±Inf, so these
// guards cannot be reached over the wire — they are defense in depth for
// in-process callers, pinned by calling normalize directly. Every case
// would previously slide through the <= 0 default checks (NaN fails every
// one-sided comparison) and reach the solvers.
func TestNormalizeRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*federationSpec)
		want string
	}{
		{"NaN arrivalRate", func(sp *federationSpec) { sp.SCs[0].ArrivalRate = math.NaN() }, "arrivalRate"},
		{"Inf arrivalRate", func(sp *federationSpec) { sp.SCs[0].ArrivalRate = math.Inf(1) }, "arrivalRate"},
		{"NaN serviceRate", func(sp *federationSpec) { sp.SCs[1].ServiceRate = math.NaN() }, "serviceRate"},
		{"Inf serviceRate", func(sp *federationSpec) { sp.SCs[1].ServiceRate = math.Inf(-1) }, "serviceRate"},
		{"NaN sla", func(sp *federationSpec) { sp.SCs[0].SLA = math.NaN() }, "sla"},
		{"NaN publicPrice", func(sp *federationSpec) { sp.SCs[0].PublicPrice = math.NaN() }, "publicPrice"},
		{"Inf publicPrice", func(sp *federationSpec) { sp.SCs[0].PublicPrice = math.Inf(1) }, "publicPrice"},
		{"NaN gamma", func(sp *federationSpec) { sp.Gamma = math.NaN() }, "gamma"},
		{"negative gamma", func(sp *federationSpec) { sp.Gamma = -0.1 }, "gamma"},
		{"gamma above one", func(sp *federationSpec) { sp.Gamma = 1.5 }, "gamma"},
		{"Inf simHorizon", func(sp *federationSpec) { sp.SimHorizon = math.Inf(1) }, "simHorizon"},
		{"NaN prune", func(sp *federationSpec) { sp.Approx = &approxSpec{Prune: math.NaN()} }, "prune"},
	}
	for _, tc := range cases {
		sp := testSpec()
		tc.mod(&sp)
		err := sp.Normalize()
		if err == nil {
			t.Errorf("%s: normalize accepted the spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}

	// The boundary values stay legal: gamma 0 and 1 are UF0 and UF1.
	for _, gamma := range []float64{0, 1} {
		sp := testSpec()
		sp.Gamma = gamma
		if err := sp.Normalize(); err != nil {
			t.Errorf("gamma %v rejected: %v", gamma, err)
		}
	}
}

// TestValidPrice pins the advise/track price guard, including the
// non-finite values only an in-process caller can construct.
func TestValidPrice(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.01} {
		if validPrice(bad) == nil {
			t.Errorf("validPrice(%v) accepted", bad)
		}
	}
	for _, good := range []float64{0, 0.5, 1} {
		if err := validPrice(good); err != nil {
			t.Errorf("validPrice(%v) = %v", good, err)
		}
	}
}

// TestRequestValidation400s: the over-the-wire rejections added with the
// hardening pass, across all three solving endpoints.
func TestRequestValidation400s(t *testing.T) {
	s := New(Options{})
	cases := []struct {
		name, path string
		body       any
		// want, when set, must appear in the error body.
		want string
	}{
		{"negative advise price", "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: -1}, ""},
		{"negative advise deadline", "/v1/advise", adviseRequest{federationSpec: testSpec(), Price: 0.5, DeadlineMs: -1}, ""},
		{"negative sweep ratio", "/v1/sweep", sweepRequest{federationSpec: testSpec(), Ratios: []float64{0.5, -2}}, ""},
		{"negative sweep deadline", "/v1/sweep", sweepRequest{federationSpec: testSpec(), Ratios: []float64{0.5}, DeadlineMs: -9}, ""},
		{"negative sweep workers", "/v1/sweep", sweepRequest{federationSpec: testSpec(), Ratios: []float64{0.5}, Workers: -1}, "workers"},
		{"negative track price", "/v1/track", trackRequest{federationSpec: testSpec(), Prices: []float64{-0.5}}, ""},
	}
	for _, tc := range cases {
		rec := postJSON(t, s, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, rec.Code, rec.Body)
		} else if !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: error %s does not name %q", tc.name, rec.Body, tc.want)
		}
	}
	// The wire-level non-finite guard: JSON itself rejects 1e999, so a
	// client cannot smuggle Inf past the decoder either.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"scs": [{"vms": 10, "arrivalRate": 5.8}], "ratios": [1e999]}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("1e999 ratio: status = %d, want 400", rec.Code)
	}
}

// TestSweepWorkersCap pins the sweep worker cap: 0 and anything above
// GOMAXPROCS resolve to GOMAXPROCS, smaller counts stay as asked. Only the
// resolution is exercised here; no sweep is started with a huge count.
func TestSweepWorkersCap(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{0, procs},
		{1, 1},
		{procs, procs},
		{procs + 1, procs},
		{1 << 30, procs},
	} {
		if got := sweepWorkers(tc.in); got != tc.want {
			t.Errorf("sweepWorkers(%d) = %d, want %d (GOMAXPROCS %d)", tc.in, got, tc.want, procs)
		}
	}
}

// deadWriter is a ResponseWriter whose connection is gone: every write
// fails. It stands in for a sweep client that disconnected mid-stream.
type deadWriter struct {
	header http.Header
}

func (d *deadWriter) Header() http.Header {
	if d.header == nil {
		d.header = make(http.Header)
	}
	return d.header
}
func (d *deadWriter) WriteHeader(int) {}
func (d *deadWriter) Write(p []byte) (int, error) {
	return 0, errors.New("broken pipe")
}

// TestSweepStopsOnWriteError: once a line fails to reach the client, the
// sweep must stop solving the rest of the grid instead of burning CPU
// streaming into a dead connection — and the unwind must count a cancel,
// not an error, and must not wedge the inFlight gauge. In dispatch mode the
// failed write stops the fleet watch loop.
func TestSweepStopsOnWriteError(t *testing.T) {
	url, stop := startFleet(t, 1)
	defer stop()
	// One worker and a long grid: the fleet cannot have merged every point
	// by the time the first line fails.
	long := make([]float64, 40)
	for i := range long {
		long[i] = float64(i+1) / 80
	}
	for _, tc := range []struct {
		name   string
		opts   Options
		ratios []float64
	}{
		{"local", Options{}, []float64{0.1, 0.2, 0.3, 0.4, 0.5}},
		{"dispatch", Options{DispatchURL: url}, long},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.opts)
			body, err := json.Marshal(sweepRequest{
				federationSpec: testSpec(),
				Ratios:         tc.ratios,
				Workers:        1,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.ServeHTTP(&deadWriter{}, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
			if canceled := s.metrics.canceled.Load(); canceled != 1 {
				t.Fatalf("canceled counter = %d, want 1", canceled)
			}
			if errs := s.metrics.errors.Load(); errs != 0 {
				t.Fatalf("errors counter = %d, want 0", errs)
			}
			if pts := s.metrics.sweepPoints.Load(); pts >= int64(len(tc.ratios)) {
				t.Fatalf("sweep solved all %d points for a dead client", pts)
			}
			if inflight := s.InFlight(); inflight != 0 {
				t.Fatalf("inFlight gauge wedged at %d", inflight)
			}
		})
	}
}
