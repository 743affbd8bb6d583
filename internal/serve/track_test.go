package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// trackStream parses a /v1/track NDJSON body into its step lines and
// trailer.
func trackStream(t *testing.T, body []byte) ([]trackLine, trackTrailer) {
	t.Helper()
	var lines []trackLine
	var trailer trackTrailer
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"done"`)) || bytes.Contains(sc.Bytes(), []byte(`"error"`)) {
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var ln trackLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad track line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ln)
	}
	return lines, trailer
}

// trackRounds sums the re-equilibration rounds of every step after the
// first — the steps the warm chaining can help.
func trackRounds(lines []trackLine) int {
	total := 0
	for _, ln := range lines[1:] {
		total += ln.Rounds
	}
	return total
}

// TestTrackFollowsSchedule: /v1/track must stream one line per schedule
// price, warm-started off the previous equilibrium, plus a done trailer —
// and following warm must cost strictly fewer game rounds than re-solving
// every step cold.
func TestTrackFollowsSchedule(t *testing.T) {
	prices := []float64{0.3, 0.35, 0.4, 0.45}
	s := New(Options{})
	rec := postJSON(t, s, "/v1/track", trackRequest{federationSpec: testSpec(), Prices: prices})
	if rec.Code != http.StatusOK {
		t.Fatalf("track = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines, trailer := trackStream(t, rec.Body.Bytes())
	if !trailer.Done || trailer.Error != "" || trailer.Steps != len(prices) {
		t.Fatalf("trailer = %+v", trailer)
	}
	if len(lines) != len(prices) {
		t.Fatalf("streamed %d lines for %d prices", len(lines), len(prices))
	}
	for i, ln := range lines {
		if ln.Step != i || ln.Total != len(prices) || ln.Price != prices[i] {
			t.Fatalf("line %d: step/total/price = %d/%d/%v", i, ln.Step, ln.Total, ln.Price)
		}
		if !ln.Converged || len(ln.SCs) != 2 {
			t.Fatalf("line %d did not converge cleanly: %+v", i, ln)
		}
		if wantWarm := i > 0; ln.Warm != wantWarm {
			t.Fatalf("line %d warm = %v, want %v", i, ln.Warm, wantWarm)
		}
	}

	// The same schedule solved cold at every step must pay strictly more
	// game rounds past the first step — the warm chaining is the point of
	// the endpoint, so it is pinned, not assumed.
	cold := postJSON(t, s, "/v1/track", trackRequest{federationSpec: testSpec(), Prices: prices, ColdStart: true})
	if cold.Code != http.StatusOK {
		t.Fatalf("cold track = %d: %s", cold.Code, cold.Body)
	}
	coldLines, coldTrailer := trackStream(t, cold.Body.Bytes())
	if !coldTrailer.Done || len(coldLines) != len(prices) {
		t.Fatalf("cold trailer/lines = %+v / %d", coldTrailer, len(coldLines))
	}
	for i, ln := range coldLines {
		if ln.Warm {
			t.Fatalf("cold line %d claims warm", i)
		}
	}
	warmRounds, coldRounds := trackRounds(lines), trackRounds(coldLines)
	if warmRounds >= coldRounds {
		t.Fatalf("warm chaining saved nothing: %d warm rounds vs %d cold", warmRounds, coldRounds)
	}

	// Both schedules end at the same equilibria: chaining changes the path,
	// never the destination.
	for i := range lines {
		for j := range lines[i].SCs {
			if lines[i].SCs[j].Share != coldLines[i].SCs[j].Share {
				t.Fatalf("step %d SC %d: warm share %d != cold share %d",
					i, j, lines[i].SCs[j].Share, coldLines[i].SCs[j].Share)
			}
		}
	}

	if steps := s.metrics.trackSteps.Load(); steps != int64(2*len(prices)) {
		t.Fatalf("trackSteps counter = %d, want %d", steps, 2*len(prices))
	}
}

// TestTrackSSE: an Accept: text/event-stream client gets the same stream
// framed as SSE data events.
func TestTrackSSE(t *testing.T) {
	s := New(Options{})
	body, err := json.Marshal(trackRequest{federationSpec: testSpec(), Prices: []float64{0.3, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/track", bytes.NewReader(body))
	req.Header.Set("Accept", "text/event-stream")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("track = %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := 0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			events++
			var payload map[string]any
			if err := json.Unmarshal([]byte(data), &payload); err != nil {
				t.Fatalf("SSE event %q not JSON: %v", data, err)
			}
		}
	}
	if events != 3 { // 2 steps + trailer
		t.Fatalf("streamed %d SSE events, want 3", events)
	}
}

// TestTrackValidation: the schedule-specific 400s, on top of the spec
// validation shared with the other endpoints.
func TestTrackValidation(t *testing.T) {
	s := New(Options{})
	bad := []struct {
		name  string
		req   trackRequest
		names string // a field the error must name, if set
	}{
		{"no prices", trackRequest{federationSpec: testSpec()}, ""},
		{"negative price", trackRequest{federationSpec: testSpec(), Prices: []float64{0.3, -1}}, ""},
		{"negative interval", trackRequest{federationSpec: testSpec(), Prices: []float64{0.3}, IntervalMs: -5}, "intervalMs"},
		// Its nanoseconds overflow int64, which would wrap to no pacing.
		{"overflowing interval", trackRequest{federationSpec: testSpec(), Prices: []float64{0.3}, IntervalMs: math.MaxInt64}, "intervalMs"},
		{"negative deadline", trackRequest{federationSpec: testSpec(), Prices: []float64{0.3}, DeadlineMs: -1}, "deadlineMs"},
		{"bad alpha", trackRequest{federationSpec: testSpec(), Prices: []float64{0.3}, Alpha: "bogus"}, ""},
	}
	for _, tc := range bad {
		rec := postJSON(t, s, "/v1/track", tc.req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, rec.Code, rec.Body)
		} else if !strings.Contains(rec.Body.String(), tc.names) {
			t.Errorf("%s: error %s does not name %s", tc.name, rec.Body, tc.names)
		}
	}
	// An inverted price mid-schedule fails the solve, not validation: the
	// stream has started, so the error arrives as a trailer.
	rec := postJSON(t, s, "/v1/track", trackRequest{federationSpec: testSpec(), Prices: []float64{0.5, 2}})
	if rec.Code != http.StatusOK {
		t.Fatalf("mid-stream failure status = %d, want 200 + error trailer", rec.Code)
	}
	lines, trailer := trackStream(t, rec.Body.Bytes())
	if len(lines) != 1 || trailer.Done || trailer.Error == "" {
		t.Fatalf("mid-stream failure: %d lines, trailer %+v", len(lines), trailer)
	}
}
