package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"scshare/internal/core"
)

// relTol is the relative tolerance on every float output (utilities,
// costs, welfare, efficiency). Exact equality is wrong here: two serial
// cold approx sweeps of one grid already differ in Efficiency by about
// 2e-9 relative, because approx warm-cache seeds depend on which parallel
// best response solves first. Shares, rounds and convergence must match
// exactly.
const relTol = 1e-6

// withinTol reports whether a and b agree within relTol, relative to the
// larger magnitude. Non-finite values (a dead market's −Inf welfare, or a
// null on the wire read back as NaN) must match in kind.
func withinTol(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// slicesWithinTol compares two float slices element by element.
func slicesWithinTol(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !withinTol(a[i], b[i]) {
			return false
		}
	}
	return true
}

// pointMismatch compares one sweep point with its reference and describes
// the first difference, or returns "".
func pointMismatch(got, want core.SweepPoint) string {
	switch {
	case !withinTol(got.Ratio, want.Ratio) || !withinTol(got.Price, want.Price):
		return fmt.Sprintf("ratio/price %v/%v, want %v/%v", got.Ratio, got.Price, want.Ratio, want.Price)
	case !slices.Equal(got.Shares, want.Shares):
		return fmt.Sprintf("shares %v, want %v", got.Shares, want.Shares)
	case got.Rounds != want.Rounds:
		return fmt.Sprintf("rounds %d, want %d", got.Rounds, want.Rounds)
	case got.Converged != want.Converged:
		return fmt.Sprintf("converged %v, want %v", got.Converged, want.Converged)
	case !slicesWithinTol(got.Utilities, want.Utilities):
		return fmt.Sprintf("utilities %v, want %v", got.Utilities, want.Utilities)
	case !slicesWithinTol(got.Welfare, want.Welfare):
		return fmt.Sprintf("welfare %v, want %v", got.Welfare, want.Welfare)
	case !slicesWithinTol(got.Efficiency, want.Efficiency):
		return fmt.Sprintf("efficiency %v, want %v", got.Efficiency, want.Efficiency)
	}
	return ""
}

// sweepMismatch compares a whole sweep with its reference.
func sweepMismatch(got, want []core.SweepPoint) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d points, want %d", len(got), len(want))
	}
	for i := range got {
		if d := pointMismatch(got[i], want[i]); d != "" {
			return fmt.Sprintf("point %d: %s", i, d)
		}
	}
	return ""
}

// adviceBody is the part of a /v1/advise response the check reads. A
// null utility (a dead market's −Inf) decodes to nil.
type adviceBody struct {
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`
	SCs       []struct {
		Share      int      `json:"share"`
		CostPerSec float64  `json:"costPerSec"`
		Utility    *float64 `json:"utility"`
	} `json:"scs"`
}

// adviceMismatch compares a served advice body with the in-process
// reference advice at the same price.
func adviceMismatch(body []byte, want *core.Advice) string {
	var got adviceBody
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Sprintf("undecodable body: %v", err)
	}
	switch {
	case got.Rounds != want.Rounds:
		return fmt.Sprintf("rounds %d, want %d", got.Rounds, want.Rounds)
	case got.Converged != want.Converged:
		return fmt.Sprintf("converged %v, want %v", got.Converged, want.Converged)
	case len(got.SCs) != len(want.SCs):
		return fmt.Sprintf("%d SCs, want %d", len(got.SCs), len(want.SCs))
	}
	for i, sc := range got.SCs {
		w := want.SCs[i]
		u := math.NaN()
		if sc.Utility != nil {
			u = *sc.Utility
		}
		wu := w.Utility
		if math.IsInf(wu, 0) {
			wu = math.NaN() // served as null
		}
		switch {
		case sc.Share != w.Share:
			return fmt.Sprintf("SC %d share %d, want %d", i, sc.Share, w.Share)
		case !withinTol(u, wu):
			return fmt.Sprintf("SC %d utility %v, want %v", i, u, wu)
		case !withinTol(sc.CostPerSec, w.CostPerSec):
			return fmt.Sprintf("SC %d cost %v, want %v", i, sc.CostPerSec, w.CostPerSec)
		}
	}
	return ""
}
