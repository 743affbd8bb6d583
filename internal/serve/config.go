package serve

import (
	"scshare/internal/spec"
)

// The request-spec layer moved to internal/spec in PR 8 so the fleet
// dispatcher and workers validate and cache-key requests exactly like the
// front door does. The aliases keep this package's request types reading
// as before: a spec accepted here travels the fleet wire verbatim.
type (
	// scSpec is one SC in a request (cloud.SC with the CLI defaults).
	scSpec = spec.SC
	// approxSpec exposes the approximate model's cost/accuracy knobs.
	approxSpec = spec.Approx
	// federationSpec is the price-independent part of a request — the
	// framework-cache key; see spec.Federation.
	federationSpec = spec.Federation
)

// parseAlpha resolves a welfare-regime name or number.
func parseAlpha(s string) (float64, error) { return spec.ParseAlpha(s) }

// parseAlphas resolves the per-point welfare list of a sweep, defaulting
// to the paper's three regimes.
func parseAlphas(names []string) ([]float64, []string, error) { return spec.ParseAlphas(names) }

// adviseRequest is the body of POST /v1/advise.
type adviseRequest struct {
	federationSpec
	// Price is the federation VM price C^G.
	Price float64 `json:"price"`
	// Alpha selects the welfare used to pick among equilibria:
	// "utilitarian" (default), "proportional", "maxmin", or a number.
	Alpha string `json:"alpha,omitempty"`
	// Initial optionally seeds the negotiation's share vector.
	Initial []int `json:"initial,omitempty"`
	// DeadlineMs optionally shortens the server's solve timeout for this
	// request (milliseconds); it can never extend it.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}

// sweepRequest is the body of POST /v1/sweep.
type sweepRequest struct {
	federationSpec
	// Ratios is the swept C^G/C^P grid (against the minimum public price).
	Ratios []float64 `json:"ratios"`
	// Alphas are the welfare regimes scored per point (default all three:
	// utilitarian, proportional, maxmin).
	Alphas []string `json:"alphas,omitempty"`
	// Workers bounds grid-level parallelism (0 = GOMAXPROCS, 1 = serial);
	// negative values are rejected and values above GOMAXPROCS are capped
	// at it. In dispatch mode (scserve -dispatch) the fleet schedules
	// points itself and this field is ignored after validation.
	Workers int `json:"workers,omitempty"`
	// ColdStart disables warm-starting each point from its grid neighbor.
	// Fleet-dispatched sweeps always solve points cold (grid points are
	// independent jobs), so in dispatch mode this field is ignored too.
	ColdStart bool `json:"coldStart,omitempty"`
	// DeadlineMs optionally shortens the server's solve timeout for this
	// request (milliseconds); it can never extend it.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}
