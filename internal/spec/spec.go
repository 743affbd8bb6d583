// Package spec is the shared request-spec layer of the serving and fleet
// subsystems: the JSON federation specification (the price-independent
// description of a federation, its performance model, and its game tuning),
// its normalization and validation rules, and the canonical-key derivation
// that makes a normalized spec double as a cache key. Both the scserve
// front door (internal/serve) and the sweep-fleet dispatcher and workers
// (internal/fleet) speak this one spec dialect, so a request body accepted
// by scserve can travel the fleet wire protocol verbatim and a worker's
// framework cache keys match the front door's. The package also hosts the
// spec-keyed framework Cache and the versioned snapshot envelope of solved
// vectors (DESIGN.md §14, §15) the two layers share.
package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"scshare/internal/approx"
	"scshare/internal/cloud"
	"scshare/internal/core"
	"scshare/internal/market"
)

// SC is one SC in a request, mirroring cloud.SC with the same defaults
// the CLI specs use (service rate 1/s, SLA 0.2 s, public price 1).
type SC struct {
	Name        string  `json:"name,omitempty"`
	VMs         int     `json:"vms"`
	ArrivalRate float64 `json:"arrivalRate"`
	ServiceRate float64 `json:"serviceRate,omitempty"`
	SLA         float64 `json:"sla,omitempty"`
	PublicPrice float64 `json:"publicPrice,omitempty"`
}

// Approx exposes the approximate model's cost/accuracy knobs, each the
// approx.Config field of the same name. TruncEps tunes the adaptive
// summary truncation (0 = the model's default budget, negative disables
// it).
type Approx struct {
	Passes   int     `json:"passes,omitempty"`
	Prune    float64 `json:"prune,omitempty"`
	PoolCap  int     `json:"poolCap,omitempty"`
	TruncEps float64 `json:"truncEps,omitempty"`
}

// Federation is the price-independent part of a request: everything that
// determines the performance metrics and the game, but not the federation
// price. It doubles as the framework-cache key (see Key), which is what
// makes cross-request — and cross-process — cache reuse sound: two
// requests with equal specs share solves no matter their prices, whether
// they meet in one scserve process or on two fleet workers.
type Federation struct {
	SCs []SC `json:"scs"`
	// Model is approx (default), exact, sim, or fluid.
	Model string `json:"model,omitempty"`
	// Gamma is the Eq. (2) utility exponent (0 = UF0 … 1 = UF1).
	Gamma float64 `json:"gamma,omitempty"`
	// MaxShare caps each SC's strategy space (default: all its VMs).
	MaxShare int `json:"maxShare,omitempty"`
	// Tabu and MaxRounds tune the repeated game.
	Tabu      int `json:"tabu,omitempty"`
	MaxRounds int `json:"maxRounds,omitempty"`
	// Approx tunes the approximate model; SimHorizon/SimSeed the simulator.
	Approx     *Approx `json:"approx,omitempty"`
	SimHorizon float64 `json:"simHorizon,omitempty"`
	SimSeed    int64   `json:"simSeed,omitempty"`
}

// finite reports whether v is an ordinary number — the guard the spec
// validation uses before any default or range check, because NaN slides
// through every one-sided comparison (NaN <= 0 is false) and would
// otherwise flow into the solvers.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Normalize applies defaults, validates everything that can be checked
// without solving, and folds every setting equivalent to its zero value to
// that value (see foldDefaults). It must run before Key, Config, or
// FederationAt.
func (sp *Federation) Normalize() error {
	if len(sp.SCs) == 0 {
		return fmt.Errorf("request needs at least one SC")
	}
	for i := range sp.SCs {
		sc := &sp.SCs[i]
		if sc.Name == "" {
			sc.Name = "sc" + strconv.Itoa(i)
		}
		// Finiteness comes before the <= 0 default checks: a NaN rate
		// fails both `<= 0` (so it is not defaulted) and every later
		// validation comparison, so without this it would reach the
		// solvers untouched.
		if !finite(sc.ArrivalRate) {
			return fmt.Errorf("SC %d (%s): arrivalRate %v is not a finite number", i, sc.Name, sc.ArrivalRate)
		}
		if !finite(sc.ServiceRate) {
			return fmt.Errorf("SC %d (%s): serviceRate %v is not a finite number", i, sc.Name, sc.ServiceRate)
		}
		if !finite(sc.SLA) {
			return fmt.Errorf("SC %d (%s): sla %v is not a finite number", i, sc.Name, sc.SLA)
		}
		if !finite(sc.PublicPrice) {
			return fmt.Errorf("SC %d (%s): publicPrice %v is not a finite number", i, sc.Name, sc.PublicPrice)
		}
		if sc.ServiceRate <= 0 {
			sc.ServiceRate = 1
		}
		if sc.SLA <= 0 {
			sc.SLA = 0.2
		}
		if sc.PublicPrice <= 0 {
			sc.PublicPrice = 1
		}
	}
	// Gamma is Eq. (2)'s exponent: it must be a real number in [0, 1].
	// The negated-range form also rejects NaN.
	if !(sp.Gamma >= 0 && sp.Gamma <= 1) {
		return fmt.Errorf("bad gamma %v: want a finite exponent in [0, 1]", sp.Gamma)
	}
	if !finite(sp.SimHorizon) {
		return fmt.Errorf("bad simHorizon %v: want a finite horizon", sp.SimHorizon)
	}
	if sp.Approx != nil && !finite(sp.Approx.Prune) {
		return fmt.Errorf("bad approx.prune %v: want a finite threshold", sp.Approx.Prune)
	}
	if sp.Approx != nil && !finite(sp.Approx.TruncEps) {
		return fmt.Errorf("bad approx.truncEps %v: want a finite budget (negative disables)", sp.Approx.TruncEps)
	}
	for _, c := range []struct {
		name, want string
		v          int
	}{
		{"maxShare", "a share cap >= 0 (0 = every VM)", sp.MaxShare},
		{"tabu", "a search distance >= 0 (0 = the default)", sp.Tabu},
		{"maxRounds", "a round budget >= 0 (0 = the default)", sp.MaxRounds},
	} {
		if c.v < 0 {
			return fmt.Errorf("bad %s %d: want %s", c.name, c.v, c.want)
		}
	}
	if sp.Approx != nil && sp.Approx.Passes < 0 {
		return fmt.Errorf("bad approx.passes %d: want a pass count >= 0 (0 = the default)", sp.Approx.Passes)
	}
	if sp.Model == "" {
		sp.Model = "approx"
	}
	if _, err := market.ParseKind(sp.Model); err != nil {
		return err
	}
	// Price-independent validation: run the cloud checks at price 0 so a
	// bad federation fails the request with 400 instead of a solve error.
	if err := sp.FederationAt(0).Validate(); err != nil {
		return err
	}
	sp.foldDefaults()
	return nil
}

// foldDefaults rewrites every setting that configures what its zero value
// configures to that zero value, so equivalent specs get one Key: a game or
// model knob equal to its default, a maxShare that caps no SC below its
// VMs, and an approx block left with nothing set. Negative approx settings
// fold too: a negative prune means the default, so it folds to 0; every
// negative truncEps disables truncation and every negative poolCap models
// the full pool, so each folds to -1.
func (sp *Federation) foldDefaults() {
	if sp.Tabu == market.DefaultTabuDistance {
		sp.Tabu = 0
	}
	if sp.MaxRounds == market.DefaultMaxRounds {
		sp.MaxRounds = 0
	}
	if sp.MaxShare > 0 && !slices.ContainsFunc(sp.SCs, func(sc SC) bool { return sp.MaxShare < sc.VMs }) {
		sp.MaxShare = 0
	}
	if sp.Approx == nil {
		return
	}
	// A copy: the caller's block may be shared with other specs.
	a := *sp.Approx
	if a.Passes == approx.DefaultPasses {
		a.Passes = 0
	}
	if a.Prune < 0 || a.Prune == approx.DefaultPrune {
		a.Prune = 0
	}
	if a.TruncEps == approx.DefaultTruncEps {
		a.TruncEps = 0
	} else if a.TruncEps < 0 {
		a.TruncEps = -1
	}
	if a.PoolCap < 0 {
		a.PoolCap = -1
	}
	sp.Approx = nil
	if a != (Approx{}) {
		sp.Approx = &a
	}
}

// FederationAt materializes the cloud federation at the given price.
func (sp *Federation) FederationAt(price float64) cloud.Federation {
	fed := cloud.Federation{FederationPrice: price}
	for _, sc := range sp.SCs {
		fed.SCs = append(fed.SCs, cloud.SC{
			Name:        sc.Name,
			VMs:         sc.VMs,
			ArrivalRate: sc.ArrivalRate,
			ServiceRate: sc.ServiceRate,
			SLA:         sc.SLA,
			PublicPrice: sc.PublicPrice,
		})
	}
	return fed
}

// Config builds the core configuration backing this spec's framework. The
// federation price is left at 0 — every solve supplies its own price
// through AdviseAt or the sweep grid.
func (sp *Federation) Config() core.Config {
	cfg := core.Config{
		Federation:   sp.FederationAt(0),
		Gamma:        sp.Gamma,
		TabuDistance: sp.Tabu,
		MaxRounds:    sp.MaxRounds,
		SimHorizon:   sp.SimHorizon,
		SimSeed:      sp.SimSeed,
	}
	// Normalize already validated the model name, so ParseKind cannot fail
	// here; on the impossible miss the zero Kind falls back to core.New's
	// ModelApprox default.
	cfg.Model, _ = market.ParseKind(sp.Model)
	if sp.Approx != nil {
		cfg.Approx = approx.Config{
			Passes:   sp.Approx.Passes,
			Prune:    sp.Approx.Prune,
			PoolCap:  sp.Approx.PoolCap,
			TruncEps: sp.Approx.TruncEps,
		}
	}
	if sp.MaxShare > 0 {
		cfg.MaxShares = make([]int, len(sp.SCs))
		for i := range cfg.MaxShares {
			cfg.MaxShares[i] = min(sp.MaxShare, sp.SCs[i].VMs)
		}
	}
	return cfg
}

// Key canonicalizes the normalized spec for the framework cache. JSON of
// the normalized struct is deterministic (fixed field order, defaults
// applied, settings equivalent to their zero value folded to it), so equal
// configurations — and only those — share a framework.
func (sp *Federation) Key() (string, error) {
	b, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// ParseAlpha resolves a welfare-regime name or number. Surrounding
// whitespace is ignored and names match case-insensitively.
func ParseAlpha(s string) (float64, error) {
	t := strings.TrimSpace(s)
	switch strings.ToLower(t) {
	case "", "utilitarian":
		return market.AlphaUtilitarian, nil
	case "proportional":
		return market.AlphaProportional, nil
	case "maxmin", "max-min":
		return market.AlphaMaxMin, nil
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil || math.IsNaN(v) || v < 0 {
		return 0, fmt.Errorf("bad alpha %q: want utilitarian, proportional, maxmin, or a number >= 0", s)
	}
	return v, nil
}

// ParseAlphas resolves the per-point welfare list of a sweep, defaulting
// to the paper's three regimes.
func ParseAlphas(names []string) ([]float64, []string, error) {
	if len(names) == 0 {
		return []float64{market.AlphaUtilitarian, market.AlphaProportional, market.AlphaMaxMin},
			[]string{"utilitarian", "proportional", "maxmin"}, nil
	}
	vals := make([]float64, len(names))
	for i, n := range names {
		v, err := ParseAlpha(n)
		if err != nil {
			return nil, nil, err
		}
		vals[i] = v
	}
	return vals, names, nil
}
