// Package serve implements scserve, the long-running federation advice
// service: the deployment setting of Sect. VII's Tatonnement discussion and
// of the dynamic-market follow-up work, where SC operators re-query for
// sharing advice as prices and demand drift instead of regenerating batch
// figures. It wraps the core.Framework equilibrium search behind a
// stdlib-only net/http JSON API — POST /v1/advise (one equilibrium solve),
// POST /v1/sweep (the Fig. 7-style price-grid sweep, streamed as NDJSON),
// POST /v1/track (a streamed price-following session: each step of a
// drifting price schedule re-equilibrates warm off the previous step's
// equilibrium), GET /healthz, and GET /metrics (expvar-style counters) —
// and keeps one framework per distinct federation configuration alive
// across requests (the spec-keyed spec.Cache), so repeated queries at
// drifting prices are answered from the memoized evaluation cache and the
// approximate model's warm-start caches instead of from cold solves.
// Production hardening rides on top: an admission layer bounds concurrent
// solves (excess load is shed with 429 + Retry-After priced from observed
// solve latency), requests may shorten the server's solve timeout per call
// (deadlineMs), and the warm cache spine can be snapshotted on drain and
// restored on boot so a restarted replica starts hot. Every solve is
// request-scoped: the request context is threaded through the game loop,
// so client disconnects and the configured solve timeout cancel in-flight
// worker-pool rounds and sweep points. With Options.DispatchURL set
// (scserve -dispatch), /v1/sweep fans the grid across a scdispatch fleet
// instead of the local worker pool — same admission layer, same stream
// format, solves on scworkd workers (DESIGN.md §15).
package serve

import (
	"net/http"
	"time"

	"scshare/internal/core"
	"scshare/internal/fleet"
	"scshare/internal/market"
	"scshare/internal/spec"
)

// Options configures a Server.
type Options struct {
	// SolveTimeout caps the solving time of one request (advise: the whole
	// negotiation; sweep: the whole grid; track: the whole schedule). 0
	// means no cap: the request is bounded only by the client's patience,
	// since its disconnect cancels the solve. A request's deadlineMs may
	// shorten — never extend — this cap.
	SolveTimeout time.Duration
	// MaxFrameworks bounds the framework cache (default 32); the oldest
	// configuration is evicted first.
	MaxFrameworks int
	// MaxInflight bounds how many solves (advise, sweep, and track
	// combined) run concurrently; excess requests are shed with 429 and a
	// Retry-After priced from observed solve latency. 0 means unbounded.
	// In dispatch mode a fanned-out sweep still holds one slot for its
	// whole duration — it is one continuous consumer of fleet capacity.
	MaxInflight int
	// QueueWait bounds how long a request may wait for a solve slot before
	// being shed (only meaningful with MaxInflight > 0); 0 sheds
	// immediately when the server is full.
	QueueWait time.Duration
	// DispatchURL, when non-empty, is the base URL of a scdispatch
	// coordinator; /v1/sweep requests are then fanned across the fleet
	// instead of solved in-process. Advise and track stay local — they are
	// single warm-chained negotiations, not grids.
	DispatchURL string
}

// Server is the advice service. Create it with New; it implements
// http.Handler and is safe for concurrent use. Frameworks are shared
// across requests through a spec.Cache — see that type for the exact
// sharing contract and why it is sound.
type Server struct {
	solveTimeout time.Duration
	start        time.Time
	mux          *http.ServeMux
	metrics      counters
	adm          *admission
	cache        *spec.Cache
	// dispatch is non-nil in dispatch mode: the client half of the fleet
	// wire protocol, pointed at Options.DispatchURL.
	dispatch *fleet.Client
}

// New builds a Server with its routes registered.
func New(opts Options) *Server {
	s := &Server{
		solveTimeout: opts.SolveTimeout,
		start:        time.Now(),
		cache:        spec.NewCache(opts.MaxFrameworks),
		adm:          newAdmission(opts.MaxInflight, opts.QueueWait),
	}
	if opts.DispatchURL != "" {
		s.dispatch = fleet.NewClient(opts.DispatchURL, nil)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/advise", s.handleAdvise)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/track", s.handleTrack)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// InFlight reports the number of solves currently running — exported for
// the disconnect tests, which poll it to prove a canceled request's solve
// actually unwound.
func (s *Server) InFlight() int64 { return s.metrics.inFlight.Load() }

// framework returns the cached framework for the spec, building and
// registering one on first use. The spec must already be normalized.
func (s *Server) framework(sp *federationSpec) (*core.Framework, error) {
	return s.cache.Framework(sp)
}

// cacheStats sums the evaluation-cache statistics over every live
// framework, together with the cache count.
func (s *Server) cacheStats() (market.CacheStats, int) {
	return s.cache.Stats()
}
