package serve

import "sync/atomic"

// counters are the service's expvar-style metrics. Every field is an
// atomic, so handlers update them without locks and /metrics reads a
// near-consistent snapshot (exact consistency across counters is not
// needed for monitoring).
type counters struct {
	// Per-endpoint request counts.
	advise, sweep, track, healthz, metricsReqs atomic.Int64
	// errors counts requests answered with an error (bad input, solve
	// failure, or timeout); canceled counts solves abandoned because the
	// client disconnected (or stopped reading a stream).
	errors, canceled atomic.Int64
	// inFlight is the number of solves currently running.
	inFlight atomic.Int64
	// Admission control: requests admitted into the solve pool, requests
	// shed with 429, and the cumulative time admitted requests spent
	// queued waiting for a slot.
	admitted, shed, queueWaitNs atomic.Int64
	// Cumulative solver work: game rounds, model evaluations, streamed
	// sweep points, and streamed track steps.
	solveRounds, solveEvals, sweepPoints, trackSteps atomic.Int64
	// dispatched counts sweeps fanned across the fleet instead of solved
	// locally (scserve -dispatch); their points still count in sweepPoints
	// and their game rounds in solveRounds, but not in evaluations — those
	// happen on the workers.
	dispatched atomic.Int64
}

// metricsSnapshot is the GET /metrics payload.
type metricsSnapshot struct {
	UptimeSeconds float64          `json:"uptimeSeconds"`
	Requests      requestCounts    `json:"requests"`
	Errors        int64            `json:"errors"`
	Canceled      int64            `json:"canceled"`
	InFlight      int64            `json:"inFlightSolves"`
	Admission     admissionReport  `json:"admission"`
	Solver        solverCounts     `json:"solver"`
	Cache         cacheStatsReport `json:"cache"`
	Pruning       pruningReport    `json:"pruning"`
}

type requestCounts struct {
	Advise  int64 `json:"advise"`
	Sweep   int64 `json:"sweep"`
	Track   int64 `json:"track"`
	Healthz int64 `json:"healthz"`
	Metrics int64 `json:"metrics"`
}

// admissionReport is the admission-control section of /metrics: the
// configured bound (0 = unbounded), how many solves were admitted or shed,
// the cumulative queue wait of admitted solves, and the latency EWMA
// currently pricing Retry-After.
type admissionReport struct {
	MaxInflight      int     `json:"maxInflight"`
	Admitted         int64   `json:"admitted"`
	Shed             int64   `json:"shed"`
	QueueWaitSeconds float64 `json:"queueWaitSeconds"`
	AvgSolveSeconds  float64 `json:"avgSolveSeconds"`
}

type solverCounts struct {
	Rounds      int64 `json:"rounds"`
	Evaluations int64 `json:"evaluations"`
	SweepPoints int64 `json:"sweepPoints"`
	TrackSteps  int64 `json:"trackSteps"`
	// DispatchedSweeps counts sweeps fanned across the fleet.
	DispatchedSweeps int64 `json:"dispatchedSweeps"`
}

// cacheStatsReport aggregates market.CacheStats across the cached
// frameworks. Every miss is one whole-vector model run.
type cacheStatsReport struct {
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	HitRatio   float64 `json:"hitRatio"`
	Frameworks int     `json:"frameworks"`
}

// pruningReport is the adaptive-truncation section of /metrics, aggregated
// across the live frameworks: how much summary probability mass the approx
// model's allocation diet (approx.Config.TruncEps) has discarded, the worst
// single summary, and how many summaries lost any mass. All zero under the
// non-approx models or with truncation disabled; a MaxSummaryMass anywhere
// near the configured budget's warning line (core.DiagnosePruning) also
// surfaces in advise/sweep response warnings.
type pruningReport struct {
	TruncatedMass   float64 `json:"truncatedMass"`
	MaxSummaryMass  float64 `json:"maxSummaryMass"`
	TruncatedJoints uint64  `json:"truncatedJoints"`
}

// snapshot collects all counters plus the cross-framework cache totals.
func (s *Server) snapshot(uptimeSeconds float64) metricsSnapshot {
	stats, n := s.cacheStats()
	prune := s.cache.PruneStats()
	return metricsSnapshot{
		UptimeSeconds: uptimeSeconds,
		Requests: requestCounts{
			Advise:  s.metrics.advise.Load(),
			Sweep:   s.metrics.sweep.Load(),
			Track:   s.metrics.track.Load(),
			Healthz: s.metrics.healthz.Load(),
			Metrics: s.metrics.metricsReqs.Load(),
		},
		Errors:   s.metrics.errors.Load(),
		Canceled: s.metrics.canceled.Load(),
		InFlight: s.metrics.inFlight.Load(),
		Admission: admissionReport{
			MaxInflight:      s.adm.capacity(),
			Admitted:         s.metrics.admitted.Load(),
			Shed:             s.metrics.shed.Load(),
			QueueWaitSeconds: float64(s.metrics.queueWaitNs.Load()) / 1e9,
			AvgSolveSeconds:  float64(s.adm.avgSolveNs.Load()) / 1e9,
		},
		Solver: solverCounts{
			Rounds:           s.metrics.solveRounds.Load(),
			Evaluations:      s.metrics.solveEvals.Load(),
			SweepPoints:      s.metrics.sweepPoints.Load(),
			TrackSteps:       s.metrics.trackSteps.Load(),
			DispatchedSweeps: s.metrics.dispatched.Load(),
		},
		Cache: cacheStatsReport{
			Hits:       stats.Hits,
			Misses:     stats.Misses,
			HitRatio:   stats.HitRatio(),
			Frameworks: n,
		},
		Pruning: pruningReport{
			TruncatedMass:   prune.TotalMass,
			MaxSummaryMass:  prune.MaxMass,
			TruncatedJoints: prune.Joints,
		},
	}
}
