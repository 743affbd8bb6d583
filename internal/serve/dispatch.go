package serve

import (
	"context"
	"encoding/json"

	"scshare/internal/core"
	"scshare/internal/fleet"
)

// toWF converts a float slice to the fleet's exact wire codec.
func toWF(vs []float64) []fleet.WF {
	out := make([]fleet.WF, len(vs))
	for i, v := range vs {
		out[i] = fleet.WF(v)
	}
	return out
}

// dispatchSweep is /v1/sweep's grid in dispatch mode: instead of solving
// on the local worker pool it submits the sweep to the scdispatch fleet and
// hands the merged points to the stream in grid order, so clients cannot
// tell the modes apart (except that points always solve cold; see
// sweepRequest.ColdStart). The request holds its admission slot for the
// whole fan-out: it is one continuous consumer of fleet capacity. If the
// client disconnects mid-stream the watch loop stops, but points the fleet
// already queued keep solving — leases simply drain; nothing waits on this
// request.
func (s *Server) dispatchSweep(req *sweepRequest, alphaVals []float64) (sweepRun, error) {
	s.metrics.dispatched.Add(1)
	// The normalized spec's canonical JSON is both the submission body and
	// every worker's framework-cache key.
	key, err := req.Key()
	if err != nil {
		return nil, err
	}
	sub := fleet.SubmitRequest{
		Spec:   json.RawMessage(key),
		Ratios: toWF(req.Ratios),
		Alphas: toWF(alphaVals),
	}
	return func(ctx context.Context, onPoint func(int, core.SweepPoint)) ([]core.SweepPoint, []string, error) {
		// RunSweep hands over every point once, in grid order.
		var pts []core.SweepPoint
		if _, err := s.dispatch.RunSweep(ctx, sub, func(wp fleet.WirePoint) {
			pt := wp.Point()
			pts = append(pts, pt)
			onPoint(wp.Index, pt)
		}); err != nil {
			return nil, nil, err
		}
		return pts, nil, nil
	}, nil
}
