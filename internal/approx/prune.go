package approx

import "sync"

// PruneCounter accumulates the probability mass discarded by the adaptive
// summary truncation (Config.TruncEps) so the approximation error the diet
// introduces stays observable instead of silent. Share one counter across
// any number of solvers via Config.PruneStats; it is safe for concurrent
// use. The zero value is ready.
type PruneCounter struct {
	mu     sync.Mutex
	total  float64
	max    float64
	joints uint64
}

// recordAll accounts truncated summaries in the given order, under one
// lock: the total is a float sum, so the order fixes its bits. A nil
// receiver and non-positive masses are no-ops, so nothing is paid when
// truncation is disabled or idle.
func (p *PruneCounter) recordAll(masses []float64) {
	if p == nil || len(masses) == 0 {
		return
	}
	p.mu.Lock()
	for _, mass := range masses {
		if mass <= 0 {
			continue
		}
		p.total += mass
		if mass > p.max {
			p.max = mass
		}
		p.joints++
	}
	p.mu.Unlock()
}

// PruneStats is a snapshot of a PruneCounter.
type PruneStats struct {
	// TotalMass is the summed probability mass truncated across all
	// summarized joints since the counter was created.
	TotalMass float64
	// MaxMass is the largest mass truncated from any single summary — the
	// per-distribution worst case, directly comparable to TruncEps.
	MaxMass float64
	// Joints counts the summaries that lost any mass.
	Joints uint64
}

// Stats returns a snapshot of the counter. A nil counter reports zeros.
func (p *PruneCounter) Stats() PruneStats {
	if p == nil {
		return PruneStats{}
	}
	p.mu.Lock()
	s := PruneStats{TotalMass: p.total, MaxMass: p.max, Joints: p.joints}
	p.mu.Unlock()
	return s
}
