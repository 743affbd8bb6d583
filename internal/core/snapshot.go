package core

import (
	"fmt"

	"scshare/internal/market"
)

// SnapshotVersion is the schema version of Snapshot; Restore rejects any
// other version, as does the nested market import for its own.
const SnapshotVersion = 1

// Snapshot is the serializable state of one framework: the memoized
// evaluation cache, every solved share vector's metrics. Metrics do not
// depend on price, so they are the state a long-running advice service
// accretes across requests; exporting them on drain and importing them on
// boot is what lets a restarted replica answer its first queries hot
// (DESIGN.md §14). The approximate model's warm-start priors stay in the
// process that solved them: a snapshot carries results, not solve history.
type Snapshot struct {
	Version int               `json:"version"`
	Eval    *market.CacheDump `json:"eval,omitempty"`
}

// Snapshot exports the framework's solved vectors. The framework stays
// fully usable during and after the export (the memo is concurrency-safe).
func (f *Framework) Snapshot() Snapshot {
	s := Snapshot{Version: SnapshotVersion}
	if snap, ok := f.eval.(market.CacheSnapshotter); ok {
		d := snap.ExportCache()
		s.Eval = &d
	}
	return s
}

// Restore merges a snapshot into the framework's memo without overwriting
// vectors solved in this process, returning how many vectors were adopted.
// The snapshot must come from a framework built on the same configuration
// — keys are configuration dependent, and a mismatched snapshot's keys
// simply never get hit — and from the same schema versions, which is
// checked.
func (f *Framework) Restore(s Snapshot) (int, error) {
	if s.Version != SnapshotVersion {
		return 0, fmt.Errorf("core: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	if s.Eval == nil {
		return 0, nil
	}
	snap, ok := f.eval.(market.CacheSnapshotter)
	if !ok {
		return 0, fmt.Errorf("core: framework evaluator does not support cache import")
	}
	return snap.ImportCache(*s.Eval)
}
