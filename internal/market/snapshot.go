package market

import (
	"fmt"
	"math"
	"sort"

	"scshare/internal/cloud"
)

// CacheDumpVersion is the schema version of CacheDump. Import rejects any
// other version: a stale snapshot must fail loudly rather than seed a live
// cache with entries whose meaning drifted.
const CacheDumpVersion = 1

// CacheDump is the serializable image of a memoized evaluator's cache: the
// solved performance metrics, one []cloud.Metrics per share vector, keyed
// exactly as the live cache keys them. Only successful solves are exported
// — errors are transient (cancellation, a bad trial vector) and must not
// survive a restart.
type CacheDump struct {
	Version int           `json:"version"`
	Vectors []VectorEntry `json:"vectors,omitempty"`
}

// VectorEntry is one whole-vector cache line.
type VectorEntry struct {
	Key     string          `json:"key"`
	Metrics []cloud.Metrics `json:"metrics"`
}

// CacheSnapshotter is implemented by the evaluators Memoize returns: the
// warm-cache snapshot/restore path (core.Framework.Snapshot, scserve
// -snapshot) exports a drained replica's cache and seeds a booting one.
type CacheSnapshotter interface {
	ExportCache() CacheDump
	// ImportCache merges a dump into the cache without overwriting live
	// entries, returning how many entries were adopted. It fails on a
	// version mismatch and silently skips malformed entries (non-finite
	// metrics, empty keys) — a snapshot is an optimization, not a source
	// of truth.
	ImportCache(CacheDump) (int, error)
}

// finiteMetrics reports whether every field of every entry of ms is a
// finite number — the import-side guard keeping a corrupted snapshot out
// of the cache.
func finiteMetrics(ms []cloud.Metrics) bool {
	for _, m := range ms {
		for _, v := range []float64{m.PublicRate, m.BorrowRate, m.LendRate, m.Utilization, m.ForwardProb} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// ExportCache implements CacheSnapshotter. In-flight solves and error
// entries are skipped; the output is sorted by key, so equal caches dump
// byte-identical snapshots.
func (me *memoEvaluator) ExportCache() CacheDump {
	d := CacheDump{Version: CacheDumpVersion}
	me.mu.Lock()
	for key, e := range me.cache {
		if e.err == nil {
			d.Vectors = append(d.Vectors, VectorEntry{Key: key, Metrics: e.all})
		}
	}
	me.mu.Unlock()
	sort.Slice(d.Vectors, func(i, j int) bool { return d.Vectors[i].Key < d.Vectors[j].Key })
	return d
}

// ImportCache implements CacheSnapshotter.
func (me *memoEvaluator) ImportCache(d CacheDump) (int, error) {
	if d.Version != CacheDumpVersion {
		return 0, fmt.Errorf("market: cache dump version %d, want %d", d.Version, CacheDumpVersion)
	}
	adopted := 0
	for _, v := range d.Vectors {
		if v.Key == "" || len(v.Metrics) == 0 || !finiteMetrics(v.Metrics) {
			continue
		}
		me.mu.Lock()
		if _, ok := me.cache[v.Key]; !ok {
			me.cache[v.Key] = memoEntry{all: v.Metrics}
			adopted++
		}
		me.mu.Unlock()
	}
	return adopted, nil
}
