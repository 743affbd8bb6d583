package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"scshare/internal/approx"
	"scshare/internal/core"
	"scshare/internal/market"
)

// DefaultMaxFrameworks bounds the per-configuration framework cache; each
// entry holds a memoized evaluation cache that only grows, so the map is a
// deliberate memory/time trade kept small enough to reason about.
const DefaultMaxFrameworks = 32

// Cache is the spec-keyed framework cache shared by the scserve front door
// and the fleet workers: a bounded FIFO map of live core.Framework
// instances keyed by the canonical normalized-spec JSON (Federation.Key).
// What is shared across requests, and why that is safe: frameworks — and
// with them the memoized evaluator, its evaluation cache, and the
// approximate model's in-process warm-start cache — are keyed by the full
// price-independent federation configuration. Performance metrics do not
// depend on prices (DESIGN.md §10), so two requests that differ only in
// the federation price C^G legitimately share every cached solve; requests
// that differ in anything affecting metrics (the SCs, the model, its
// tuning) or the game (gamma, tabu distance, share caps) get distinct
// frameworks. Concurrent requests on one framework are safe because the
// memo cache deduplicates in-flight solves per key and the game itself
// is re-entrant (no state on Framework mutates after New).
type Cache struct {
	max int

	mu sync.Mutex
	// frameworks and order are guarded by mu: the cache of live
	// frameworks keyed by canonical configuration, and their keys in
	// insertion order for FIFO eviction.
	frameworks map[string]*core.Framework
	order      []string
}

// NewCache builds an empty framework cache holding at most max entries
// (<= 0 means DefaultMaxFrameworks), evicting the oldest configuration
// first.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultMaxFrameworks
	}
	return &Cache{max: max, frameworks: make(map[string]*core.Framework)}
}

// Framework returns the cached framework for the spec, building and
// registering one on first use. The spec must already be normalized.
func (c *Cache) Framework(sp *Federation) (*core.Framework, error) {
	key, err := sp.Key()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if fw, ok := c.frameworks[key]; ok {
		return fw, nil
	}
	fw, err := core.New(sp.Config())
	if err != nil {
		return nil, err
	}
	if len(c.frameworks) >= c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.frameworks, oldest)
	}
	c.frameworks[key] = fw
	c.order = append(c.order, key)
	return fw, nil
}

// Stats sums the evaluation-cache statistics over every live framework,
// together with the framework count.
func (c *Cache) Stats() (market.CacheStats, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total market.CacheStats
	for _, fw := range c.frameworks {
		if rep, ok := fw.Evaluator().(market.CacheStatsReporter); ok {
			st := rep.Stats()
			total.Hits += st.Hits
			total.Misses += st.Misses
		}
	}
	return total, len(c.frameworks)
}

// PruneStats aggregates the adaptive-truncation account across every live
// framework: discarded mass and truncated-summary counts sum, and MaxMass
// is the worst single summary seen by any framework.
func (c *Cache) PruneStats() approx.PruneStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total approx.PruneStats
	for _, fw := range c.frameworks {
		st := fw.PruneStats()
		total.TotalMass += st.TotalMass
		total.Joints += st.Joints
		if st.MaxMass > total.MaxMass {
			total.MaxMass = st.MaxMass
		}
	}
	return total
}

// SnapshotVersion is the schema version of the cache-level snapshot
// envelope. The framework state and the memo dump inside it carry their
// own versions (core.SnapshotVersion, market.CacheDumpVersion), all checked
// independently on restore.
const SnapshotVersion = 1

// envelope is the on-disk state of a whole framework cache: one entry per
// live framework, in FIFO order, each pairing the framework's canonical
// spec (the cache key, which IS the normalized spec's JSON) with its
// solved vectors. Restoring replays the specs through the normal framework
// constructor and merges each memo in, so a restored cache answers every
// saved vector as a hit. Keys the decoder does not know are ignored:
// files written by older builds, whose states also carry a "warm" section
// of approx start vectors, restore their vectors and drop that section.
type envelope struct {
	Version    int     `json:"version"`
	Frameworks []entry `json:"frameworks"`
}

// entry is one framework's snapshot: Spec is the canonical normalized
// Federation JSON (exactly the cache key), State the solved vectors
// exported from it.
type entry struct {
	Spec  json.RawMessage `json:"spec"`
	State core.Snapshot   `json:"state"`
}

// WriteSnapshot serializes every live framework's solved vectors to w as
// JSON. Solves may keep running concurrently — each memo exports under its
// own lock — so this is safe to call from a drain path while streams
// finish, or from a dispatcher handler while workers solve.
func (c *Cache) WriteSnapshot(w io.Writer) error {
	c.mu.Lock()
	snap := envelope{Version: SnapshotVersion}
	for _, key := range c.order {
		fw, ok := c.frameworks[key]
		if !ok {
			continue
		}
		snap.Frameworks = append(snap.Frameworks, entry{
			Spec:  json.RawMessage(key),
			State: fw.Snapshot(),
		})
	}
	c.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(snap)
}

// ReadSnapshot merges a snapshot written by WriteSnapshot into this cache:
// each entry's spec is re-normalized and materialized through the regular
// framework cache (building frameworks as needed), then its solved vectors
// are merged into that framework's memo. Individual entries that no
// longer normalize or restore — e.g. written by a build with different
// validation rules — are skipped, because a snapshot is an optimization,
// not a source of truth; only a malformed envelope or a version mismatch
// is an error. It returns the number of vectors adopted across all
// frameworks.
func (c *Cache) ReadSnapshot(r io.Reader) (int, error) {
	var snap envelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return 0, fmt.Errorf("spec: decoding snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return 0, fmt.Errorf("spec: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	adopted := 0
	for _, e := range snap.Frameworks {
		var sp Federation
		if err := json.Unmarshal(e.Spec, &sp); err != nil {
			continue
		}
		if err := sp.Normalize(); err != nil {
			continue
		}
		fw, err := c.Framework(&sp)
		if err != nil {
			continue
		}
		n, err := fw.Restore(e.State)
		adopted += n
		_ = err // a partially restored framework still helps; keep going
	}
	return adopted, nil
}

// SaveSnapshotFile writes the snapshot to path atomically (temp file in the
// same directory, then rename), so a crash mid-write never leaves a
// truncated snapshot where the next boot would read it.
func (c *Cache) SaveSnapshotFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := c.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadSnapshotFile restores a snapshot from path, returning the number of
// vectors adopted. A missing file is not an error — it is the normal
// first boot — and reports zero adoptions.
func (c *Cache) LoadSnapshotFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	return c.ReadSnapshot(f)
}
