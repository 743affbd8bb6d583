package serve

import "io"

// WriteSnapshot serializes every live framework's solved vectors to w as
// JSON, in the envelope internal/spec defines for scserve and the fleet.
// Solves may keep running concurrently — each memo exports under its own
// lock — so this is safe to call from a drain path while streams finish.
func (s *Server) WriteSnapshot(w io.Writer) error {
	return s.cache.WriteSnapshot(w)
}

// ReadSnapshot merges a snapshot written by WriteSnapshot into this server:
// each entry's spec is re-normalized and materialized through the regular
// framework cache (building frameworks as needed), then its solved vectors
// are merged into that framework's memo. Individual entries that no longer
// normalize or restore are skipped — a snapshot is an optimization, not a
// source of truth; only a malformed envelope or a version mismatch is an
// error. It returns the number of vectors adopted across all frameworks.
func (s *Server) ReadSnapshot(r io.Reader) (int, error) {
	return s.cache.ReadSnapshot(r)
}

// SaveSnapshotFile writes the snapshot to path atomically (temp file in the
// same directory, then rename), so a crash mid-write never leaves a
// truncated snapshot where the next boot would read it.
func (s *Server) SaveSnapshotFile(path string) error {
	return s.cache.SaveSnapshotFile(path)
}

// LoadSnapshotFile restores a snapshot from path, returning the number of
// vectors adopted. A missing file is not an error — it is the normal first
// boot — and reports zero adoptions.
func (s *Server) LoadSnapshotFile(path string) (int, error) {
	return s.cache.LoadSnapshotFile(path)
}
