package approx

import "scshare/internal/cloud"

// solveOne and solveVec adapt the Solver API to the
// one-shot shape most tests want: construct a fresh handle, solve once.
// Arena reuse across solves is pinned separately (see reuse_test.go).
func solveOne(cfg Config, target int) (*Model, error) {
	s, err := NewSolver(cfg)
	if err != nil {
		return nil, err
	}
	return s.Solve(target)
}

func solveVec(cfg Config) ([]cloud.Metrics, error) {
	s, err := NewSolver(cfg)
	if err != nil {
		return nil, err
	}
	return s.SolveAll()
}
