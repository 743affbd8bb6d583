package market

// tabuSearch maximizes objective over the integer domain [0, maxShare]
// starting from start, using the non-gradient Tabu-search heuristic the
// paper adopts for best responses (Sect. IV-B): from the current point it
// examines the non-tabu neighbors within distance, moves to the best one
// even if it is worse (escaping local optima), marks it tabu, and returns
// the best point seen once the neighborhood is exhausted or patience runs
// out. Objective values are memoized, so each point is evaluated at most
// once; the evaluation count is returned for the Fig. 8b cost analysis.
func tabuSearch(start, maxShare, distance int, objective func(int) (float64, error)) (best int, bestVal float64, evals int, err error) {
	if distance <= 0 {
		distance = 1
	}
	if start < 0 {
		start = 0
	}
	if start > maxShare {
		start = maxShare
	}
	tabu := make([]bool, maxShare+1)
	known := make([]bool, maxShare+1)
	memo := make([]float64, maxShare+1)
	value := func(x int) (float64, error) {
		if known[x] {
			return memo[x], nil
		}
		evals++
		v, err := objective(x)
		if err != nil {
			return 0, err
		}
		known[x], memo[x] = true, v
		return v, nil
	}

	cur := start
	tabu[cur] = true
	bestVal, err = value(cur)
	if err != nil {
		return 0, 0, evals, err
	}
	best = cur

	// Patience: the search stops after this many consecutive non-improving
	// moves. It scales with the domain so accept-worse moves can cross
	// valleys between local optima.
	patience := max(3, (maxShare+1)/2)
	stale := 0
	for stale <= patience {
		moveTo, moveVal, found := -1, 0.0, false
		for d := 1; d <= distance; d++ {
			for _, cand := range [2]int{cur - d, cur + d} {
				if cand < 0 || cand > maxShare || tabu[cand] {
					continue
				}
				v, verr := value(cand)
				if verr != nil {
					return 0, 0, evals, verr
				}
				if !found || v > moveVal {
					moveTo, moveVal, found = cand, v, true
				}
			}
		}
		if !found {
			break // neighborhood exhausted
		}
		cur = moveTo
		tabu[cur] = true
		if moveVal > bestVal {
			best, bestVal = cur, moveVal
			stale = 0
		} else {
			stale++
		}
	}
	return best, bestVal, evals, nil
}

// visitsWholeLine reports whether tabuSearch evaluates every point of the
// strategy line [0, maxShare] from any start, whatever the objective's
// values are. It does when the line has at most 2·distance+1 points
// (TestTabuVisitsShortLines checks every start and value order for
// distances 1–3); one more point and some order leaves a point out.
func visitsWholeLine(maxShare, distance int) bool {
	return maxShare <= 2*max(distance, 1)
}
