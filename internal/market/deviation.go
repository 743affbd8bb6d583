package market

import (
	"fmt"
	"sort"
)

// RunWithFrozen plays the repeated game while the SCs in frozen never
// update their sharing decision. It quantifies the paper's Sect. VII
// discussion of players that do not follow the prescribed sequence of
// actions: the game still converges for the responsive players, and the
// frozen players bear whatever their stale decision costs them.
func (g *Game) RunWithFrozen(initial []int, frozen map[int]bool) (*Outcome, error) {
	if len(frozen) == 0 {
		return g.Run(initial)
	}
	inner := *g
	wrapped := &inner
	wrapped.skip = frozen
	return wrapped.Run(initial)
}

// CoalitionDeviation searches for a joint deviation by the given coalition
// from the outcome's shares that makes every coalition member strictly
// better off (the collusion scenario of Sect. VII). It scans the
// coalition's joint strategy space exhaustively, so keep coalitions small.
// It returns whether such a deviation exists and, if so, the first
// improving joint share assignment found.
func (g *Game) CoalitionDeviation(out *Outcome, coalition []int) (bool, []int, error) {
	if len(coalition) == 0 {
		return false, nil, nil
	}
	seen := make(map[int]bool, len(coalition))
	for _, i := range coalition {
		if i < 0 || i >= len(g.Federation.SCs) {
			return false, nil, fmt.Errorf("market: coalition member %d out of range", i)
		}
		if seen[i] {
			return false, nil, fmt.Errorf("market: duplicate coalition member %d", i)
		}
		seen[i] = true
	}
	members := append([]int(nil), coalition...)
	sort.Ints(members)
	maxShares, err := strategyCaps(g.Federation, g.MaxShares)
	if err != nil {
		return false, nil, err
	}

	trial := make([]int, len(out.Shares))
	var rec func(depth int) (bool, []int, error)
	rec = func(depth int) (bool, []int, error) {
		if depth == len(members) {
			same := true
			for _, i := range members {
				if trial[i] != out.Shares[i] {
					same = false
					break
				}
			}
			if same {
				return false, nil, nil
			}
			for _, i := range members {
				m, err := g.Evaluator.Evaluate(trial, i)
				if err != nil {
					return false, nil, err
				}
				cost := m.NetCost(g.Federation.SCs[i].PublicPrice, g.Federation.FederationPrice)
				u, err := Utility(out.BaselineCosts[i], cost, out.BaselineUtils[i], m.Utilization, g.Gamma)
				if err != nil {
					return false, nil, err
				}
				if u <= out.Utilities[i]+1e-12 {
					return false, nil, nil
				}
			}
			return true, append([]int(nil), trial...), nil
		}
		i := members[depth]
		for s := 0; s <= maxShares[i]; s++ {
			trial[i] = s
			if ok, dev, err := rec(depth + 1); ok || err != nil {
				return ok, dev, err
			}
		}
		trial[i] = out.Shares[i]
		return false, nil, nil
	}
	copy(trial, out.Shares)
	return rec(0)
}
