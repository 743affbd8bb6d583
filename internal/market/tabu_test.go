package market

import (
	"errors"
	"math"
	"slices"
	"testing"
)

func TestTabuFindsGlobalOptimumUnimodal(t *testing.T) {
	// Concave objective with peak at 7.
	obj := func(x int) (float64, error) {
		return -math.Pow(float64(x-7), 2), nil
	}
	for _, start := range []int{0, 5, 10} {
		best, val, evals, err := tabuSearch(start, 10, 2, obj)
		if err != nil {
			t.Fatal(err)
		}
		if best != 7 || val != 0 {
			t.Errorf("start=%d: best=%d val=%v", start, best, val)
		}
		if evals == 0 {
			t.Error("no evaluations counted")
		}
	}
}

func TestTabuEscapesLocalOptimum(t *testing.T) {
	// Two peaks: local at 2 (value 5), global at 9 (value 10), valley
	// between. Tabu's accept-worse moves must cross the valley.
	values := []float64{0, 4, 5, 1, 0, 0, 2, 6, 9, 10, 3}
	obj := func(x int) (float64, error) { return values[x], nil }
	best, val, _, err := tabuSearch(2, 10, 2, obj)
	if err != nil {
		t.Fatal(err)
	}
	if best != 9 || val != 10 {
		t.Errorf("best=%d val=%v, want 9/10", best, val)
	}
}

func TestTabuClampsStart(t *testing.T) {
	obj := func(x int) (float64, error) { return float64(x), nil }
	best, _, _, err := tabuSearch(99, 5, 1, obj)
	if err != nil {
		t.Fatal(err)
	}
	if best != 5 {
		t.Errorf("best=%d, want 5", best)
	}
	best, _, _, err = tabuSearch(-3, 5, 1, obj)
	if err != nil {
		t.Fatal(err)
	}
	if best != 5 {
		t.Errorf("best=%d, want 5", best)
	}
}

func TestTabuPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, _, _, err := tabuSearch(0, 4, 1, func(int) (float64, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Errorf("got %v", err)
	}
}

func TestTabuSingletonDomain(t *testing.T) {
	best, val, _, err := tabuSearch(0, 0, 3, func(x int) (float64, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	if best != 0 || val != 42 {
		t.Errorf("best=%d val=%v", best, val)
	}
}

func TestTabuNeverRevisits(t *testing.T) {
	seen := make(map[int]int)
	obj := func(x int) (float64, error) {
		seen[x]++
		return float64(x % 3), nil
	}
	if _, _, _, err := tabuSearch(5, 10, 3, obj); err != nil {
		t.Fatal(err)
	}
	for x, n := range seen {
		if n > 1 {
			t.Errorf("point %d evaluated %d times", x, n)
		}
	}
}

// TestTabuVisitsShortLines pins the rule visitsWholeLine states, on the
// real tabuSearch: for distances 1–3, every start and every strict order
// of the values on lines of up to 2d+2 points, plus all values equal and a
// −Inf among them, the search evaluates every point of a line of at most
// 2d+1 points, while on 2d+2 points some order leaves a point unvisited,
// which is why the rule stops there.
func TestTabuVisitsShortLines(t *testing.T) {
	for d := 1; d <= 3; d++ {
		for n := 1; n <= 2*d+2; n++ {
			whole := visitsWholeLine(n-1, d)
			if whole != (n <= 2*d+1) {
				t.Fatalf("d=%d n=%d: visitsWholeLine = %v", d, n, whole)
			}
			partial := false
			check := func(vals []float64) {
				for start := 0; start < n; start++ {
					visited := make([]bool, n)
					if _, _, _, err := tabuSearch(start, n-1, d, func(x int) (float64, error) {
						visited[x] = true
						return vals[x], nil
					}); err != nil {
						t.Fatal(err)
					}
					if x := slices.Index(visited, false); x >= 0 {
						if whole {
							t.Fatalf("d=%d n=%d start=%d values %v: point %d not visited", d, n, start, vals, x)
						}
						partial = true
					}
				}
			}
			vals := make([]float64, n)
			check(vals) // all equal
			for x := range vals {
				vals[x] = math.Inf(-1)
				check(vals)
				vals[x] = 0
			}
			for x := range vals {
				vals[x] = float64(x)
			}
			permute(vals, len(vals), check)
			if partial == whole {
				t.Errorf("d=%d n=%d: some point unvisited = %v, want %v", d, n, partial, !whole)
			}
		}
	}
}

// permute calls f with every ordering of vals[:k] (Heap's algorithm).
func permute(vals []float64, k int, f func([]float64)) {
	if k <= 1 {
		f(vals)
		return
	}
	for i := 0; i < k-1; i++ {
		permute(vals, k-1, f)
		if k%2 == 0 {
			vals[i], vals[k-1] = vals[k-1], vals[i]
		} else {
			vals[0], vals[k-1] = vals[k-1], vals[0]
		}
	}
	permute(vals, k-1, f)
}
