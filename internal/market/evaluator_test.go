package market

import (
	"math"
	"testing"

	"scshare/internal/approx"
	"scshare/internal/cloud"
)

func evalFed() cloud.Federation {
	return cloud.Federation{
		SCs: []cloud.SC{
			{Name: "a", VMs: 4, ArrivalRate: 3, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
			{Name: "b", VMs: 4, ArrivalRate: 2, ServiceRate: 1, SLA: 0.2, PublicPrice: 1},
		},
		FederationPrice: 0.5,
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, name := range []string{"approx", "exact", "sim", "fluid"} {
		k, err := ParseKind(name)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", name, err)
		}
		if !k.Valid() {
			t.Errorf("ParseKind(%q) = %v, not valid", name, k)
		}
		if k.String() != name {
			t.Errorf("ParseKind(%q).String() = %q", name, k.String())
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted an unknown model name")
	}
	if Kind(0).Valid() {
		t.Error("zero Kind reports valid")
	}
}

// NewEvaluator must return a working whole-vector evaluator for every kind
// — the single construction surface core.Framework and scserve rely on.
func TestNewEvaluatorDispatch(t *testing.T) {
	fed := evalFed()
	for _, kind := range []Kind{KindApprox, KindExact, KindSim, KindFluid} {
		ev, err := NewEvaluator(kind, fed, EvaluatorOptions{SimHorizon: 200})
		if err != nil {
			t.Fatalf("NewEvaluator(%v): %v", kind, err)
		}
		ms, err := ev.EvaluateAll([]int{2, 2})
		if err != nil {
			t.Fatalf("%v EvaluateAll: %v", kind, err)
		}
		if len(ms) != 2 {
			t.Errorf("%v EvaluateAll returned %d metrics, want 2", kind, len(ms))
		}
	}
	if _, err := NewEvaluator(Kind(0), fed, EvaluatorOptions{}); err == nil {
		t.Error("NewEvaluator accepted an invalid kind")
	}
}

// coreStack mirrors core.Framework's evaluator composition for the approx
// model: Memoize(WithParticipation(fed, NewEvaluator per sub-federation)).
func coreStack(t *testing.T, fed cloud.Federation) AllEvaluator {
	t.Helper()
	warm := approx.NewWarmCache()
	mkEval := func(sub cloud.Federation) Evaluator {
		ev, err := NewEvaluator(KindApprox, sub, EvaluatorOptions{Approx: approx.Config{Warm: warm}})
		if err != nil {
			t.Fatalf("NewEvaluator: %v", err)
		}
		return ev
	}
	return Memoize(WithParticipation(fed, mkEval))
}

// A memoized EvaluateAll over participation and approx is one SolveAll,
// which then answers the per-target probes of the same vector.
func TestParticipationApproxWholeVector(t *testing.T) {
	mem := coreStack(t, evalFed())
	if _, err := mem.EvaluateAll([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	st := mem.(CacheStatsReporter).Stats()
	// A per-target probe of the same vector must be served from the cached
	// whole-vector entry, not a new solve.
	if _, err := mem.Evaluate([]int{2, 2}, 0); err != nil {
		t.Fatal(err)
	}
	after := mem.(CacheStatsReporter).Stats()
	if after.Misses != st.Misses || after.Hits != st.Hits+1 {
		t.Errorf("per-target probe after EvaluateAll missed the cache: %+v -> %+v", st, after)
	}
}

// TestParticipationOneShape pins the one-shape contract: for every model
// kind, Evaluate(v, i) is EvaluateAll(v)[i] bit for bit, through bare
// WithParticipation and through Memoize(WithParticipation(...)), over a
// box whose vectors include S_i = 0 entries, lone contributors and a
// two-SC sub-federation. The bare stack is built afresh for every call:
// an approx sub-federation evaluator keeps a warm-start cache, and a warm
// re-solve of the same vector may move the last bits.
func TestParticipationOneShape(t *testing.T) {
	fed := cloud.Federation{FederationPrice: 0.4}
	for _, lambda := range []float64{2.4, 1.8, 1.2} {
		fed.SCs = append(fed.SCs, cloud.SC{VMs: 3, ArrivalRate: lambda, ServiceRate: 1, SLA: 0.2, PublicPrice: 1})
	}
	// SC 1 never contributes, so every sub-federation skips an index and
	// the exact model solves at most two SCs.
	box := primeOrder([]int{2, 0, 1})
	bits := func(m cloud.Metrics) [5]uint64 {
		return [5]uint64{math.Float64bits(m.PublicRate), math.Float64bits(m.BorrowRate), math.Float64bits(m.LendRate),
			math.Float64bits(m.Utilization), math.Float64bits(m.ForwardProb)}
	}
	for _, kind := range []Kind{KindApprox, KindExact, KindSim, KindFluid} {
		t.Run(kind.String(), func(t *testing.T) {
			stack := func() AllEvaluator {
				return WithParticipation(fed, func(sub cloud.Federation) Evaluator {
					ev, err := NewEvaluator(kind, sub, EvaluatorOptions{SimHorizon: 400, SimSeed: 3})
					if err != nil {
						t.Fatal(err)
					}
					return ev
				})
			}
			memo := Memoize(stack())
			for _, v := range box {
				want, err := stack().EvaluateAll(v)
				if err != nil {
					t.Fatalf("bare EvaluateAll(%v): %v", v, err)
				}
				memoized := make([]cloud.Metrics, len(v))
				for i := range v {
					bare, err := stack().Evaluate(v, i)
					if err != nil {
						t.Fatalf("bare Evaluate(%v, %d): %v", v, i, err)
					}
					if bits(bare) != bits(want[i]) {
						t.Errorf("bare Evaluate(%v, %d) = %+v, EvaluateAll's entry %+v", v, i, bare, want[i])
					}
					// The memo's first lookup of v is an Evaluate, so it
					// is the one that solves.
					if memoized[i], err = memo.Evaluate(v, i); err != nil {
						t.Fatalf("memoized Evaluate(%v, %d): %v", v, i, err)
					}
				}
				all, err := memo.EvaluateAll(v)
				if err != nil {
					t.Fatalf("memoized EvaluateAll(%v): %v", v, err)
				}
				for i := range v {
					if bits(memoized[i]) != bits(all[i]) {
						t.Errorf("memoized Evaluate(%v, %d) = %+v, EvaluateAll's entry %+v", v, i, memoized[i], all[i])
					}
				}
			}
		})
	}
}

// A sub-federation evaluator without EvaluateAll fails the evaluation
// instead of falling back to per-target solves.
func TestParticipationNeedsWholeVector(t *testing.T) {
	ev := WithParticipation(evalFed(), func(cloud.Federation) Evaluator {
		return EvaluatorFunc(func([]int, int) (cloud.Metrics, error) { return cloud.Metrics{}, nil })
	})
	if _, err := ev.EvaluateAll([]int{1, 1}); err == nil {
		t.Error("EvaluateAll over a per-target sub-federation evaluator succeeded")
	}
	if _, err := ev.Evaluate([]int{1, 1}, 0); err == nil {
		t.Error("Evaluate over a per-target sub-federation evaluator succeeded")
	}
	// A non-contributor still reads its baseline.
	if _, err := ev.Evaluate([]int{0, 1}, 0); err != nil {
		t.Errorf("baseline: %v", err)
	}
}

// The welfare planner reads every vector through the memo and keeps no
// cache of its own: its first read of a vector is the memo's one miss, and
// every later read is a memo hit.
func TestWelfarePlannerWholeVector(t *testing.T) {
	fed := evalFed()
	mem := coreStack(t, fed)
	we, err := NewWelfareEvaluator(fed, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := we.Utilities([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	st := mem.(CacheStatsReporter).Stats()
	if st.Misses != 1 {
		t.Errorf("planner's first read: %+v, want one miss", st)
	}
	if _, err := we.Utilities([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if after := mem.(CacheStatsReporter).Stats(); after.Misses != 1 || after.Hits != st.Hits+1 {
		t.Errorf("planner's second read: %+v -> %+v, want one more hit", st, after)
	}
}

// A caller-provided WarmCache must be shared across evaluators (the
// documented non-nil ownership rule), so one evaluator's solves warm
// another's.
func TestApproxEvaluatorSharedWarmCache(t *testing.T) {
	fed := evalFed()
	warm := approx.NewWarmCache()
	a := ApproxEvaluator(fed, approx.Config{Warm: warm})
	b := ApproxEvaluator(fed, approx.Config{Warm: warm})
	if _, err := a.EvaluateAll([]int{2, 2}); err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Stores == 0 {
		t.Fatalf("first evaluator stored nothing: %+v", st)
	}
	if _, err := b.Evaluate([]int{2, 2}, 0); err != nil {
		t.Fatal(err)
	}
	if after := warm.Stats(); after.Hits <= st.Hits {
		t.Errorf("second evaluator got no warm hits: %+v -> %+v", st, after)
	}
}
