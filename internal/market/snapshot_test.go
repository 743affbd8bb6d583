package market

import (
	"math"
	"reflect"
	"testing"

	"scshare/internal/cloud"
)

// countingEvaluator is a per-target inner evaluator that counts real solves,
// so the tests can tell cache answers from recomputation. Wrapped in
// allTargets, one whole-vector solve counts one solve per SC.
type countingEvaluator struct {
	solves int
}

func (c *countingEvaluator) Evaluate(shares []int, target int) (cloud.Metrics, error) {
	c.solves++
	return cloud.Metrics{
		PublicRate:  float64(shares[target]),
		Utilization: 0.5,
	}, nil
}

// TestCacheDumpRoundTrip: export from a warmed cache, import into a cold
// one, and the cold cache must answer the same keys without a single inner
// solve.
func TestCacheDumpRoundTrip(t *testing.T) {
	warmInner := &countingEvaluator{}
	warm := Memoize(allTargets{warmInner})
	for _, shares := range [][]int{{1, 2}, {3, 4}, {0, 0}} {
		for target := 0; target < 2; target++ {
			if _, err := warm.Evaluate(shares, target); err != nil {
				t.Fatal(err)
			}
		}
	}
	dump := warm.(CacheSnapshotter).ExportCache()
	if dump.Version != CacheDumpVersion {
		t.Fatalf("dump version = %d", dump.Version)
	}
	if len(dump.Vectors) != 3 {
		t.Fatalf("dump holds %d vectors, want 3", len(dump.Vectors))
	}

	coldInner := &countingEvaluator{}
	cold := Memoize(allTargets{coldInner})
	n, err := cold.(CacheSnapshotter).ImportCache(dump)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("adopted %d entries, want 3", n)
	}
	for _, shares := range [][]int{{1, 2}, {3, 4}, {0, 0}} {
		for target := 0; target < 2; target++ {
			got, err := cold.Evaluate(shares, target)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := warm.Evaluate(shares, target)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored metrics diverged: %+v vs %+v", got, want)
			}
		}
	}
	if coldInner.solves != 0 {
		t.Fatalf("restored cache still ran %d inner solves", coldInner.solves)
	}
	if st := cold.(CacheStatsReporter).Stats(); st.Hits != 6 || st.Misses != 0 {
		t.Fatalf("restored cache stats = %+v", st)
	}

	// Exports are deterministic: a second export of the same cache must be
	// identical (keys sorted, not map-ordered).
	if again := warm.(CacheSnapshotter).ExportCache(); !reflect.DeepEqual(dump, again) {
		t.Fatal("repeated exports of one cache differ")
	}
}

// TestCacheDumpImportGuards: version mismatches fail, malformed entries are
// skipped, and imports never overwrite live entries.
func TestCacheDumpImportGuards(t *testing.T) {
	ev := Memoize(allTargets{&countingEvaluator{}}).(CacheSnapshotter)
	if _, err := ev.ImportCache(CacheDump{Version: CacheDumpVersion + 1}); err == nil {
		t.Fatal("version mismatch imported")
	}

	n, err := ev.ImportCache(CacheDump{
		Version: CacheDumpVersion,
		Vectors: []VectorEntry{
			{Key: "", Metrics: []cloud.Metrics{{}}},                         // empty key
			{Key: "1,", Metrics: []cloud.Metrics{{PublicRate: math.NaN()}}}, // poisoned
			{Key: "2,", Metrics: []cloud.Metrics{{PublicRate: math.Inf(1)}}},
			{Key: "3,", Metrics: []cloud.Metrics{{PublicRate: 7}}}, // the one good entry
			{Key: "4,", Metrics: nil},                              // empty vector
			{Key: "5,6,", Metrics: []cloud.Metrics{{}, {Utilization: math.NaN()}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("adopted %d entries, want only the finite one", n)
	}

	// A live entry must survive an import that carries the same key.
	live := Memoize(allTargets{&countingEvaluator{}})
	if _, err := live.Evaluate([]int{9}, 0); err != nil {
		t.Fatal(err)
	}
	key := live.(CacheSnapshotter).ExportCache().Vectors[0].Key
	n, err = live.(CacheSnapshotter).ImportCache(CacheDump{
		Version: CacheDumpVersion,
		Vectors: []VectorEntry{{Key: key, Metrics: []cloud.Metrics{{PublicRate: -999}}}},
	})
	if err != nil || n != 0 {
		t.Fatalf("import overwrote a live entry (adopted %d, err %v)", n, err)
	}
	if got, _ := live.Evaluate([]int{9}, 0); got.PublicRate != 9 {
		t.Fatalf("live entry clobbered: %+v", got)
	}
}
