package approx

import (
	"math"
	"reflect"
	"testing"
)

// TestWarmDumpRoundTrip: a restored warm cache must serve the same start
// vectors the original recorded, and exports must be deterministic.
func TestWarmDumpRoundTrip(t *testing.T) {
	warm := NewWarmCache()
	warm.store(2, 0, 0, 3, []float64{0.2, 0.3, 0.5})
	warm.store(2, 0, 1, 4, []float64{0.1, 0.2, 0.3, 0.4})
	warm.store(2, 1, 0, 3, []float64{0.9, 0.05, 0.05})

	dump := warm.Export()
	if dump.Version != WarmDumpVersion || len(dump.Entries) != 3 {
		t.Fatalf("dump = version %d, %d entries", dump.Version, len(dump.Entries))
	}
	if again := warm.Export(); !reflect.DeepEqual(dump, again) {
		t.Fatal("repeated exports of one cache differ")
	}

	cold := NewWarmCache()
	n, err := cold.Import(dump)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("adopted %d entries, want 3", n)
	}
	if pi := cold.lookup(2, 0, 1, 4); !reflect.DeepEqual(pi, []float64{0.1, 0.2, 0.3, 0.4}) {
		t.Fatalf("restored start vector = %v", pi)
	}

	// A nil cache is inert on both sides.
	var none *WarmCache
	if d := none.Export(); d.Version != WarmDumpVersion || len(d.Entries) != 0 {
		t.Fatalf("nil export = %+v", d)
	}
	if n, err := none.Import(dump); err != nil || n != 0 {
		t.Fatalf("nil import = %d, %v", n, err)
	}
}

// TestWarmDumpImportGuards: version mismatches fail; dimension mismatches
// and non-finite or negative probabilities are skipped; live entries are
// never overwritten.
func TestWarmDumpImportGuards(t *testing.T) {
	w := NewWarmCache()
	if _, err := w.Import(WarmDump{Version: WarmDumpVersion + 1}); err == nil {
		t.Fatal("version mismatch imported")
	}

	n, err := w.Import(WarmDump{
		Version: WarmDumpVersion,
		Entries: []WarmEntry{
			{K: 2, Target: 0, SC: 0, States: 0, Pi: nil},                       // no states
			{K: 2, Target: 0, SC: 0, States: 3, Pi: []float64{0.5, 0.5}},       // wrong length
			{K: 2, Target: 0, SC: 1, States: 2, Pi: []float64{math.NaN(), 1}},  // NaN
			{K: 2, Target: 0, SC: 2, States: 2, Pi: []float64{math.Inf(1), 0}}, // Inf
			{K: 2, Target: 0, SC: 3, States: 2, Pi: []float64{-0.1, 1.1}},      // negative
			{K: 2, Target: 1, SC: 0, States: 2, Pi: []float64{0.4, 0.6}},       // good
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("adopted %d entries, want only the good one", n)
	}

	w.store(3, 0, 0, 2, []float64{1, 0})
	n, err = w.Import(WarmDump{
		Version: WarmDumpVersion,
		Entries: []WarmEntry{{K: 3, Target: 0, SC: 0, States: 2, Pi: []float64{0, 1}}},
	})
	if err != nil || n != 0 {
		t.Fatalf("import overwrote a live entry (adopted %d, err %v)", n, err)
	}
	if pi := w.lookup(3, 0, 0, 2); !reflect.DeepEqual(pi, []float64{1, 0}) {
		t.Fatalf("live entry clobbered: %v", pi)
	}
}
