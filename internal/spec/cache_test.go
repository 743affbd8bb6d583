package spec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"scshare/internal/cloud"
	"scshare/internal/core"
	"scshare/internal/market"
)

// normalized returns sp after Normalize, failing the test on an error.
func normalized(t *testing.T, sp Federation) *Federation {
	t.Helper()
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	return &sp
}

// framework fetches sp's framework from c, failing the test on an error.
func framework(t *testing.T, c *Cache, sp *Federation) *core.Framework {
	t.Helper()
	fw, err := c.Framework(sp)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// frameworkCount is the number of live frameworks in c.
func frameworkCount(c *Cache) int {
	_, n := c.Stats()
	return n
}

func TestCacheSharesFrameworkPerSpec(t *testing.T) {
	c := NewCache(0)
	a := validSpec()
	a.MaxShare = 3
	// The same spec with its defaults spelled out normalizes to the same
	// key, so it must reach the same framework.
	b := validSpec()
	b.MaxShare = 3
	b.Model = "approx"
	b.SCs[0].Name, b.SCs[0].ServiceRate = "sc0", 1
	fa := framework(t, c, normalized(t, a))
	if fb := framework(t, c, normalized(t, b)); fb != fa {
		t.Error("equal normalized specs got different frameworks")
	}
	d := validSpec()
	d.MaxShare = 4
	if fd := framework(t, c, normalized(t, d)); fd == fa {
		t.Error("specs with MaxShare 3 and 4 share a framework")
	}
	if n := frameworkCount(c); n != 2 {
		t.Errorf("%d live frameworks, want 2", n)
	}
}

func TestCacheEvictsOldestFirst(t *testing.T) {
	c := NewCache(2)
	specs := make([]*Federation, 3)
	fws := make([]*core.Framework, 3)
	for i := range specs {
		sp := validSpec()
		sp.MaxShare = i + 1
		specs[i] = normalized(t, sp)
		fws[i] = framework(t, c, specs[i])
	}
	if n := frameworkCount(c); n != 2 {
		t.Fatalf("%d live frameworks at max 2", n)
	}
	// The first spec was evicted; the two later ones are still cached.
	for i := 1; i < 3; i++ {
		if fw := framework(t, c, specs[i]); fw != fws[i] {
			t.Errorf("spec %d was rebuilt; want the cached framework", i)
		}
	}
	if fw := framework(t, c, specs[0]); fw == fws[0] {
		t.Error("the oldest spec survived eviction")
	}
	// Rebuilding it evicted the next-oldest.
	if n := frameworkCount(c); n != 2 {
		t.Errorf("%d live frameworks after the rebuild, want 2", n)
	}
	if fw := framework(t, c, specs[2]); fw != fws[2] {
		t.Error("the newest spec was evicted")
	}
}

// vectorKey is the cache key every snapshot entry of these tests carries:
// the two-SC share vector (1, 1).
const vectorKey = "1,1,"

// snapshotEntry builds one envelope entry from a spec's JSON and a cache
// state holding a single whole-vector entry.
func snapshotEntry(specJSON string) entry {
	return entry{
		Spec: json.RawMessage(specJSON),
		State: core.Snapshot{
			Version: core.SnapshotVersion,
			Eval: &market.CacheDump{
				Version: market.CacheDumpVersion,
				Vectors: []market.VectorEntry{{
					Key:     vectorKey,
					Metrics: []cloud.Metrics{{Utilization: 0.5}, {Utilization: 0.6}},
				}},
			},
		},
	}
}

// readSnapshot serializes an envelope and reads it into c.
func readSnapshot(t *testing.T, c *Cache, snap envelope) int {
	t.Helper()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.ReadSnapshot(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// holdsVector reports whether fw's evaluation cache holds vectorKey.
func holdsVector(fw *core.Framework) bool {
	d := fw.Snapshot().Eval
	if d == nil {
		return false
	}
	for _, v := range d.Vectors {
		if v.Key == vectorKey {
			return true
		}
	}
	return false
}

func TestReadSnapshotRejectsVersion(t *testing.T) {
	c := NewCache(0)
	_, err := c.ReadSnapshot(strings.NewReader(`{"version": 2, "frameworks": []}`))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("ReadSnapshot of a version 2 envelope = %v, want a version error", err)
	}
	if n := frameworkCount(c); n != 0 {
		t.Errorf("a rejected snapshot built %d frameworks", n)
	}
}

const twoSCs = `"scs":[{"vms":10,"arrivalRate":7},{"vms":8,"arrivalRate":5}]`

func TestReadSnapshotSkipsInvalidSpec(t *testing.T) {
	c := NewCache(0)
	adopted := readSnapshot(t, c, envelope{
		Version: SnapshotVersion,
		Frameworks: []entry{
			snapshotEntry(`{` + twoSCs + `,"gamma":2}`), // gamma outside [0, 1]
			snapshotEntry(`{` + twoSCs + `,"maxShare":3}`),
		},
	})
	if adopted != 1 {
		t.Errorf("adopted %d entries, want the valid entry's 1", adopted)
	}
	if n := frameworkCount(c); n != 1 {
		t.Errorf("%d live frameworks, want only the valid spec's", n)
	}
	var sp Federation
	if err := json.Unmarshal([]byte(`{`+twoSCs+`,"maxShare":3}`), &sp); err != nil {
		t.Fatal(err)
	}
	if !holdsVector(framework(t, c, normalized(t, sp))) {
		t.Error("the valid entry's cache state was not restored")
	}
}

// TestReadSnapshotIgnoresApproxWorkers: snapshots written while
// spec.Approx still had a readout-pool "workers" knob carry it in their
// specs. Such an entry must restore into the framework of the same spec
// without it, the one today's requests reach.
func TestReadSnapshotIgnoresApproxWorkers(t *testing.T) {
	c := NewCache(0)
	adopted := readSnapshot(t, c, envelope{
		Version:    SnapshotVersion,
		Frameworks: []entry{snapshotEntry(`{` + twoSCs + `,"approx":{"passes":1,"workers":2}}`)},
	})
	if adopted != 1 {
		t.Errorf("adopted %d entries, want 1", adopted)
	}
	sp := Federation{
		SCs:    []SC{{VMs: 10, ArrivalRate: 7}, {VMs: 8, ArrivalRate: 5}},
		Approx: &Approx{Passes: 1},
	}
	if !holdsVector(framework(t, c, normalized(t, sp))) {
		t.Error("the entry did not restore into the framework of its spec without workers")
	}
	if n := frameworkCount(c); n != 1 {
		t.Errorf("%d live frameworks, want 1", n)
	}
}

// TestReadSnapshotIgnoresWarmSection: snapshots written while a framework's
// state also carried the approximate model's warm-start vectors, under
// "warm", must still restore their solved vectors. Only those count as
// adopted: start vectors stay in the process that solved them.
func TestReadSnapshotIgnoresWarmSection(t *testing.T) {
	b, err := json.Marshal(envelope{
		Version:    SnapshotVersion,
		Frameworks: []entry{snapshotEntry(`{` + twoSCs + `}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const warm = `"warm":{"version":1,"entries":[{"k":2,"target":1,"sc":0,"states":3,"pi":[0.2,0.3,0.5]}]},`
	withWarm := strings.Replace(string(b), `"state":{`, `"state":{`+warm, 1)
	if withWarm == string(b) {
		t.Fatalf("no state section in %s", b)
	}
	c := NewCache(0)
	adopted, err := c.ReadSnapshot(strings.NewReader(withWarm))
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 1 {
		t.Errorf("adopted %d entries, want the one vector", adopted)
	}
	sp := Federation{SCs: []SC{{VMs: 10, ArrivalRate: 7}, {VMs: 8, ArrivalRate: 5}}}
	if !holdsVector(framework(t, c, normalized(t, sp))) {
		t.Error("the entry's vector was not restored")
	}
}
