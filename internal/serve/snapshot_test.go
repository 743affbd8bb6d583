package serve

import (
	"bytes"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
)

// warmSpec is a small approx-model federation, the model the served
// snapshots matter most for: its solved vectors cost real solves to
// rebuild, unlike the fluid testSpec's.
func warmSpec() federationSpec {
	return federationSpec{
		SCs: []scSpec{
			{VMs: 6, ArrivalRate: 3.5},
			{VMs: 6, ArrivalRate: 4.2},
		},
		Model:    "approx",
		MaxShare: 3,
	}
}

// TestServerSnapshotRoundTrip is the drain/boot contract: a snapshot taken
// from a warmed server, restored into a fresh one, must answer the same
// query byte-identically and entirely from cache.
func TestServerSnapshotRoundTrip(t *testing.T) {
	warm := New(Options{})
	req := adviseRequest{federationSpec: warmSpec(), Price: 0.5}
	first := postJSON(t, warm, "/v1/advise", req)
	if first.Code != http.StatusOK {
		t.Fatalf("warming advise = %d: %s", first.Code, first.Body)
	}

	var buf bytes.Buffer
	if err := warm.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cold := New(Options{})
	adopted, err := cold.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if adopted == 0 {
		t.Fatal("restore adopted no cache entries")
	}

	second := postJSON(t, cold, "/v1/advise", req)
	if second.Code != http.StatusOK {
		t.Fatalf("restored advise = %d: %s", second.Code, second.Body)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("restored answer diverged:\nwarm %s\ncold %s", first.Body, second.Body)
	}
	stats, frameworks := cold.cacheStats()
	if frameworks != 1 {
		t.Fatalf("restored server has %d frameworks", frameworks)
	}
	if stats.Hits == 0 || stats.Misses != 0 {
		t.Fatalf("restored solve was not fully cached: %+v", stats)
	}
}

// TestSnapshotFileRoundTrip covers the -snapshot file path: atomic save,
// load into a fresh server, and the missing-file first boot.
func TestSnapshotFileRoundTrip(t *testing.T) {
	warm := New(Options{})
	if rec := postJSON(t, warm, "/v1/advise", adviseRequest{federationSpec: warmSpec(), Price: 0.5}); rec.Code != http.StatusOK {
		t.Fatalf("warming advise = %d: %s", rec.Code, rec.Body)
	}
	path := filepath.Join(t.TempDir(), "warm.json")

	if n, err := New(Options{}).LoadSnapshotFile(path); err != nil || n != 0 {
		t.Fatalf("missing snapshot: %d, %v (first boot must be clean)", n, err)
	}
	if err := warm.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	cold := New(Options{})
	n, err := cold.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("file restore adopted no cache entries")
	}
	if rec := postJSON(t, cold, "/v1/advise", adviseRequest{federationSpec: warmSpec(), Price: 0.5}); rec.Code != http.StatusOK {
		t.Fatalf("restored advise = %d: %s", rec.Code, rec.Body)
	}
	if stats, _ := cold.cacheStats(); stats.Hits == 0 {
		t.Fatalf("restored server answered cold: %+v", stats)
	}
}

// TestSnapshotGuards: decode failures and version mismatches are errors;
// entries whose spec no longer normalizes are skipped, not fatal.
func TestSnapshotGuards(t *testing.T) {
	s := New(Options{})
	if _, err := s.ReadSnapshot(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage snapshot restored")
	}
	if _, err := s.ReadSnapshot(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("future snapshot version restored")
	}
	n, err := s.ReadSnapshot(strings.NewReader(
		`{"version": 1, "frameworks": [{"spec": {"scs": []}, "state": {"version": 1}}]}`))
	if err != nil {
		t.Fatalf("snapshot with one bad entry failed outright: %v", err)
	}
	if n != 0 {
		t.Fatalf("bad entry adopted %d cache lines", n)
	}
	if _, frameworks := s.cacheStats(); frameworks != 0 {
		t.Fatalf("bad entry built %d frameworks", frameworks)
	}
}
