package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// TestFiguresMatchResults regenerates figures committed under results/ —
// Fig. 6a/6b (exact against approx, both in one file), Fig. 7a–7d on the
// approximate model with MaxShare 6, as `scshare -fig fig7a` prints them,
// and Fig. 8b — and compares every cell of every table. A file holds one
// block per figure its id generates, separated by blank lines. Integer
// cells (the x values of Fig. 8b, shared VM counts, rounds, model
// evaluations) must match exactly; the other cells must agree within 1e-6
// relative. The seven figures take about 45 s, so the test is skipped
// under -short and under the race detector.
func TestFiguresMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating the figures takes about 45 s")
	}
	if raceEnabled() {
		t.Skip("regenerating the figures under the race detector takes minutes")
	}
	for _, tc := range []struct{ id, file string }{
		{"fig6a", "fig6a.txt"},
		{"fig7a", "fig7a_approx.txt"},
		{"fig7b", "fig7b_approx.txt"},
		{"fig7c", "fig7c_approx.txt"},
		{"fig7d", "fig7d_approx.txt"},
		{"fig8b", "fig8b.txt"},
	} {
		t.Run(tc.id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			figs, err := generate(tc.id, false, 0)
			if err != nil {
				t.Fatal(err)
			}
			blocks := strings.Split(strings.TrimRight(string(want), "\n"), "\n\n")
			if len(figs) != len(blocks) {
				t.Fatalf("%d figures, want the file's %d", len(figs), len(blocks))
			}
			for i, fig := range figs {
				compareTables(t, fig.String(), blocks[i])
			}
		})
	}
}

// compareTables compares a rendered figure with its committed table: the
// title and header lines as text, then each row cell by cell.
func compareTables(t *testing.T, got, want string) {
	t.Helper()
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(want, "\n"), "\n")
	if len(gotLines) != len(wantLines) || len(gotLines) < 2 {
		t.Fatalf("%d lines, want %d:\n%s", len(gotLines), len(wantLines), got)
	}
	for i := 0; i < 2; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d = %q, want %q", i+1, gotLines[i], wantLines[i])
		}
	}
	for i := 2; i < len(gotLines); i++ {
		g, w := strings.Fields(gotLines[i]), strings.Fields(wantLines[i])
		if len(g) != len(w) {
			t.Fatalf("line %d = %q, want %q", i+1, gotLines[i], wantLines[i])
		}
		for j := range g {
			if !sameCell(g[j], w[j]) {
				t.Errorf("line %d, column %d = %s, want %s", i+1, j+1, g[j], w[j])
			}
		}
	}
}

// sameCell reports whether two table cells agree: integers exactly, other
// numbers within 1e-6 relative, anything else as text.
func sameCell(got, want string) bool {
	gi, gerr := strconv.Atoi(got)
	wi, werr := strconv.Atoi(want)
	if gerr == nil && werr == nil {
		return gi == wi
	}
	gf, gerr := strconv.ParseFloat(got, 64)
	wf, werr := strconv.ParseFloat(want, 64)
	if gerr != nil || werr != nil {
		return got == want
	}
	return math.Abs(gf-wf) <= 1e-6*math.Max(math.Abs(gf), math.Abs(wf))
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
