package sparse

import (
	"math/rand"
	"testing"
)

func benchMatrix(b *testing.B, n, perRow int) (*CSR, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	bl := NewBuilder(n, n)
	for r := 0; r < n; r++ {
		for k := 0; k < perRow; k++ {
			bl.Add(r, rng.Intn(n), rng.Float64())
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	return bl.Build(), x
}

func BenchmarkMulVecTTo(b *testing.B) {
	m, x := benchMatrix(b, 20000, 8)
	dst := make([]float64, m.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MulVecTTo(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulVecTTo4 compares the 4-lane kernel with four single-lane
// MulVecTTo calls over the same vectors, on a banded matrix shaped like an
// approx level's uniformized chain: 1,650 states, 31 nonzeros a row.
func BenchmarkMulVecTTo4(b *testing.B) {
	const n, band = 1650, 31
	rng := rand.New(rand.NewSource(3))
	bl := NewBuilder(n, n)
	for r := 0; r < n; r++ {
		for c := max(0, r-band/2); c < min(n, r-band/2+band); c++ {
			bl.Add(r, c, rng.Float64())
		}
	}
	m := bl.Build()
	lanes := make([][]float64, Lanes)
	x := make([]float64, Lanes*n)
	for l := range lanes {
		lanes[l] = make([]float64, n)
		for r := range lanes[l] {
			lanes[l][r] = rng.Float64()
			x[r*Lanes+l] = lanes[l][r]
		}
	}
	b.Run("lanes=4", func(b *testing.B) {
		dst := make([]float64, Lanes*n)
		for i := 0; i < b.N; i++ {
			if err := m.MulVecTTo4(dst, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lanes=1x4", func(b *testing.B) {
		dst := make([]float64, n)
		for i := 0; i < b.N; i++ {
			for _, lane := range lanes {
				if err := m.MulVecTTo(dst, lane); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkMulVecTo(b *testing.B) {
	m, x := benchMatrix(b, 20000, 8)
	dst := make([]float64, m.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MulVecTo(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n, nnz = 20000, 160000
	rows := make([]int, nnz)
	cols := make([]int, nnz)
	for i := range rows {
		rows[i], cols[i] = rng.Intn(n), rng.Intn(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(n, n)
		for k := range rows {
			bl.Add(rows[k], cols[k], 1)
		}
		if m := bl.Build(); m.NNZ() == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkBuildReset measures the arena path: one builder and one CSR
// cycled through Reset/BuildInto, the shape level rebuilds use.
func BenchmarkBuildReset(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n, nnz = 20000, 160000
	rows := make([]int, nnz)
	cols := make([]int, nnz)
	for i := range rows {
		rows[i], cols[i] = rng.Intn(n), rng.Intn(n)
	}
	bl := NewBuilder(n, n)
	var m CSR
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.Reset(n, n)
		for k := range rows {
			bl.Add(rows[k], cols[k], 1)
		}
		if bl.BuildInto(&m); m.NNZ() == 0 {
			b.Fatal("empty")
		}
	}
}
