package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func buildSmall(t *testing.T) *CSR {
	t.Helper()
	b := NewBuilder(3, 4)
	b.Add(0, 0, 1)
	b.Add(0, 3, 2)
	b.Add(1, 1, 3)
	b.Add(2, 0, 4)
	b.Add(2, 2, 5)
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	m := buildSmall(t)
	if m.NNZ() != 5 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	want := [][]float64{{1, 0, 0, 2}, {0, 3, 0, 0}, {4, 0, 5, 0}}
	got := m.Dense()
	for r := range want {
		for c := range want[r] {
			if got[r][c] != want[r][c] {
				t.Errorf("(%d,%d) = %v, want %v", r, c, got[r][c], want[r][c])
			}
			if m.At(r, c) != want[r][c] {
				t.Errorf("At(%d,%d) = %v, want %v", r, c, m.At(r, c), want[r][c])
			}
		}
	}
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1.5)
	b.Add(0, 1, 2.5)
	b.Add(1, 0, 3)
	b.Add(1, 0, -3) // cancels to zero and must be dropped
	m := b.Build()
	if m.At(0, 1) != 4 {
		t.Errorf("duplicate sum = %v", m.At(0, 1))
	}
	if m.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1 (zero entry dropped)", m.NNZ())
	}
}

func TestBuilderIgnoresZero(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Add(0, 0, 0)
	if b.NNZ() != 0 {
		t.Error("zero entry stored")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestMulVecTo(t *testing.T) {
	m := buildSmall(t)
	x := []float64{1, 2, 3, 4}
	dst := make([]float64, 3)
	if err := m.MulVecTo(dst, x); err != nil {
		t.Fatal(err)
	}
	want := []float64{9, 6, 19}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	if err := m.MulVecTo(dst, x[:2]); err != ErrShape {
		t.Errorf("shape error not reported: %v", err)
	}
}

func TestMulVecTTo(t *testing.T) {
	m := buildSmall(t)
	x := []float64{1, 2, 3}
	dst := make([]float64, 4)
	if err := m.MulVecTTo(dst, x); err != nil {
		t.Fatal(err)
	}
	want := []float64{13, 6, 15, 2}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	if err := m.MulVecTTo(dst[:1], x); err != ErrShape {
		t.Errorf("shape error not reported: %v", err)
	}
}

func TestRowSumsScale(t *testing.T) {
	m := buildSmall(t)
	rs := m.RowSums()
	want := []float64{3, 3, 9}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("row sum %d = %v", i, rs[i])
		}
	}
	m.Scale(2)
	if m.At(2, 2) != 10 {
		t.Errorf("Scale: got %v", m.At(2, 2))
	}
}

func TestTranspose(t *testing.T) {
	m := buildSmall(t)
	mt := m.Transpose()
	if mt.Rows != m.Cols || mt.Cols != m.Rows {
		t.Fatalf("transpose shape %dx%d", mt.Rows, mt.Cols)
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if m.At(r, c) != mt.At(c, r) {
				t.Errorf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
}

// TestMulVecTMatchesTransposeMulVec checks x*M == Mᵀx on random matrices.
func TestMulVecTMatchesTransposeMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		b := NewBuilder(rows, cols)
		for k := 0; k < rng.Intn(20); k++ {
			b.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		m := b.Build()
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, cols)
		if err := m.MulVecTTo(got, x); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, cols)
		if err := m.Transpose().MulVecTo(want, x); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestAtOutOfRange(t *testing.T) {
	m := buildSmall(t)
	if m.At(-1, 0) != 0 || m.At(0, 99) != 0 {
		t.Error("out-of-range At should be 0")
	}
}

// Property: Build is independent of insertion order.
func TestBuildOrderIndependentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5
		var es []entry
		for k := 0; k < 15; k++ {
			es = append(es, entry{rng.Intn(n), rng.Intn(n), float64(rng.Intn(9) + 1)})
		}
		b1 := NewBuilder(n, n)
		for _, x := range es {
			b1.Add(x.r, x.c, x.v)
		}
		b2 := NewBuilder(n, n)
		perm := rng.Perm(len(es))
		for _, i := range perm {
			b2.Add(es[i].r, es[i].c, es[i].v)
		}
		m1, m2 := b1.Build(), b2.Build()
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if math.Abs(m1.At(r, c)-m2.At(r, c)) > 1e-12 {
					return false
				}
			}
		}
		// The same matrix inserted in CSR order, duplicates pre-summed, takes
		// the sort-free path; it must equal, array for array, the shuffled
		// insertion, which takes the sorting path whenever its order breaks
		// CSR order. The values are small integers, so every summation
		// order is exact.
		dense := make([]float64, n*n)
		for _, x := range es {
			dense[x.r*n+x.c] += x.v
		}
		b3 := NewBuilder(n, n)
		for i, v := range dense {
			b3.Add(i/n, i%n, v)
		}
		if b3.unordered {
			return false
		}
		if b2.unordered != !inCSROrder(perm, es) {
			return false
		}
		// Sorted but with repeated coordinates is not CSR order: the
		// repeats must still be summed on the sorting path.
		sorted := slices.Clone(es)
		slices.SortStableFunc(sorted, func(a, b entry) int { return (a.r*n + a.c) - (b.r*n + b.c) })
		b4 := NewBuilder(n, n)
		ident := make([]int, len(sorted))
		for i, x := range sorted {
			b4.Add(x.r, x.c, x.v)
			ident[i] = i
		}
		if b4.unordered != !inCSROrder(ident, sorted) {
			return false
		}
		for _, m := range []*CSR{b3.Build(), b4.Build()} {
			if !slices.Equal(m.RowPtr, m2.RowPtr) || !slices.Equal(m.ColIdx, m2.ColIdx) || !slices.Equal(m.Val, m2.Val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// inCSROrder reports whether inserting es in perm order visits strictly
// ascending (row, column) coordinates.
func inCSROrder(perm []int, es []entry) bool {
	for k := 1; k < len(perm); k++ {
		a, b := es[perm[k-1]], es[perm[k]]
		if b.r < a.r || b.r == a.r && b.c <= a.c {
			return false
		}
	}
	return true
}

// TestMulVecTToMatchesNaive pins the sub-sliced transpose multiply bit for
// bit to the plain index loop, on random matrices and vectors with exact
// zeros: the kernel skips zero rows of x, the naive loop adds their signed
// zero products, and the sums must not differ in a single bit.
func TestMulVecTToMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		b := NewBuilder(rows, cols)
		for k := 0; k < 4*rows; k++ {
			b.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		m := b.Build()
		x := make([]float64, rows)
		for i := range x {
			if rng.Intn(3) > 0 {
				x[i] = rng.NormFloat64()
			}
		}
		want := make([]float64, cols)
		for r := 0; r < m.Rows; r++ {
			for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
				want[m.ColIdx[i]] += m.Val[i] * x[r]
			}
		}
		got := make([]float64, cols)
		for i := range got {
			got[i] = math.NaN() // every entry must be overwritten
		}
		if err := m.MulVecTTo(got, x); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: dst[%d] = %v, naive loop %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMulVecTTo4MatchesMulVecTTo pins the 4-lane kernel bit for bit to
// four MulVecTTo calls, one per lane, on random matrices with negative
// values: lanes that are zero throughout, rows that are zero in only some
// lanes (signed zeros included), and padded blocks whose trailing lanes are
// all zero, as the approx stepping runs them for fewer than four groups.
func TestMulVecTTo4MatchesMulVecTTo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		b := NewBuilder(rows, cols)
		for k := 0; k < 4*rows; k++ {
			b.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		m := b.Build()
		// used lanes hold data; the rest are the padding of a short block.
		used := 1 + trial%Lanes
		lanes := make([][]float64, Lanes)
		x := make([]float64, Lanes*rows)
		for l := range lanes {
			lanes[l] = make([]float64, rows)
			if l >= used || trial%7 == l {
				continue // all-zero lane
			}
			for r := range lanes[l] {
				switch rng.Intn(4) {
				case 0: // zero in this lane only
				case 1:
					lanes[l][r] = math.Copysign(0, -1)
				default:
					lanes[l][r] = rng.NormFloat64()
				}
				x[r*Lanes+l] = lanes[l][r]
			}
		}
		got := make([]float64, Lanes*cols)
		for i := range got {
			got[i] = math.NaN() // every entry must be overwritten
		}
		if err := m.MulVecTTo4(got, x); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, cols)
		for l, lane := range lanes {
			if err := m.MulVecTTo(want, lane); err != nil {
				t.Fatal(err)
			}
			for c, w := range want {
				if g := got[c*Lanes+l]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("trial %d lane %d: dst[%d] = %v (%#x), MulVecTTo %v (%#x)",
						trial, l, c, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
	m := NewBuilder(2, 3).Build()
	if err := m.MulVecTTo4(make([]float64, Lanes*2), make([]float64, Lanes*3)); err != ErrShape {
		t.Fatalf("transposed shapes: err %v, want ErrShape", err)
	}
}

// TestBuilderReset pins the arena contract: a Reset builder accepts a new
// shape, produces the same matrix a fresh builder would, and a BuildInto on
// a previously built CSR reuses its storage without allocating.
func TestBuilderReset(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Add(0, 0, 1)
	b.Add(0, 3, 2)
	b.Add(1, 1, 3)
	b.Add(2, 0, 4)
	b.Add(2, 2, 5)
	first := b.Build()

	b.Reset(2, 2)
	if b.NNZ() != 0 {
		t.Fatalf("NNZ after Reset = %d, want 0", b.NNZ())
	}
	b.Add(0, 1, 7)
	b.Add(1, 0, 8)
	small := b.Build()
	if small.Rows != 2 || small.Cols != 2 || small.At(0, 1) != 7 || small.At(1, 0) != 8 {
		t.Fatalf("post-Reset build wrong: %v", small.Dense())
	}
	// The first build must be unaffected by later Reset/Build cycles.
	if first.At(2, 2) != 5 || first.NNZ() != 5 {
		t.Fatal("Reset corrupted a previously built matrix")
	}

	// Rebuilding the original shape into the existing CSR must not allocate
	// once capacities are in place.
	b.Reset(3, 4)
	b.Add(0, 0, 1)
	b.Add(0, 3, 2)
	b.Add(1, 1, 3)
	b.Add(2, 0, 4)
	b.Add(2, 2, 5)
	reused := b.BuildInto(small)
	if reused != small {
		t.Fatal("BuildInto did not return its destination")
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if reused.At(r, c) != first.At(r, c) {
				t.Fatalf("BuildInto(%d,%d) = %v, want %v", r, c, reused.At(r, c), first.At(r, c))
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		b.Reset(3, 4)
		b.Add(0, 0, 1)
		b.Add(0, 3, 2)
		b.Add(1, 1, 3)
		b.Add(2, 0, 4)
		b.Add(2, 2, 5)
		b.BuildInto(reused)
	}); n != 0 {
		t.Errorf("Reset+BuildInto cycle allocates %v per run, want 0", n)
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var dst CSR
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		b := NewBuilder(rows, cols)
		for k := 0; k < rng.Intn(25); k++ {
			b.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		m := b.Build()
		mt := m.TransposeInto(&dst)
		if mt != &dst {
			t.Fatal("TransposeInto did not return its destination")
		}
		if mt.Rows != m.Cols || mt.Cols != m.Rows {
			t.Fatalf("transpose shape %dx%d", mt.Rows, mt.Cols)
		}
		for r := 0; r < m.Rows; r++ {
			for c := 0; c < m.Cols; c++ {
				if m.At(r, c) != mt.At(c, r) {
					t.Fatalf("trial %d: transpose mismatch at (%d,%d)", trial, r, c)
				}
			}
		}
		// The CSR column-ordering invariant must survive the counting
		// transpose (At depends on it).
		for r := 0; r < mt.Rows; r++ {
			for i := mt.RowPtr[r] + 1; i < mt.RowPtr[r+1]; i++ {
				if mt.ColIdx[i-1] >= mt.ColIdx[i] {
					t.Fatalf("trial %d: row %d columns not ascending", trial, r)
				}
			}
		}
	}
}

func TestRowSumsInto(t *testing.T) {
	m := buildSmall(t)
	buf := make([]float64, 3)
	got := m.RowSumsInto(buf)
	if &got[0] != &buf[0] {
		t.Fatal("RowSumsInto did not reuse its buffer")
	}
	want := []float64{3, 3, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row sum %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMulVecToShape(t *testing.T) {
	m := buildSmall(t)
	if err := m.MulVecTo(make([]float64, m.Rows), make([]float64, m.Cols+1)); err != ErrShape {
		t.Errorf("bad x length: err = %v, want ErrShape", err)
	}
	if err := m.MulVecTTo(make([]float64, m.Cols+1), make([]float64, m.Rows)); err != ErrShape {
		t.Errorf("bad dst length: err = %v, want ErrShape", err)
	}
}

// The matvec kernels sit inside every steady-state iteration; they must not
// allocate per call.
func TestMulVecToAllocFree(t *testing.T) {
	b := NewBuilder(64, 64)
	for r := 0; r < 64; r++ {
		b.Add(r, (r+1)%64, 1.5)
		b.Add(r, (r+17)%64, 0.5)
	}
	m := b.Build()
	x := make([]float64, 64)
	for i := range x {
		x[i] = float64(i)
	}
	dst := make([]float64, 64)
	if n := testing.AllocsPerRun(100, func() {
		if err := m.MulVecTo(dst, x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MulVecTo allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := m.MulVecTTo(dst, x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MulVecTTo allocates %v per run, want 0", n)
	}
}
