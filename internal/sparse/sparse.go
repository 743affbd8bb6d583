// Package sparse implements the compressed-sparse-row matrices backing the
// Markov-chain generators in this repository. The state spaces of the
// SC-Share performance models reach millions of states with a handful of
// transitions each, so dense storage is not an option and the Go ecosystem
// offers no stdlib alternative.
package sparse

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrShape is returned when matrix and vector dimensions do not agree.
var ErrShape = errors.New("sparse: dimension mismatch")

// Builder accumulates coordinate-form entries; duplicate coordinates are
// summed when the CSR matrix is built, which makes transition-rate assembly
// ("add rate r from state a to state b") natural. A Builder owns sorting
// scratch that is reused across Build calls, so a long-lived Builder cycled
// through Reset assembles chains without reallocating. Entries added in CSR
// order — rows ascending, columns strictly ascending within a row, as a
// generator assembled row by row emits them — skip the sort altogether.
type Builder struct {
	rows, cols int
	entries    []entry
	// unordered records that some Add broke CSR order (or repeated a
	// coordinate), so Build must sort and merge.
	unordered bool
	// Build scratch, retained across calls so repeated assembly of
	// similarly sized chains stops allocating.
	sorted []entry
	counts []int
	next   []int
}

type entry struct {
	r, c int
	v    float64
}

// NewBuilder returns a builder for a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Reset discards all accumulated entries and re-dimensions the builder to
// rows x cols, retaining the entry and scratch storage so the next assembly
// reuses it. It is the allocation-free alternative to NewBuilder for level
// rebuilds.
func (b *Builder) Reset(rows, cols int) {
	b.rows, b.cols = rows, cols
	b.entries = b.entries[:0]
	b.unordered = false
}

// Add accumulates v at (r, c). Out-of-range coordinates panic: they are
// programming errors in state-space enumeration, not runtime conditions.
func (b *Builder) Add(r, c int, v float64) {
	if r < 0 || r >= b.rows || c < 0 || c >= b.cols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d matrix", r, c, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	if n := len(b.entries); n > 0 {
		if last := b.entries[n-1]; r < last.r || r == last.r && c <= last.c {
			b.unordered = true
		}
	}
	b.entries = append(b.entries, entry{r: r, c: c, v: v})
}

// NNZ returns the number of accumulated (possibly duplicate) entries.
func (b *Builder) NNZ() int { return len(b.entries) }

// Build produces a fresh CSR matrix, summing duplicates and dropping exact
// zeros. The builder can be reused afterwards; it is left unchanged.
func (b *Builder) Build() *CSR {
	return b.BuildInto(nil)
}

// BuildInto assembles the CSR matrix into m, reusing m's index and value
// storage when capacities allow (m may be nil or zero-valued, in which case
// the storage is allocated). Entries added in CSR order are copied straight
// across; otherwise they are ordered with a counting sort by row followed by
// per-row column sorts, which avoids reflection-based sorting on the hot
// path of chain assembly. The returned matrix is m (or a fresh one when m is
// nil); any previous contents are overwritten.
func (b *Builder) BuildInto(m *CSR) *CSR {
	if m == nil {
		m = &CSR{}
	}
	if !b.unordered {
		return b.buildOrdered(m)
	}
	b.counts = growInts(b.counts, b.rows+1)
	counts := b.counts
	for i := range counts {
		counts[i] = 0
	}
	for _, e := range b.entries {
		counts[e.r+1]++
	}
	for r := 0; r < b.rows; r++ {
		counts[r+1] += counts[r]
	}
	if cap(b.sorted) < len(b.entries) {
		b.sorted = make([]entry, len(b.entries))
	}
	es := b.sorted[:len(b.entries)]
	b.next = growInts(b.next, b.rows)
	next := b.next
	for i := range next {
		next[i] = 0
	}
	for _, e := range b.entries {
		pos := counts[e.r] + next[e.r]
		es[pos] = e
		next[e.r]++
	}
	for r := 0; r < b.rows; r++ {
		row := es[counts[r]:counts[r+1]]
		slices.SortFunc(row, func(a, b entry) int { return a.c - b.c })
	}
	m.Rows, m.Cols = b.rows, b.cols
	m.RowPtr = growInts(m.RowPtr, b.rows+1)
	for i := range m.RowPtr {
		m.RowPtr[i] = 0
	}
	m.ColIdx = m.ColIdx[:0]
	m.Val = m.Val[:0]
	for i := 0; i < len(es); {
		j := i
		v := 0.0
		for ; j < len(es) && es[j].r == es[i].r && es[j].c == es[i].c; j++ {
			v += es[j].v
		}
		if v != 0 {
			m.ColIdx = append(m.ColIdx, es[i].c)
			m.Val = append(m.Val, v)
			m.RowPtr[es[i].r+1]++
		}
		i = j
	}
	for r := 0; r < b.rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// buildOrdered is BuildInto for entries that arrived in CSR order: every
// coordinate is distinct and non-zero, so the entries are the matrix.
func (b *Builder) buildOrdered(m *CSR) *CSR {
	nnz := len(b.entries)
	m.Rows, m.Cols = b.rows, b.cols
	m.RowPtr = growInts(m.RowPtr, b.rows+1)
	clear(m.RowPtr)
	m.ColIdx = growInts(m.ColIdx, nnz)
	if cap(m.Val) < nnz {
		m.Val = make([]float64, nnz)
	}
	m.Val = m.Val[:nnz]
	for i, e := range b.entries {
		m.ColIdx[i], m.Val[i] = e.c, e.v
		m.RowPtr[e.r+1]++
	}
	for r := 0; r < b.rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// growInts returns s resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns the value at (r, c) with a binary search over the row; it is
// intended for tests and diagnostics, not hot loops.
func (m *CSR) At(r, c int) float64 {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		return 0
	}
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	i := sort.SearchInts(m.ColIdx[lo:hi], c) + lo
	if i < hi && m.ColIdx[i] == c {
		return m.Val[i]
	}
	return 0
}

// MulVecTo computes dst = m * x into the caller-provided buffer without
// allocating. dst and x must not alias. It is one of the two multiply
// kernels this package exposes; there is deliberately no allocating
// convenience variant.
func (m *CSR) MulVecTo(dst, x []float64) error {
	if len(x) != m.Cols || len(dst) != m.Rows {
		return ErrShape
	}
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			s += m.Val[i] * x[m.ColIdx[i]]
		}
		dst[r] = s
	}
	return nil
}

// MulVecTTo computes dst = x * m (that is, dst = mᵀ x), the operation used
// to push probability vectors through a transition matrix, into the
// caller-provided buffer without allocating. dst and x must not alias. Like
// MulVecTo it is a dst-first kernel with no allocating variant.
func (m *CSR) MulVecTTo(dst, x []float64) error {
	if len(x) != m.Rows || len(dst) != m.Cols {
		return ErrShape
	}
	clear(dst)
	for r, xr := range x {
		if xr == 0 {
			continue
		}
		// Equal-length row sub-slices let the compiler drop the per-entry
		// bounds checks on the index and value arrays.
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		cols := m.ColIdx[lo:hi]
		vals := m.Val[lo:hi]
		vals = vals[:len(cols)]
		for i, c := range cols {
			dst[c] += vals[i] * xr
		}
	}
	return nil
}

// Lanes is the number of vectors MulVecTTo4 multiplies in one pass.
const Lanes = 4

// MulVecTTo4 is MulVecTTo over Lanes vectors at once, stored interleaved:
// lane l of entry i sits at x[i*Lanes+l], in dst as in x. One pass over the
// rows pushes all four lanes, reading each row's indices and values once.
// Every lane's result is bit-identical to MulVecTTo on that lane alone:
// each column accumulates its row contributions in the same row order, and
// a lane whose entry is zero on a row adds val*0 = +0, which leaves any sum
// unchanged (the sums start at +0, so none is ever -0). Rows whose entry is
// zero in every lane are skipped. dst and x must not alias.
func (m *CSR) MulVecTTo4(dst, x []float64) error {
	if len(x) != Lanes*m.Rows || len(dst) != Lanes*m.Cols {
		return ErrShape
	}
	clear(dst)
	for r := 0; r < m.Rows; r++ {
		xr := x[r*Lanes : r*Lanes+Lanes : r*Lanes+Lanes]
		x0, x1, x2, x3 := xr[0], xr[1], xr[2], xr[3]
		if x0 == 0 && x1 == 0 && x2 == 0 && x3 == 0 {
			continue
		}
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		cols := m.ColIdx[lo:hi]
		vals := m.Val[lo:hi]
		vals = vals[:len(cols)]
		for i, c := range cols {
			v := vals[i]
			d := dst[c*Lanes : c*Lanes+Lanes : c*Lanes+Lanes]
			d[0] += v * x0
			d[1] += v * x1
			d[2] += v * x2
			d[3] += v * x3
		}
	}
	return nil
}

// RowSums returns the vector of row sums.
func (m *CSR) RowSums() []float64 {
	return m.RowSumsInto(nil)
}

// RowSumsInto computes the vector of row sums into dst, reusing its storage
// when the capacity allows (dst may be nil).
func (m *CSR) RowSumsInto(dst []float64) []float64 {
	if cap(dst) < m.Rows {
		dst = make([]float64, m.Rows)
	}
	dst = dst[:m.Rows]
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			s += m.Val[i]
		}
		dst[r] = s
	}
	return dst
}

// Scale multiplies every stored value by f in place.
func (m *CSR) Scale(f float64) {
	for i := range m.Val {
		m.Val[i] *= f
	}
}

// Transpose returns mᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	return m.TransposeInto(nil)
}

// TransposeInto computes mᵀ into dst, reusing dst's storage when capacities
// allow (dst may be nil). It runs a direct counting transpose — no builder,
// no sort — since CSR rows are already column-ordered.
func (m *CSR) TransposeInto(dst *CSR) *CSR {
	if dst == nil {
		dst = &CSR{}
	}
	nnz := len(m.Val)
	dst.Rows, dst.Cols = m.Cols, m.Rows
	dst.RowPtr = growInts(dst.RowPtr, m.Cols+1)
	for i := range dst.RowPtr {
		dst.RowPtr[i] = 0
	}
	dst.ColIdx = growInts(dst.ColIdx, nnz)
	if cap(dst.Val) < nnz {
		dst.Val = make([]float64, nnz)
	}
	dst.Val = dst.Val[:nnz]
	for i := 0; i < nnz; i++ {
		dst.RowPtr[m.ColIdx[i]+1]++
	}
	for c := 0; c < m.Cols; c++ {
		dst.RowPtr[c+1] += dst.RowPtr[c]
	}
	// Walking source rows in order fills each destination row with
	// ascending column indices, preserving the CSR ordering invariant.
	// RowPtr doubles as the fill cursor (the classic shift trick), so the
	// transpose needs no scratch of its own.
	for r := 0; r < m.Rows; r++ {
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			c := m.ColIdx[i]
			pos := dst.RowPtr[c]
			dst.ColIdx[pos] = r
			dst.Val[pos] = m.Val[i]
			dst.RowPtr[c]++
		}
	}
	for c := m.Cols; c > 0; c-- {
		dst.RowPtr[c] = dst.RowPtr[c-1]
	}
	dst.RowPtr[0] = 0
	return dst
}

// Dense expands the matrix to row-major dense form; for tests only.
func (m *CSR) Dense() [][]float64 {
	out := make([][]float64, m.Rows)
	for r := range out {
		out[r] = make([]float64, m.Cols)
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			out[r][m.ColIdx[i]] = m.Val[i]
		}
	}
	return out
}
