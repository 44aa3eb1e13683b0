// Package rmq provides range-minimum-query structures over int32 slices:
// a Sparse table (O(n log n) preprocessing, O(1) query) and the
// Bender–Farach-Colton ±1 structure (O(n) preprocessing, O(1) query) for
// sequences whose adjacent elements differ by exactly one — the Euler-tour
// depth sequences used for lowest-common-ancestor queries (paper reference
// [1]; used by Theorem 2.4 and Lemma 3.1).
package rmq

import "math/bits"

// Sparse is a standard sparse-table RMQ. It reports the index of the
// minimum over a half-open range; ties break toward the leftmost index.
type Sparse struct {
	data []int32
	// table[k] holds, for each i, the index of the minimum of
	// data[i : i+2^k].
	table [][]int32
}

// NewSparse builds a sparse table over data. The slice is retained, not
// copied; callers must not mutate it afterwards.
func NewSparse(data []int32) *Sparse {
	n := len(data)
	s := &Sparse{data: data}
	if n == 0 {
		return s
	}
	levels := bits.Len(uint(n))
	s.table = make([][]int32, levels)
	row := make([]int32, n)
	for i := range row {
		row[i] = int32(i)
	}
	s.table[0] = row
	for k := 1; k < levels; k++ {
		width := 1 << k
		prev := s.table[k-1]
		cur := make([]int32, n-width+1)
		half := width / 2
		for i := range cur {
			a, b := prev[i], prev[i+half]
			if data[b] < data[a] {
				a = b
			}
			cur[i] = a
		}
		s.table[k] = cur
	}
	return s
}

// MinIndex returns the index of the minimum of data[i:j]. It panics if the
// range is empty or out of bounds.
func (s *Sparse) MinIndex(i, j int) int {
	if i < 0 || j > len(s.data) || i >= j {
		panic("rmq: empty or out-of-range query")
	}
	k := bits.Len(uint(j-i)) - 1
	a := s.table[k][i]
	b := s.table[k][j-(1<<k)]
	if s.data[b] < s.data[a] {
		a = b
	}
	if b < a && s.data[b] == s.data[a] {
		a = b
	}
	return int(a)
}

// PM1 answers range-minimum queries over a ±1 sequence in O(1) after O(n)
// preprocessing, via the classical block decomposition: the sequence is cut
// into blocks of length ~log(n)/2; in-block queries use tables shared by
// all blocks with the same ±1 shape, and cross-block queries use a sparse
// table over the block minima.
type PM1 struct {
	data   []int32
	block  int     // block length
	shape  []int32 // normalized shape id per block
	starts []int32 // block start offsets (redundant, = i*block, kept for clarity)
	mins   *Sparse // sparse table over per-block minima
	minIdx []int32 // index (absolute) of each block's minimum
	// inner[shape*block² + l*block + r] is the offset of the min of
	// positions [l,r] within a block of that shape; one flat table, so the
	// preprocessing allocates O(1) slices however many shapes occur.
	inner []int8
}

// NewPM1 builds the ±1 RMQ structure. Adjacent elements of data must differ
// by exactly 1 (this is asserted); the slice is retained.
func NewPM1(data []int32) *PM1 {
	n := len(data)
	p := &PM1{data: data}
	if n == 0 {
		return p
	}
	for i := 1; i < n; i++ {
		d := data[i] - data[i-1]
		if d != 1 && d != -1 {
			panic("rmq: NewPM1 requires a ±1 sequence")
		}
	}
	b := bits.Len(uint(n)) / 2
	if b < 1 {
		b = 1
	}
	p.block = b
	numBlocks := (n + b - 1) / b
	blockMins := make([]int32, numBlocks)
	p.minIdx = make([]int32, numBlocks)
	p.shape = make([]int32, numBlocks)
	shapes := 1 << (b - 1)
	bb := b * b
	p.inner = make([]int8, shapes*bb)
	built := make([]bool, shapes)
	vals := make([]int32, b)
	for bi := 0; bi < numBlocks; bi++ {
		lo := bi * b
		hi := lo + b
		if hi > n {
			hi = n
		}
		// Shape: bit k set iff data[lo+k+1] > data[lo+k]. Short final
		// blocks are padded with ascending steps, which never win a
		// minimum against real elements of the padded suffix queries
		// because queries are clamped to the real range.
		shape := int32(0)
		for k := 0; k+1 < hi-lo; k++ {
			if data[lo+k+1] > data[lo+k] {
				shape |= 1 << k
			}
		}
		p.shape[bi] = shape
		tbl := p.inner[int(shape)*bb : int(shape+1)*bb]
		if !built[shape] {
			buildInner(tbl, vals, shape, b)
			built[shape] = true
		}
		// Block minimum via the inner table on the real extent.
		off := tbl[0*b+(hi-lo-1)]
		idx := lo + int(off)
		p.minIdx[bi] = int32(idx)
		blockMins[bi] = data[idx]
	}
	p.mins = NewSparse(blockMins)
	return p
}

// buildInner precomputes, for a block shape, the offset of the minimum for
// every in-block subrange [l, r], using prefix sums of the ±1 steps, into
// tbl (b² entries); vals is b entries of scratch.
func buildInner(tbl []int8, vals []int32, shape int32, b int) {
	for k := 1; k < b; k++ {
		if shape&(1<<(k-1)) != 0 {
			vals[k] = vals[k-1] + 1
		} else {
			vals[k] = vals[k-1] - 1
		}
	}
	for l := 0; l < b; l++ {
		best := l
		for r := l; r < b; r++ {
			if vals[r] < vals[best] {
				best = r
			}
			tbl[l*b+r] = int8(best)
		}
	}
}

// innerBase returns the offset of block bi's shape table in inner.
func (p *PM1) innerBase(bi int) int { return int(p.shape[bi]) * p.block * p.block }

// MinIndex returns the index of the minimum of data[i:j] (leftmost on
// ties). It panics if the range is empty or out of bounds.
func (p *PM1) MinIndex(i, j int) int {
	if i < 0 || j > len(p.data) || i >= j {
		panic("rmq: empty or out-of-range query")
	}
	j-- // work on the closed range [i, j]
	b := p.block
	bi, bj := i/b, j/b
	if bi == bj {
		off := p.inner[p.innerBase(bi)+(i-bi*b)*b+(j-bi*b)]
		return bi*b + int(off)
	}
	// Prefix of bi, suffix of bj, and whole blocks in between.
	offL := p.inner[p.innerBase(bi)+(i-bi*b)*b+(b-1)]
	lastL := bi*b + b - 1
	if lastL > len(p.data)-1 {
		// Cannot happen: bi < bj implies block bi is complete.
		lastL = len(p.data) - 1
	}
	best := bi*b + int(offL)
	offR := p.inner[p.innerBase(bj)+0*b+(j-bj*b)]
	cand := bj*b + int(offR)
	if p.data[cand] < p.data[best] {
		best = cand
	}
	if bj-bi > 1 {
		mid := int(p.minIdx[p.mins.MinIndex(bi+1, bj)])
		if p.data[mid] < p.data[best] {
			best = mid
		}
	}
	return best
}
