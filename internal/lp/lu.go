// Sparse LU factorization of the simplex basis, with a Forrest–Tomlin-style
// eta file for in-place updates between refactorizations.
//
// The basis matrices of the SherLock encodings are extremely sparse and
// near-triangular (slacks, surpluses, and per-row singleton ε columns make
// up most of any basis), so the working representation is
//
//	B₀ = P⁻¹·L·U        (row-permuted sparse triangular factors)
//	B  = B₀·E₁·E₂·…·Eₛ  (one eta matrix per pivot since the last refactor)
//
// where each Eta is the identity except for one column — the FTRAN image of
// the entering column at the pivot that produced it. FTRAN and BTRAN solve
// through the factors and the eta file in O(nnz) per pass instead of the
// O(m²) a dense basis inverse costs, and a pivot appends one sparse eta in
// O(nnz(t)) instead of updating m² inverse entries.
//
// The factorization itself is a left-looking Gilbert–Peierls elimination
// with partial pivoting: columns are processed in basis order, each solved
// against the L computed so far (eliminations applied in ascending pivot
// position via a small min-heap, so discovery order never changes the
// arithmetic), and the pivot row is the remaining row of largest magnitude
// with ties broken toward the smallest row index. Every choice is a
// deterministic function of the matrix, which keeps warm- and cold-started
// solves byte-reproducible.
//
// Refactorization policy (see revised.maybeRefactor): the eta file is
// rebuilt into a fresh factorization when it grows past etaRefactorEvery
// updates, when its fill-in exceeds the factor size by etaFillSlack·m, or
// when a pivot magnitude falls under stabTol — whichever comes first. On
// refactorization the basic values and reduced costs are recomputed from
// scratch, bounding numerical drift.
package lp

import "math"

const (
	// etaRefactorEvery bounds the eta file length between refactorizations.
	// Tests override it to 1 to force the pure-LU path.
	defaultEtaRefactorEvery = 64
	// etaFillSlack scales the fill-in refactorization trigger: refactor when
	// the eta file holds more than nnz(LU) + etaFillSlack·m entries.
	etaFillSlack = 4
	// tinyPivot is the singularity threshold during factorization.
	tinyPivot = 1e-11
	// stabTol triggers a defensive refactorization before pivoting on a
	// suspiciously small tableau entry.
	stabTol = 1e-7
)

// luFactors is the sparse factorization P·B₀ = L·U. Position k of the
// basis was pivoted on original row pivrow[k]; pinv is the inverse
// permutation. L is unit lower triangular with the implicit diagonal
// dropped; its column k stores below-diagonal entries by original row
// (all of which pivot at positions > k). U's column k stores its
// above-diagonal entries by pivot position j < k; the diagonal is kept
// apart. Both are stored compressed (sparseMat): the factorization
// completes column k before it starts k+1, so each factor is filled by
// plain appends plus one start offset per column.
type luFactors struct {
	m      int
	pivrow []int32
	pinv   []int32

	l    sparseMat
	u    sparseMat
	diag []float64

	nnz int // total stored entries across L, U and the diagonal
}

// posHeap is a minimal int32 min-heap used to apply eliminations in
// ascending pivot-position order during factorization.
type posHeap []int32

func (h *posHeap) push(v int32) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *posHeap) pop() int32 {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(*h) && (*h)[l] < (*h)[s] {
			s = l
		}
		if r < len(*h) && (*h)[r] < (*h)[s] {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return top
}

// factorizeBasis computes the LU factorization of the m columns selected by
// basis out of cols. It reports ok=false when the matrix is numerically
// singular (no pivot above tinyPivot in some column), in which case the
// caller must fall back to a different basis.
func factorizeBasis(ws *workspace, cols *sparseMat, basis []int, m int) (*luFactors, bool) {
	nnz := 0
	for _, j := range basis {
		nnz += int(cols.start[j+1] - cols.start[j])
	}
	// The factors, the permutation and the work arrays come out of the
	// workspace; the L and U entry lists start with room for nnz(B) each
	// and grow on the heap past it. A factorization the solve replaces
	// stays intact until the workspace is reset, so a failed
	// refactorization can leave the previous one live.
	int32s := ws.int32s.take(6*m + 2 + 2*nnz)
	floats := ws.floats.take(2*m + 2*nnz)
	flags := ws.flags.take(2 * m)
	f := &luFactors{
		m:      m,
		pivrow: carve(&int32s, m),
		pinv:   carve(&int32s, m),
		l: sparseMat{
			start: carve(&int32s, m+1),
			idx:   carve(&int32s, nnz)[:0],
			val:   carve(&floats, nnz)[:0],
		},
		u: sparseMat{
			start: carve(&int32s, m+1),
			idx:   carve(&int32s, nnz)[:0],
			val:   carve(&floats, nnz)[:0],
		},
		diag: carve(&floats, m),
	}
	for i := range f.pinv {
		f.pinv[i] = -1
	}

	w := carve(&floats, m)                 // dense work column, by original row
	touched := carve(&int32s, m)[:0]       // rows scattered or filled this column
	inCol := carve(&flags, m)              // membership in touched
	queued := carve(&flags, m)             // position already in the heap
	heap := posHeap(carve(&int32s, m)[:0]) // holds each position at most once

	for k := 0; k < m; k++ {
		rows, vals := cols.line(basis[k])
		for idx, r := range rows {
			w[r] = vals[idx]
			touched = append(touched, r)
			inCol[r] = true
			if p := f.pinv[r]; p >= 0 && !queued[p] {
				queued[p] = true
				heap.push(p)
			}
		}
		// Eliminate with already-pivoted columns in ascending position
		// order; new fill can only appear at later positions or unpivoted
		// rows, so the heap order is an elimination order.
		for len(heap) > 0 {
			j := heap.pop()
			queued[j] = false
			v := w[f.pivrow[j]]
			if v == 0 {
				continue
			}
			f.u.idx = append(f.u.idx, j)
			f.u.val = append(f.u.val, v)
			lr, lv := f.l.line(int(j))
			for idx, r := range lr {
				if !inCol[r] {
					w[r] = 0
					touched = append(touched, r)
					inCol[r] = true
					if p := f.pinv[r]; p >= 0 && !queued[p] {
						queued[p] = true
						heap.push(p)
					}
				}
				w[r] -= v * lv[idx]
			}
		}
		// Partial pivoting over the remaining rows: largest magnitude,
		// ties toward the smallest original row index.
		piv, best := int32(-1), 0.0
		for _, r := range touched {
			if f.pinv[r] >= 0 {
				continue
			}
			if a := math.Abs(w[r]); a > best || (a == best && piv >= 0 && r < piv && a > 0) {
				best, piv = a, r
			}
		}
		if piv < 0 || best <= tinyPivot {
			return nil, false
		}
		d := w[piv]
		f.diag[k] = d
		f.pivrow[k] = piv
		f.pinv[piv] = int32(k)
		lo := len(f.l.idx)
		for _, r := range touched {
			if f.pinv[r] >= 0 || w[r] == 0 {
				continue
			}
			f.l.idx = append(f.l.idx, r)
			f.l.val = append(f.l.val, w[r]/d)
		}
		sortLCol(f.l.idx[lo:], f.l.val[lo:])
		f.l.start[k+1] = int32(len(f.l.idx))
		f.u.start[k+1] = int32(len(f.u.idx))
		f.nnz += len(f.l.idx) - lo + int(f.u.start[k+1]-f.u.start[k]) + 1
		for _, r := range touched {
			w[r] = 0
			inCol[r] = false
		}
		touched = touched[:0]
	}
	return f, true
}

// sortLCol orders an L column by original row index (insertion sort — the
// columns are short). A canonical order makes the transpose-solve
// accumulation independent of fill discovery order.
func sortLCol(rows []int32, vals []float64) {
	for i := 1; i < len(rows); i++ {
		r, v := rows[i], vals[i]
		j := i
		for j > 0 && rows[j-1] > r {
			rows[j], vals[j] = rows[j-1], vals[j-1]
			j--
		}
		rows[j], vals[j] = r, v
	}
}

// ftran solves B₀·x = w. On entry w is dense and indexed by original row;
// it is consumed (zeroed). The position-indexed solution is written to out.
func (f *luFactors) ftran(w, out []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		v := w[f.pivrow[k]]
		if v != 0 {
			lr, lv := f.l.line(k)
			for idx, r := range lr {
				w[r] -= v * lv[idx]
			}
		}
	}
	for k := 0; k < m; k++ {
		r := f.pivrow[k]
		out[k] = w[r]
		w[r] = 0
	}
	for k := m - 1; k >= 0; k-- {
		t := out[k] / f.diag[k]
		out[k] = t
		if t != 0 {
			ur, uv := f.u.line(k)
			for idx, j := range ur {
				out[j] -= t * uv[idx]
			}
		}
	}
}

// btran solves yᵀ·B₀ = cᵀ. On entry c is dense and indexed by basis
// position; it is consumed. The original-row-indexed solution is written
// to out (fully overwritten).
func (f *luFactors) btran(c, out []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		s := c[k]
		ur, uv := f.u.line(k)
		for idx, j := range ur {
			s -= uv[idx] * c[j]
		}
		c[k] = s / f.diag[k]
	}
	for k := m - 1; k >= 0; k-- {
		s := c[k]
		lr, lv := f.l.line(k)
		for idx, r := range lr {
			s -= lv[idx] * c[f.pinv[r]]
		}
		c[k] = s
	}
	for k := 0; k < m; k++ {
		out[f.pivrow[k]] = c[k]
		c[k] = 0
	}
}

// etaFile is the sequence of basis updates since the last
// refactorization, stored compressed: update q replaced basis position
// pos[q] by a column whose FTRAN image had diagonal diag[q] at that
// position and the off-diagonal entries (by position)
// idx/val[end[q-1]:end[q]] (from 0 for q = 0). The zero value is empty;
// reset keeps the buffers for the next run of updates.
type etaFile struct {
	pos  []int32
	diag []float64
	end  []int32
	idx  []int32
	val  []float64
}

// len returns the number of updates in the file.
func (e *etaFile) len() int { return len(e.pos) }

// push closes an update whose off-diagonal entries were appended to
// idx/val since the previous one.
func (e *etaFile) push(pos int32, diag float64) {
	e.pos = append(e.pos, pos)
	e.diag = append(e.diag, diag)
	e.end = append(e.end, int32(len(e.idx)))
}

// reset empties the file.
func (e *etaFile) reset() {
	e.pos, e.diag, e.end = e.pos[:0], e.diag[:0], e.end[:0]
	e.idx, e.val = e.idx[:0], e.val[:0]
}

// ftran applies E⁻¹ of every update, oldest first, to the
// position-indexed vector x in place.
func (e *etaFile) ftran(x []float64) {
	lo := int32(0)
	for q, p := range e.pos {
		hi := e.end[q]
		xp := x[p] / e.diag[q]
		x[p] = xp
		if xp != 0 {
			for k := lo; k < hi; k++ {
				x[e.idx[k]] -= e.val[k] * xp
			}
		}
		lo = hi
	}
}

// btran applies E⁻ᵀ of every update, newest first, to the
// position-indexed vector y in place.
func (e *etaFile) btran(y []float64) {
	for q := len(e.pos) - 1; q >= 0; q-- {
		lo := int32(0)
		if q > 0 {
			lo = e.end[q-1]
		}
		p := e.pos[q]
		s := y[p]
		for k := lo; k < e.end[q]; k++ {
			s -= e.val[k] * y[e.idx[k]]
		}
		y[p] = s / e.diag[q]
	}
}
