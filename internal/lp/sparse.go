// Sparse revised simplex. The SherLock encodings are >95% zeros — each
// Mostly-Protected row touches only the window's candidate keys — so the
// constraint matrix is stored compressed (sparseMat, column-major and
// row-major) and the working state is a sparse LU factorization of the
// basis (lu.go), not a tableau or a dense inverse:
//
//   - A crash basis exploits the encoding's structure: every GE row with a
//     positive singleton column (the ε/t auxiliary variables) starts with
//     that column basic, every LE row with its slack, so SherLock problems
//     typically begin primal-feasible and skip phase 1 entirely.
//   - The basis is represented as B = B₀·E₁·…·Eₛ: LU factors of a recent
//     basis plus one sparse eta per pivot since, refactorized periodically
//     (see lu.go). FTRAN/BTRAN cost O(nnz), a pivot costs O(nnz) — the
//     O(m²)-per-pivot dense inverse update is gone.
//   - Reduced costs are maintained incrementally from the BTRAN pivot row
//     (the revised analogue of the dense tableau's objective row), with
//     Dantzig pricing and the same Bland's-rule anti-cycling switch as the
//     dense backend.
//   - Warm starts (basis.go) map a prior optimal basis by row and column
//     identity (rowID, colID — structured, never concatenated into
//     strings), refactorize it against the current problem data, and
//     repair any primal infeasibility with dual simplex pivots (dual.go);
//     anything unrepairable falls back to a cold start.
//   - Before a solve, a presolve pass (presolve.go) fixes pinned variables
//     and drops redundant rows; independent connected components of the
//     reduced problem are solved separately, concurrently when
//     Problem.Parallel allows (decompose.go), each from a standard form
//     built straight out of the reduced problem.
//
// Determinism: every choice — pivot selection, refactorization points,
// presolve order, component order — is a pure function of the problem, so
// identical problems yield bit-identical solutions at any parallelism.
// After the last pivot the final basis is refactorized from the problem
// data and the basic values recomputed from scratch, so the extracted
// vertex depends only on the final basis, not on the pivot path that
// reached it — the property the warm==cold golden suites rely on.
package lp

import "math"

// feasTol is the feasibility tolerance on basic values.
const feasTol = 1e-7

// fallbackStatus is an internal sentinel: the warm-started path hit a
// numerically unusable state and the caller must restart cold. Never
// returned to users.
const fallbackStatus Status = -1

// sparseMat is a compressed sparse matrix in either orientation: line k
// (a column, or a row) holds the entries idx/val[start[k]:start[k+1]].
// It is built by counting first and filling once — three arrays however
// many lines it has, not one or two small slices per line.
type sparseMat struct {
	start []int32
	idx   []int32
	val   []float64
}

// line returns the entries of line k.
func (s *sparseMat) line(k int) ([]int32, []float64) {
	lo, hi := s.start[k], s.start[k+1]
	return s.idx[lo:hi], s.val[lo:hi]
}

// standardForm is the problem in computational standard form: constraints
// plus materialized upper-bound rows, normalized to rhs ≥ 0, with slack,
// surplus and artificial columns appended after the structural ones.
//
//	[0, n)            structural variables
//	[n, artAt)        slack/surplus variables
//	[artAt, total)    artificial variables
//
// The row and column identities (rowID, colID) are what a Basis is keyed
// by; they are kept structured and turned into strings only when a basis
// is serialized.
type standardForm struct {
	ws    *workspace // the arenas this standard form and its solve use
	m, n  int
	nArt  int
	artAt int
	total int

	cols sparseMat // column-major, rows ascending within each column
	// Row-major copy of the same matrix, columns ascending within each
	// row. The BTRAN-based reduced-cost update and the dual ratio test
	// walk rows, not columns.
	rows sparseMat
	rhs  []float64
	cost []float64 // objective per structural column

	rowID  []rowID  // per row
	names  []string // the source problem's variable names
	vars   []int    // per structural column: its variable in names
	colRow []int32  // per slack/artificial column j: its row, at j−n

	slackCol  []int     // per row: slack/surplus column, -1 if none
	slackSign []float64 // per row: +1 (LE slack) or -1 (GE surplus)
	artCol    []int     // per row: artificial column, -1 if none

	// posSingleton is, per row, a structural column that appears only in
	// this row with a positive coefficient (-1 if none) — the crash basis
	// uses it to start feasible without an artificial. The SherLock
	// encodings have one in every Mostly-Protected row (the ε variable).
	posSingleton    []int
	posSingletonVal []float64
}

// colID returns column j's identity.
func (sf *standardForm) colID(j int) colID {
	switch {
	case j < sf.n:
		return colID{kind: 'v', row: rowID{name: sf.names[sf.vars[j]]}}
	case j < sf.artAt:
		return colID{kind: 's', row: sf.rowID[sf.colRow[j-sf.n]]}
	}
	return colID{kind: 'a', row: sf.rowID[sf.colRow[j-sf.n]]}
}

// flip is a sense with both sides negated.
func (s Sense) flip() Sense {
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	}
	return s
}

// stdRows is the number of standard-form rows of the subproblem of p made
// of vars and rows: the constraints plus one bound row per finite upper
// bound.
func stdRows(p *Problem, vars, rows []int) int {
	m := len(rows)
	for _, v := range vars {
		if p.upper[v] < infUB {
			m++
		}
	}
	return m
}

// carve splits the next n elements off *buf. Carving the many short
// per-row and per-column arrays of a component solve out of a few
// buffers keeps the allocation count per component constant.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// workspace is one solve worker's scratch: everything a component solve
// uses and drops — the standard form's matrices and per-row arrays, the
// simplex working vectors, the LU factors and their work arrays — comes
// out of its arenas, and the next component the worker solves reuses
// them. Only what outlives the component solve — the row identities and
// basic columns its Basis keeps, and its X — lives elsewhere.
type workspace struct {
	ints   arena[int]
	int32s arena[int32]
	floats arena[float64]
	flags  arena[bool]
}

// reset releases everything taken since the last reset, for the next
// component.
func (ws *workspace) reset() {
	ws.ints.off, ws.int32s.off, ws.floats.off, ws.flags.off = 0, 0, 0, 0
}

// arena is a bump allocator over a reusable buffer.
type arena[T any] struct {
	buf []T
	off int
}

// take returns n zeroed elements, valid until the next reset. When the
// buffer runs short a buffer of at least twice the size replaces it;
// slices taken from the old buffer stay valid.
func (a *arena[T]) take(n int) []T {
	if a.off+n > len(a.buf) {
		a.buf, a.off = make([]T, max(n, 2*len(a.buf))), 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	clear(s)
	return s
}

// buildStandardForm builds the standard form of the subproblem of p made
// of the variables vars and the constraints rows (both ascending). local
// maps each variable of p to its position in vars. The standard form is
// read straight out of p — no intermediate Problem is built — and each
// component's is the row/column submatrix of the whole problem's, so row
// and column identities stay globally valid.
//
// Upper bounds become explicit ≤ rows after the constraints, exactly like
// the dense backend, so both backends solve the identical standard form.
// Every row is normalized to rhs ≥ 0 (a negative rhs negates the row).
//
// The row identities are written to ids, which must hold stdRows(p,
// vars, rows) entries, or to a fresh slice when ids is nil: a solved
// component's Basis keeps them as its rows.
func buildStandardForm(ws *workspace, p *Problem, vars, rows []int, local []int32, ids []rowID) *standardForm {
	n, nc := len(vars), len(rows)
	sense := func(s Sense, rhs float64) Sense {
		if rhs < 0 {
			return s.flip()
		}
		return s
	}

	// Pass 1: sizes. Each row's entries are its nonzero structural
	// coefficients plus its slack/surplus and artificial columns.
	m, nnz, nSlack, nArt := nc, 0, 0, 0
	count := func(s Sense) {
		switch s {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	for _, ri := range rows {
		c := &p.constraints[ri]
		for _, a := range c.coeffs {
			if a != 0 {
				nnz++
			}
		}
		count(sense(c.sense, c.rhs))
	}
	for _, v := range vars {
		if u := p.upper[v]; u < infUB {
			m++
			nnz++
			count(sense(LE, u))
		}
	}
	total := n + nSlack + nArt
	nnz += nSlack + nArt

	if ids == nil {
		ids = make([]rowID, m)
	}
	ints := ws.ints.take(3 * m)
	floats := ws.floats.take(3*m + n + 2*nnz)
	int32s := ws.int32s.take((nSlack + nArt) + 2*(total+1) + (m + 1) + 2*nnz)
	sf := &standardForm{
		ws: ws,
		m:  m, n: n, nArt: nArt, artAt: n + nSlack, total: total,
		cols: sparseMat{start: carve(&int32s, total+1), idx: carve(&int32s, nnz), val: carve(&floats, nnz)},
		rows: sparseMat{start: carve(&int32s, m+1), idx: carve(&int32s, nnz), val: carve(&floats, nnz)},
		rhs:  carve(&floats, m),
		cost: carve(&floats, n),

		rowID:  ids,
		names:  p.names,
		vars:   vars,
		colRow: carve(&int32s, nSlack+nArt),

		slackCol:  carve(&ints, m),
		slackSign: carve(&floats, m),
		artCol:    carve(&ints, m),

		posSingleton:    carve(&ints, m),
		posSingletonVal: carve(&floats, m),
	}
	for j, v := range vars {
		sf.cost[j] = p.cost[v]
	}

	// Pass 2: the row-major matrix, one row after another. A row's
	// structural entries come in ascending column order (constraints keep
	// theirs sorted by variable, and local preserves that order), then its
	// slack or surplus, then its artificial: ascending overall, the
	// deterministic accumulation order the pivot-row products rely on.
	rs, at := sf.rows.start, int32(0)
	put := func(j int, a float64) {
		sf.rows.idx[at], sf.rows.val[at] = int32(j), a
		at++
	}
	slack, art, ub := n, sf.artAt, 0
	for i := 0; i < m; i++ {
		rs[i] = at
		var s Sense
		if i < nc {
			c := &p.constraints[rows[i]]
			sf.rowID[i] = constraintRowID(c.name)
			s = sense(c.sense, c.rhs)
			neg := c.rhs < 0
			for k, v := range c.idx {
				a := c.coeffs[k]
				if neg {
					a = -a
				}
				if a != 0 {
					put(int(local[v]), a)
				}
			}
			sf.rhs[i] = c.rhs
			if neg {
				sf.rhs[i] = -c.rhs
			}
		} else {
			for p.upper[vars[ub]] >= infUB {
				ub++
			}
			u := p.upper[vars[ub]]
			sf.rowID[i] = rowID{ub: true, name: p.names[vars[ub]]}
			s = sense(LE, u)
			a := 1.0
			if u < 0 {
				a, u = -1, -u
			}
			put(ub, a)
			sf.rhs[i] = u
			ub++
		}
		sf.slackCol[i], sf.artCol[i], sf.posSingleton[i] = -1, -1, -1
		if s == LE || s == GE {
			sign := 1.0
			if s == GE {
				sign = -1
			}
			put(slack, sign)
			sf.colRow[slack-n] = int32(i)
			sf.slackCol[i], sf.slackSign[i] = slack, sign
			slack++
		}
		if s == GE || s == EQ {
			put(art, 1)
			sf.colRow[art-n] = int32(i)
			sf.artCol[i] = art
			art++
		}
	}
	rs[m] = at

	// The column-major copy is the transpose, filled row-ascending so each
	// column's entries are in ascending row order.
	cs, cur := sf.cols.start, carve(&int32s, total+1)
	for _, j := range sf.rows.idx {
		cs[j+1]++
	}
	for j := 0; j < total; j++ {
		cs[j+1] += cs[j]
	}
	copy(cur, cs)
	for i := 0; i < m; i++ {
		cols, vals := sf.rows.line(i)
		for k, j := range cols {
			sf.cols.idx[cur[j]], sf.cols.val[cur[j]] = int32(i), vals[k]
			cur[j]++
		}
	}

	// Positive structural singletons (crash-basis candidates), first by
	// column order per row.
	for j := 0; j < n; j++ {
		ri, rv := sf.cols.line(j)
		if len(ri) != 1 || rv[0] <= eps {
			continue
		}
		if i := int(ri[0]); sf.posSingleton[i] < 0 {
			sf.posSingleton[i] = j
			sf.posSingletonVal[i] = rv[0]
		}
	}
	return sf
}

// revised is the sparse revised-simplex working state. Basis slot i holds
// column basis[i]; slots are positions in the factorization, decoupled
// from constraint rows once pivoting starts.
type revised struct {
	p  *Problem
	sf *standardForm

	basis   []int  // basic column per basis position
	inBasis []bool // per column
	lu      *luFactors
	etas    etaFile
	etaNNZ  int
	xB      []float64 // basic values per position

	cost []float64 // current phase's cost vector over all columns
	d    []float64 // maintained reduced costs (nil outside iterate phases)
	dBuf []float64 // d's storage while maintained

	iters     int
	dualIters int
	etaPeak   int // longest eta file left standing after a pivot

	refactorEvery int
	noRefactor    bool // a refactorization failed; ride the eta file out

	// Scratch, taken once per solve from the workspace (as are xB, cost,
	// dBuf, basis and inBasis).
	wr     []float64 // length m, original-row indexed (FTRAN in / BTRAN out)
	t      []float64 // length m, position indexed (FTRAN result)
	pz     []float64 // length m, position indexed (BTRAN input)
	alpha  []float64 // length total: current BTRAN pivot row of B⁻¹A
	ainCol []bool    // membership of alpha's touched set
	atouch []int32
}

// newBare allocates the working state without choosing a basis; the caller
// installs one in r.basis/r.inBasis, via applyWarm or the crash
// construction.
func newBare(p *Problem, sf *standardForm) *revised {
	m, total := sf.m, sf.total
	floats := sf.ws.floats.take(4*m + 3*total)
	flags := sf.ws.flags.take(2 * total)
	return &revised{
		p: p, sf: sf,
		refactorEvery: p.etaEveryOrDefault(),
		basis:         sf.ws.ints.take(m),
		inBasis:       carve(&flags, total),
		xB:            carve(&floats, m),
		cost:          carve(&floats, total),
		dBuf:          carve(&floats, total),
		wr:            carve(&floats, m),
		t:             carve(&floats, m),
		pz:            carve(&floats, m),
		alpha:         carve(&floats, total),
		ainCol:        carve(&flags, total),
	}
}

// newRevised builds the crash basis: per row a positive structural
// singleton (GE/EQ), the slack (LE, or GE with zero rhs), or the
// artificial. B is diagonal, so the factorization is trivial and every
// basic value is ≥ 0 by construction.
func newRevised(p *Problem, sf *standardForm) *revised {
	m := sf.m
	r := newBare(p, sf)
	for i := 0; i < m; i++ {
		col, _ := sf.crashCol(i)
		r.basis[i] = col
		r.inBasis[col] = true
	}
	// A diagonal basis cannot be singular (every crash coefficient is ±1 or
	// a nonzero singleton), so the factorization always succeeds.
	r.lu, _ = factorizeBasis(sf.ws, &sf.cols, r.basis, m)
	r.computeXB()
	return r
}

// crashCol picks row i's starting basic column and its coefficient.
func (sf *standardForm) crashCol(i int) (int, float64) {
	if sf.slackCol[i] >= 0 && sf.slackSign[i] > 0 { // LE
		return sf.slackCol[i], 1
	}
	if j := sf.posSingleton[i]; j >= 0 {
		return j, sf.posSingletonVal[i]
	}
	if sf.slackCol[i] >= 0 && sf.rhs[i] <= feasTol { // GE with rhs 0: surplus at 0
		return sf.slackCol[i], -1
	}
	return sf.artCol[i], 1 // GE/EQ rows always have one
}

// computeXB recomputes the basic values xB = B⁻¹·b through the current
// factorization and eta file.
func (r *revised) computeXB() {
	copy(r.wr, r.sf.rhs)
	r.lu.ftran(r.wr, r.xB)
	r.etas.ftran(r.xB)
}

// ftranCol computes t = B⁻¹·A_j for column j into out (length m,
// position indexed).
func (r *revised) ftranCol(j int, out []float64) {
	rows, vals := r.sf.cols.line(j)
	for k, ri := range rows {
		r.wr[ri] = vals[k]
	}
	r.lu.ftran(r.wr, out)
	r.etas.ftran(out)
}

// pivotRow computes the leave-th row of B⁻¹A into r.alpha and returns the
// touched column list (unsorted). The caller must release the scratch with
// clearAlpha. This is one BTRAN plus a sweep of the touched constraint
// rows — the O(total·nnz) per-pivot pricing sweep of the product-form
// implementation reduced to the rows the pivot actually reaches.
func (r *revised) pivotRow(leave int) []int32 {
	sf := r.sf
	pz := r.pz
	pz[leave] = 1
	r.etas.btran(pz)
	r.lu.btran(pz, r.wr)
	cols := r.atouch[:0]
	for ri := 0; ri < sf.m; ri++ {
		br := r.wr[ri]
		r.wr[ri] = 0
		if br == 0 {
			continue
		}
		rc, rv := sf.rows.line(ri)
		for idx, j := range rc {
			if !r.ainCol[j] {
				r.ainCol[j] = true
				r.alpha[j] = 0
				cols = append(cols, j)
			}
			r.alpha[j] += br * rv[idx]
		}
	}
	r.atouch = cols
	return cols
}

// clearAlpha releases pivotRow's scratch.
func (r *revised) clearAlpha(cols []int32) {
	for _, j := range cols {
		r.alpha[j] = 0
		r.ainCol[j] = false
	}
}

// computeD recomputes the reduced costs d = c − cB·B⁻¹·A from scratch for
// the current phase cost vector (done once per phase and at each
// refactorization; pivots then maintain d incrementally).
func (r *revised) computeD() {
	sf := r.sf
	for i := 0; i < sf.m; i++ {
		r.pz[i] = r.cost[r.basis[i]]
	}
	r.etas.btran(r.pz)
	r.lu.btran(r.pz, r.wr) // wr = y, the simplex multipliers by original row
	if r.d == nil {
		r.d = r.dBuf
	}
	for j := 0; j < sf.total; j++ {
		if r.inBasis[j] {
			r.d[j] = 0
			continue
		}
		s := r.cost[j]
		rows, vals := sf.cols.line(j)
		for k, ri := range rows {
			s -= r.wr[ri] * vals[k]
		}
		r.d[j] = s
	}
	for i := 0; i < sf.m; i++ {
		r.wr[i] = 0
	}
}

// price selects the entering column among the first colLimit columns:
// Dantzig (most negative reduced cost) or Bland (first negative).
func (r *revised) price(colLimit int, bland bool) int {
	if bland {
		for j := 0; j < colLimit; j++ {
			if !r.inBasis[j] && r.d[j] < -eps {
				return j
			}
		}
		return -1
	}
	best, enter := -eps, -1
	for j := 0; j < colLimit; j++ {
		if !r.inBasis[j] && r.d[j] < best {
			best, enter = r.d[j], j
		}
	}
	return enter
}

// refactor rebuilds the LU factors from the current basis, drops the eta
// file, and recomputes xB (and d, when maintained) from scratch. Reports
// false if the factorization failed, in which case the old representation
// stays live and refactorization is disabled for the rest of the solve.
func (r *revised) refactor() bool {
	lu, ok := factorizeBasis(r.sf.ws, &r.sf.cols, r.basis, r.sf.m)
	if !ok {
		r.noRefactor = true
		return false
	}
	r.lu = lu
	r.etas.reset()
	r.etaNNZ = 0
	r.computeXB()
	if r.d != nil {
		r.computeD()
	}
	return true
}

// pivot makes column enter basic at position leave; t must hold B⁻¹·A_enter.
// When reduced costs are live (r.d != nil) they are updated from the BTRAN
// pivot row, supplied precomputed in acols/r.alpha (dual path) or computed
// here (primal path). The update appends one eta and may trigger a
// refactorization.
func (r *revised) pivot(leave, enter int, t []float64, acols []int32) {
	sf := r.sf
	m := sf.m
	pv := t[leave]
	if r.d != nil {
		if acols == nil {
			acols = r.pivotRow(leave)
		}
		if f := r.d[enter] / pv; f != 0 {
			for _, jj := range acols {
				j := int(jj)
				if r.inBasis[j] || j == enter {
					continue
				}
				if a := r.alpha[j]; a != 0 {
					r.d[j] -= f * a
				}
			}
			r.d[r.basis[leave]] = -f // leaving column: its B⁻¹A entry is 1
		} else {
			r.d[r.basis[leave]] = 0
		}
		r.d[enter] = 0
	}
	if acols != nil {
		r.clearAlpha(acols)
	}
	theta := r.xB[leave] / pv
	e := &r.etas
	lo := len(e.idx)
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		ti := t[i]
		if ti == 0 {
			continue
		}
		e.idx = append(e.idx, int32(i))
		e.val = append(e.val, ti)
		r.xB[i] -= ti * theta
	}
	r.xB[leave] = theta
	e.push(int32(leave), pv)
	r.etaNNZ += len(e.idx) - lo + 1
	r.inBasis[r.basis[leave]] = false
	r.inBasis[enter] = true
	r.basis[leave] = enter
	r.iters++
	if !r.noRefactor &&
		(e.len() >= r.refactorEvery || r.etaNNZ > r.lu.nnz+etaFillSlack*m) {
		r.refactor()
	}
	r.etaPeak = max(r.etaPeak, e.len())
}

// chooseLeave runs the primal ratio test on the FTRAN column t: minimum
// ratio over positive entries, ties toward the smaller basic column index.
func (r *revised) chooseLeave(t []float64) (int, float64) {
	leave := -1
	var minRatio float64
	for i := 0; i < r.sf.m; i++ {
		a := t[i]
		if a > eps {
			ratio := r.xB[i] / a
			if leave < 0 || ratio < minRatio-eps ||
				(math.Abs(ratio-minRatio) <= eps && r.basis[i] < r.basis[leave]) {
				leave, minRatio = i, ratio
			}
		}
	}
	return leave, minRatio
}

// iterate runs primal simplex pivots until optimality, unboundedness or the
// pivot budget. Columns at or beyond colLimit (artificials) may leave the
// basis but never enter. Dantzig pricing with a switch to Bland's rule
// after a run of degenerate pivots guards against cycling — the same policy
// and thresholds as the dense backend.
func (r *revised) iterate(colLimit int) Status {
	m := r.sf.m
	degenerate, bland := 0, false
	budget := r.p.maxIters()
	for {
		enter := r.price(colLimit, bland)
		if enter < 0 {
			return Optimal
		}
		if r.iters >= budget {
			return IterLimit
		}
		t := r.t
		r.ftranCol(enter, t)
		leave, minRatio := r.chooseLeave(t)
		if leave >= 0 && math.Abs(t[leave]) < stabTol && r.etas.len() > 0 && !r.noRefactor {
			// Suspiciously small pivot through a long eta file: refactorize
			// and redo the ratio test on clean numbers.
			if r.refactor() {
				r.ftranCol(enter, t)
				leave, minRatio = r.chooseLeave(t)
			}
		}
		if leave < 0 {
			return Unbounded
		}
		if minRatio < eps {
			degenerate++
			if degenerate > 2*m+20 {
				bland = true
			}
		} else {
			degenerate, bland = 0, false
		}
		r.pivot(leave, enter, t, nil)
	}
}

// phase1 minimizes the sum of artificial variables from the current
// (feasible) basis. Returns Optimal when a basic feasible solution of the
// real problem exists.
func (r *revised) phase1() Status {
	sf := r.sf
	clear(r.cost)
	for j := sf.artAt; j < sf.total; j++ {
		r.cost[j] = 1
	}
	r.d = nil
	r.computeD()
	st := r.iterate(sf.artAt)
	if st != Optimal {
		return st
	}
	inf := 0.0
	for i, b := range r.basis {
		if b >= sf.artAt && r.xB[i] > 0 {
			inf += r.xB[i]
		}
	}
	if inf > feasTol {
		return Infeasible
	}
	return Optimal
}

// purgeArtificials pivots any basic artificial (at value ~0) out of the
// basis where an eligible column exists. Positions where none exists sit on
// linearly dependent rows: every structural/slack coefficient of their
// B⁻¹A row is ~0, so the artificial stays harmlessly basic at zero and can
// never move (the entering direction never touches the position).
func (r *revised) purgeArtificials() {
	sf := r.sf
	if sf.nArt == 0 {
		return
	}
	r.d = nil // phase costs change next; no point maintaining reduced costs
	for i := 0; i < sf.m; i++ {
		if r.basis[i] < sf.artAt {
			continue
		}
		acols := r.pivotRow(i)
		enter := -1
		for _, jj := range acols {
			j := int(jj)
			if j >= sf.artAt || r.inBasis[j] {
				continue
			}
			if math.Abs(r.alpha[j]) > eps && (enter < 0 || j < enter) {
				enter = j
			}
		}
		r.clearAlpha(acols)
		if enter < 0 {
			continue
		}
		r.ftranCol(enter, r.t)
		r.pivot(i, enter, r.t, nil)
	}
}

// setPhase2Costs installs the real objective as the working cost vector.
func (r *revised) setPhase2Costs() {
	sf := r.sf
	clear(r.cost[copy(r.cost, sf.cost):])
}

// optimize drives the current basis to optimality:
//
//	artificials at positive value  → primal phase 1, purge, primal phase 2
//	primal feasible                → purge, primal phase 2
//	primal infeasible, dual
//	feasible (warm starts only)    → dual simplex, then primal cleanup
//	neither                        → fallbackStatus (caller restarts cold)
//
// The dual branch is what makes cross-round row additions and excisions
// cheap: a carried basis is dual feasible by construction (it was optimal),
// so a handful of dual pivots absorb the new rows instead of a primal
// restart.
func (r *revised) optimize(warm bool) Status {
	sf := r.sf
	needP1 := false
	for i, b := range r.basis {
		if b >= sf.artAt && r.xB[i] > feasTol {
			needP1 = true
			break
		}
	}
	if needP1 {
		st := r.phase1()
		if st == IterLimit {
			return st
		}
		if st != Optimal {
			return Infeasible
		}
	}
	r.purgeArtificials()
	r.setPhase2Costs()
	r.d = nil
	r.computeD()
	primalInfeas := false
	for _, v := range r.xB {
		if v < -feasTol {
			primalInfeas = true
			break
		}
	}
	if primalInfeas {
		if !warm || !r.dualFeasible() {
			return fallbackStatus
		}
		if st := r.dualIterate(); st != Optimal {
			return st
		}
	}
	return r.iterate(sf.artAt)
}

// finalize refactorizes the final basis from the problem data and
// recomputes the basic values, so the extracted vertex is a function of
// the final basis alone — identical whether the solve was warm or cold,
// primal or dual, one eta file or another.
func (r *revised) finalize() {
	if r.etas.len() > 0 {
		if !r.refactor() {
			return // singular final refactorization: keep the maintained xB
		}
	} else {
		r.computeXB()
	}
}

// extract reads structural variable values out of the basis. Adding +0
// canonicalizes IEEE negative zero (−0 + 0 = +0; every other value is
// unchanged): pivot arithmetic can produce either zero depending on the
// pivot path, and warm- and cold-started solves of the same problem must
// serialize identically.
func (r *revised) extract() []float64 {
	x := make([]float64, r.sf.n)
	for i, b := range r.basis {
		if b < r.sf.n {
			v := r.xB[i]
			if v < 0 && v > -eps {
				v = 0
			}
			x[b] = v + 0
		}
	}
	return x
}

// snapshot captures the solve's final basis as (row, basic column)
// identity pairs — what a warm start on a related problem maps onto its
// own standard form before refactorizing. Numerical state is never
// carried: the next solve rebuilds it from its own problem data, which is
// what makes the snapshot trivially serializable and immune to coefficient
// changes (see applyWarm). The basic columns are written to bcol (len m),
// or to a fresh slice when bcol is nil.
func (r *revised) snapshot(bcol []colID) *Basis {
	sf := r.sf
	if bcol == nil {
		bcol = make([]colID, sf.m)
	}
	for i, c := range r.basis {
		bcol[i] = sf.colID(c)
	}
	return &Basis{rows: sf.rowID, bcol: bcol}
}

// solveComponent runs the revised simplex on one (sub)problem's standard
// form, warm-started when warm carries a basis that maps onto it. An
// optimal solve's basic columns go to bcol (see snapshot).
func solveComponent(p *Problem, sf *standardForm, warm warmIndex, bcol []colID) *Solution {
	var r *revised
	warmApplied := false
	if sf.m > 0 && len(warm.at) > 0 {
		rw := newBare(p, sf)
		if rw.applyWarm(warm) {
			r, warmApplied = rw, true
		}
	}
	if r == nil {
		r = newRevised(p, sf)
	}
	st := r.optimize(warmApplied)
	if st == fallbackStatus {
		// The warm basis was numerically unusable (primal and dual
		// infeasible, or a singular refactorization mid-flight): restart
		// cold, preserving the pivots already spent in the iteration count.
		spent, spentDual := r.iters, r.dualIters
		r = newRevised(p, sf)
		r.iters, r.dualIters = spent, spentDual
		warmApplied = false
		st = r.optimize(false)
	}
	if st != Optimal {
		return &Solution{Status: st, Iters: r.iters, DualIters: r.dualIters, WarmStarted: warmApplied}
	}
	r.finalize()
	x := r.extract()
	obj := 0.0
	for v, c := range sf.cost {
		obj += c * x[v]
	}
	return &Solution{
		Status: Optimal, X: x, Objective: obj,
		Iters: r.iters, DualIters: r.dualIters,
		Basis: r.snapshot(bcol), WarmStarted: warmApplied,
		etaPeak: r.etaPeak,
	}
}

// solveSparse is the sparse-backend entry: presolve, decompose, solve the
// components (concurrently when allowed), postsolve back to the original
// variable space.
func solveSparse(p *Problem, warm *Basis) (*Solution, error) {
	ps := presolve(p)
	if ps.status == Infeasible {
		sol := &Solution{Status: Infeasible, RowsPresolved: ps.rowsOut, ColsPresolved: ps.colsOut}
		return sol, statusErr(Infeasible)
	}
	if ps.solved() {
		// Presolve pinned everything; no simplex needed.
		x := ps.postsolve(nil)
		obj := 0.0
		for v, c := range p.cost {
			obj += c * x[v]
		}
		sol := &Solution{
			Status: Optimal, X: x, Objective: obj,
			RowsPresolved: ps.rowsOut, ColsPresolved: ps.colsOut,
			Basis: &Basis{},
		}
		return sol, nil
	}
	sol := solveDecomposed(ps.reduced(), warm)
	sol.RowsPresolved, sol.ColsPresolved = ps.rowsOut, ps.colsOut
	if sol.Status != Optimal {
		return sol, statusErr(sol.Status)
	}
	sol.X = ps.postsolve(sol.X)
	// Recompute the objective on the original cost vector and full solution:
	// presolve's cost folding (duplicate-row merges) changes summation
	// grouping, and the reported objective must not depend on whether
	// presolve fired.
	obj := 0.0
	for v, c := range p.cost {
		obj += c * sol.X[v]
	}
	sol.Objective = obj
	return sol, nil
}
