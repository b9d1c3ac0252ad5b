// Cross-solve warm starting. A Basis carries a solve's optimal basis as
// (row, basic column) identity pairs — nothing numerical. A row is a
// constraint name or an upper-bound row's variable name; a column is a
// variable name or the slack/artificial column of a row (rowID, colID).
// Because the SherLock encodings grow incrementally (each Perturber round
// mostly appends windows, i.e. new rows and columns, to the previous
// round's program), most of a carried basis maps straight onto the next
// problem: applyWarm re-resolves the identities against the new standard
// form, gives every uncovered row a crash column, and refactorizes the
// result from the *current* problem data (lu.go).
//
// Refactorizing — rather than carrying an inverse — is what makes the warm
// start robust: coefficient changes, right-hand-side changes, renamed or
// retired rows all resolve to "whatever the names still mean here", and
// the factorization is exact for the problem actually being solved. A
// mapped basis that is numerically singular, or that turns out both primal
// and dual infeasible, falls back to a cold start; one that is merely
// primal infeasible (the appended rows cut the carried vertex off) is
// repaired by dual simplex pivots (dual.go) — the carried basis is dual
// feasible because it was optimal.
package lp

// rowID identifies a standard-form row across solves: a constraint row by
// its name, an upper-bound row by its variable's name. Its string form
// ("name", or "ub(name)") is what a serialized Basis stores.
type rowID struct {
	ub   bool
	name string
}

// colID identifies a standard-form column across solves: a structural
// variable (kind 'v'; row.name holds the variable's name) or the slack or
// surplus ('s') or artificial ('a') column of a row. Kind 0 marks a
// decoded name that fits none of these forms; it matches no column.
type colID struct {
	kind byte
	row  rowID
}

// constraintRowID is the identity of a constraint row named name. A name
// already in upper-bound form ("ub(x)") parses as one, exactly as a
// serialized basis does, so two rows are the same row iff their string
// forms are equal — in memory and after a round trip alike.
func constraintRowID(name string) rowID {
	if len(name) >= 4 && name[:3] == "ub(" && name[len(name)-1] == ')' {
		return rowID{ub: true, name: name[3 : len(name)-1]}
	}
	return rowID{name: name}
}

func (r rowID) String() string {
	if r.ub {
		return "ub(" + r.name + ")"
	}
	return r.name
}

// parseColID inverts colID.String.
func parseColID(s string) colID {
	if len(s) >= 2 && s[1] == ':' {
		switch s[0] {
		case 'v':
			return colID{kind: 'v', row: rowID{name: s[2:]}}
		case 's', 'a':
			return colID{kind: s[0], row: constraintRowID(s[2:])}
		}
	}
	return colID{row: rowID{name: s}}
}

func (c colID) String() string {
	if c.kind == 0 {
		return c.row.name
	}
	return string(c.kind) + ":" + c.row.String()
}

// Basis is the warm-start state of a previous Solve, opaque to callers. It
// is immutable once returned and safe to share across goroutines; applying
// it to an unrelated problem is harmless (the solve falls back to a cold
// start).
type Basis struct {
	rows []rowID // row identities, in the solved problem's row order
	bcol []colID // basic column per row position
}

// Size returns the number of rows the basis covers.
func (b *Basis) Size() int {
	if b == nil {
		return 0
	}
	return len(b.rows)
}

// warmIndex is a carried basis indexed by row for applyWarm: at maps a
// row to its position in b. Built once per solve and shared read-only
// across the per-component solves (earlier revisions re-scanned the whole
// carried basis inside every component, which went quadratic in the
// component count). The zero value carries nothing.
type warmIndex struct {
	b  *Basis
	at map[rowID]int32
}

// index builds b's warmIndex. Duplicate rows — impossible in well-formed
// encodings — resolve first-wins, matching the old scan order.
func (b *Basis) index() warmIndex {
	if b.Size() == 0 {
		return warmIndex{}
	}
	at := make(map[rowID]int32, len(b.rows))
	for i, row := range b.rows {
		if _, dup := at[row]; !dup {
			at[row] = int32(i)
		}
	}
	return warmIndex{b: b, at: at}
}

// applyWarm installs a carried basis — indexed by Basis.index — as
// this problem's starting basis. Rows are matched by identity and
// re-enter on their recorded basic column when that column still exists
// and is unclaimed; rows not covered — newly appended ones — get a crash
// column (slack, positive singleton, surplus, or artificial, first
// available). The assembled basis is then refactorized against the
// current problem data.
//
// A carried column resolves through two lookups built here: structural
// columns by variable name, slack and artificial columns through their
// owning row. Each resolves first-wins in column order, so duplicate
// names behave as a single name-keyed column index would.
//
// Reports whether the warm basis was installed; on false the caller must
// rebuild from the crash basis. The receiver must come from newBare.
func (r *revised) applyWarm(warm warmIndex) bool {
	sf := r.sf
	m := sf.m
	if len(warm.at) == 0 || m == 0 {
		return false
	}
	varCol := make(map[string]int, sf.n)
	for j, v := range sf.vars {
		if _, dup := varCol[sf.names[v]]; !dup {
			varCol[sf.names[v]] = j
		}
	}
	type rowCols struct{ slack, art int }
	rowIdx := make(map[rowID]rowCols, m)
	for i, row := range sf.rowID {
		rc, ok := rowIdx[row]
		if !ok {
			rc = rowCols{-1, -1}
		}
		if rc.slack < 0 {
			rc.slack = sf.slackCol[i]
		}
		if rc.art < 0 {
			rc.art = sf.artCol[i]
		}
		rowIdx[row] = rc
	}
	resolve := func(c colID) int {
		switch c.kind {
		case 'v':
			if j, ok := varCol[c.row.name]; ok {
				return j
			}
		case 's':
			if rc, ok := rowIdx[c.row]; ok {
				return rc.slack
			}
		case 'a':
			if rc, ok := rowIdx[c.row]; ok {
				return rc.art
			}
		}
		return -1
	}

	basis, inBasis := r.basis, r.inBasis
	for i := range basis {
		basis[i] = -1
	}
	mapped := 0
	for i, row := range sf.rowID {
		at, ok := warm.at[row]
		if !ok {
			continue // row not covered by the snapshot (newly appended)
		}
		j := resolve(warm.b.bcol[at])
		if j < 0 || inBasis[j] {
			continue // basic column vanished, or claimed by an earlier row
		}
		basis[i] = j
		inBasis[j] = true
		mapped++
	}
	if mapped == 0 {
		return false
	}

	// Complete the basis on the uncovered rows. Preference order: LE slack,
	// positive structural singleton (the ε variables — lets appended
	// Mostly-Protected rows start on their natural column), GE surplus
	// (possibly at a negative value the dual simplex will repair), then the
	// artificial. Everything here is a deterministic function of the
	// problem and the carried names.
	for i := 0; i < m; i++ {
		if basis[i] >= 0 {
			continue
		}
		col := -1
		if c := sf.slackCol[i]; c >= 0 && sf.slackSign[i] > 0 && !inBasis[c] {
			col = c
		}
		if col < 0 {
			if c := sf.posSingleton[i]; c >= 0 && !inBasis[c] {
				col = c
			}
		}
		if col < 0 {
			if c := sf.slackCol[i]; c >= 0 && !inBasis[c] {
				col = c
			}
		}
		if col < 0 {
			if c := sf.artCol[i]; c >= 0 && !inBasis[c] {
				col = c
			}
		}
		if col < 0 {
			return false
		}
		basis[i] = col
		inBasis[col] = true
	}

	lu, ok := factorizeBasis(sf.ws, &sf.cols, basis, m)
	if !ok {
		return false // singular against the current data: cold start
	}
	r.lu = lu
	r.etas.reset()
	r.etaNNZ = 0
	r.computeXB()
	return true
}
