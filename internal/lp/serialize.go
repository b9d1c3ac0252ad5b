// Basis serialization. A Basis round-trips through JSON so checkpoints
// (internal/core) can persist a solve's warm-start state into the corpus
// store and resume from it in another process.
//
// Since the LU rework a basis is pure identities — (row, basic column)
// pairs, held structured in memory and written as the names "row",
// "ub(var)", "v:var", "s:row" and "a:row" — so the round trip is exact:
// there is no numerical state to preserve bit for bit, and parsing a name
// back is the inverse of printing it. A loaded basis is re-factorized
// against the problem it is applied to (a documented cold
// re-factorization on load), which is the same thing applyWarm does to an
// in-memory basis, so resuming from a stored checkpoint is
// indistinguishable from an uninterrupted in-memory sequence.
//
// Documents written by the pre-LU format carried extra numerical fields
// (rhs, loc, brow, bval, binv, xb); UnmarshalJSON ignores them, so old
// checkpoints still load — they warm-start exactly as well as new ones,
// because the numerical payload was only ever a cache of what
// re-factorization recomputes.
package lp

import (
	"encoding/json"
	"fmt"
)

// basisJSON is the exported shadow of Basis's unexported fields: every
// identity in its string form.
type basisJSON struct {
	Rows []string `json:"rows"`
	Bcol []string `json:"bcol"`
}

// MarshalJSON encodes the basis for persistence.
func (b *Basis) MarshalJSON() ([]byte, error) {
	return json.Marshal(basisJSON{Rows: convert(b.rows, rowID.String), Bcol: convert(b.bcol, colID.String)})
}

// UnmarshalJSON decodes a basis produced by MarshalJSON (current or pre-LU
// format), validating the shape so a corrupt document can never misalign
// rows and basic columns inside applyWarm. Every string parses: a column
// name in none of the known forms decodes to an identity that matches no
// column and encodes back unchanged.
func (b *Basis) UnmarshalJSON(data []byte) error {
	var s basisJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if len(s.Bcol) != len(s.Rows) {
		return fmt.Errorf("lp: basis: %q has %d entries, want %d", "bcol", len(s.Bcol), len(s.Rows))
	}
	b.rows, b.bcol = convert(s.Rows, constraintRowID), convert(s.Bcol, parseColID)
	return nil
}

// convert maps f over in, keeping a nil slice nil (JSON null and [] are
// different bytes).
func convert[T, U any](in []T, f func(T) U) []U {
	if in == nil {
		return nil
	}
	out := make([]U, len(in))
	for i, x := range in {
		out[i] = f(x)
	}
	return out
}
