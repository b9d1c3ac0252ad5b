// Connected-component decomposition. The per-app LP is a union of
// per-window subproblems that only couple through shared sync-candidate
// keys; keys that never co-occur in a window put their rows and columns in
// independent blocks. solveDecomposed splits the (presolved) problem along
// those blocks and solves them separately — concurrently when
// Problem.Parallel allows — then merges the results deterministically.
//
// Determinism at any parallelism follows the same policy as the core
// engine's worker pool (PR 1): components are discovered in ascending
// variable order, each is solved independently with no shared mutable
// state, results land in a slot indexed by component, and the merge walks
// the slots in component order. The outcome is bit-identical whether the
// components are solved by 1 worker or 16.
package lp

import (
	"sync"
	"sync/atomic"
)

// component is one independent block: variable and constraint indices into
// the parent problem, both ascending.
type component struct {
	vars []int
	rows []int
}

// splitComponents partitions p's variables and constraints into connected
// components via union-find over shared variables. Variables with no
// constraints form singleton components (their solve is trivial). It also
// returns local, each variable's position within its component's vars.
// The components' index lists are carved out of two shared buffers.
func splitComponents(p *Problem) ([]component, []int32) {
	n := len(p.names)
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for ci := range p.constraints {
		idx := p.constraints[ci].idx
		for k := 1; k < len(idx); k++ {
			ra, rb := find(int32(idx[0])), find(int32(idx[k]))
			if ra != rb {
				if rb < ra {
					ra, rb = rb, ra
				}
				parent[rb] = ra // smaller index wins: stable component roots
			}
		}
	}
	// Number components in ascending order of their smallest variable —
	// the root, which precedes every other member — and count their sizes.
	compOf := make([]int32, n)
	var nVars, nRows []int32
	for v := 0; v < n; v++ {
		root := find(int32(v))
		ci := int32(len(nVars))
		if int(root) < v {
			ci = compOf[root]
		} else {
			nVars = append(nVars, 0)
			nRows = append(nRows, 0)
		}
		compOf[v] = ci
		nVars[ci]++
	}
	nonEmpty := 0
	for ri := range p.constraints {
		if idx := p.constraints[ri].idx; len(idx) > 0 {
			nRows[compOf[idx[0]]]++
			nonEmpty++
		}
	}
	comps := make([]component, len(nVars))
	varBuf := make([]int, n)
	rowBuf := make([]int, nonEmpty)
	vo, ro := 0, 0
	for ci := range comps {
		nv, nr := int(nVars[ci]), int(nRows[ci])
		comps[ci].vars = varBuf[vo : vo : vo+nv]
		comps[ci].rows = rowBuf[ro : ro : ro+nr]
		vo, ro = vo+nv, ro+nr
	}
	local := make([]int32, n)
	for v := 0; v < n; v++ {
		c := &comps[compOf[v]]
		local[v] = int32(len(c.vars))
		c.vars = append(c.vars, v)
	}
	for ri := range p.constraints {
		c := &p.constraints[ri]
		if len(c.idx) == 0 {
			continue // empty rows cannot appear post-presolve; defensive
		}
		comp := &comps[compOf[c.idx[0]]]
		comp.rows = append(comp.rows, ri)
	}
	return comps, local
}

// solveDecomposed splits p into components and solves them, fanning the
// solves across up to p.Parallel workers. Each component's standard form
// is built straight out of p (buildStandardForm), and every component
// solve runs under p's own settings (MaxIters, the refactorization
// interval). The full warm basis is offered to every component — row and
// column identities are globally unique, so each component picks up
// exactly its own slice of the carried basis.
//
// The merged solution sums pivot counts, ORs warm-start engagement, and
// concatenates the per-component bases (each written in place). A
// non-optimal component makes the whole solve non-optimal, with
// Infeasible taking precedence over Unbounded over IterLimit. Note
// MaxIters bounds pivots per component, not globally — the budget is a
// runaway guard, not a fairness mechanism.
func solveDecomposed(p *Problem, carried *Basis) *Solution {
	warm := carried.index() // one shared read-only index for every component
	comps, local := splitComponents(p)
	if len(comps) <= 1 {
		// The whole problem, empty rows included.
		vars := make([]int, len(p.names))
		for v := range vars {
			vars[v] = v
		}
		rows := make([]int, len(p.constraints))
		for ri := range rows {
			rows[ri] = ri
		}
		sol := solveComponent(p, buildStandardForm(new(workspace), p, vars, rows, local, nil), warm, nil)
		sol.Components = 1
		return sol
	}
	// Each component writes its row identities and basic columns straight
	// into the merged basis, at its own offset.
	off := make([]int, len(comps)+1)
	for i := range comps {
		off[i+1] = off[i] + stdRows(p, comps[i].vars, comps[i].rows)
	}
	basis := &Basis{} // with no rows its slices stay nil: JSON null, as always
	if n := off[len(comps)]; n > 0 {
		basis.rows, basis.bcol = make([]rowID, n), make([]colID, n)
	}
	results := make([]*Solution, len(comps))
	solve := func(i int, ws *workspace) {
		ws.reset()
		c := &comps[i]
		lo, hi := off[i], off[i+1]
		sf := buildStandardForm(ws, p, c.vars, c.rows, local, basis.rows[lo:hi:hi])
		results[i] = solveComponent(p, sf, warm, basis.bcol[lo:hi:hi])
	}
	workers := p.Parallel
	if workers > len(comps) {
		workers = len(comps)
	}
	if workers <= 1 {
		ws := new(workspace)
		for i := range comps {
			solve(i, ws)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				ws := new(workspace) // one per worker: components reuse it in turn
				for {
					i := int(next.Add(1)) - 1
					if i >= len(comps) {
						return
					}
					solve(i, ws)
				}
			}()
		}
		wg.Wait()
	}

	merged := &Solution{
		Status:     Optimal,
		X:          make([]float64, len(p.names)),
		Basis:      basis,
		Components: len(comps),
	}
	worst := Optimal
	for ci, res := range results {
		merged.Iters += res.Iters
		merged.DualIters += res.DualIters
		if res.WarmStarted {
			merged.WarmStarted = true
		}
		merged.etaPeak = max(merged.etaPeak, res.etaPeak)
		if res.Status != Optimal {
			if statusRank(res.Status) > statusRank(worst) {
				worst = res.Status
			}
			continue
		}
		for li, v := range comps[ci].vars {
			merged.X[v] = res.X[li]
		}
		merged.Objective += res.Objective
	}
	if worst != Optimal {
		return &Solution{
			Status: worst, Iters: merged.Iters, DualIters: merged.DualIters,
			WarmStarted: merged.WarmStarted, Components: len(comps),
		}
	}
	return merged
}

// statusRank orders non-optimal statuses by precedence for the merge.
func statusRank(s Status) int {
	switch s {
	case Infeasible:
		return 3
	case Unbounded:
		return 2
	case IterLimit:
		return 1
	}
	return 0
}
