package lp

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// fuzzProblem is a small fixed LP with a unique, integral optimum, two
// components after presolve, and names that collide with the serialized
// identity syntax: a constraint named like a bound row ("ub(x2)"), and
// names containing ':', '(' and ')'.
func fuzzProblem() *Problem {
	p := NewProblem()
	v := func(name string, cost, ub float64) int {
		j := p.AddVariable(name)
		p.AddCost(j, cost)
		if ub > 0 {
			p.SetUpperBound(j, ub)
		}
		return j
	}
	x0, x1, x2, x3 := v("x0", 1, 1), v("x1", 2, 1), v("x2", 3, 1), v("x3", 4, 1)
	e0, e1 := v("e0", 10, 0), v("e1", 11, 0)
	y0, y1 := v("s:y0", 5, 1), v("v:y(1)", 6, 1)
	z := v("ub(z)", 0.5, 1)
	p.AddNamedConstraint("mp(a)", map[int]float64{x0: 1, x1: 1, e0: 1}, GE, 1)
	p.AddNamedConstraint("mp(b)", map[int]float64{x1: 1, x2: 1, e1: 1}, GE, 1)
	p.AddNamedConstraint("ub(x2)", map[int]float64{x2: 1, x3: 1}, LE, 1)
	p.AddNamedConstraint("s:c)", map[int]float64{y0: 1, y1: 1}, GE, 1)
	p.AddNamedConstraint("a:eq(", map[int]float64{y0: 1, z: -1}, EQ, 0)
	return p
}

// FuzzBasisUnmarshal feeds arbitrary bytes to the Basis decoder. Decoding
// must never panic; a decoded basis must survive decode → encode →
// decode unchanged; and warm-starting the fixed problem from it must
// reach exactly the cold solve's vertex — a basis is only a hint.
func FuzzBasisUnmarshal(f *testing.F) {
	p := fuzzProblem()
	cold, err := p.Solve()
	if err != nil {
		f.Fatal(err)
	}
	if cold.Components < 2 {
		f.Fatalf("fixed problem solved as %d component(s), want a split", cold.Components)
	}
	if again, err := p.ReoptimizeDual(cold.Basis); err != nil || !again.WarmStarted {
		f.Fatalf("fixed problem does not warm start from its own basis (err %v)", err)
	}
	own, err := json.Marshal(cold.Basis)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(own)
	real, err := os.ReadFile("testdata/checkpoint_basis.json") // App-2, round 1
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	// Pre-LU document: numerical fields the current decoder ignores.
	f.Add([]byte(`{"rows":["mp(a)","mp(b)"],"bcol":["v:x1","s:mp(b)"],"rhs":[1,1],"loc":[0,1],"brow":[0,1],"bval":[1,1],"binv":[[1,0],[0,1]],"xb":[1,0]}`))
	// Names in and around the identity syntax.
	f.Add([]byte(`{"rows":["ub(x2)","ub(","ub()","ub(z)",":","s:c)","a:eq("],"bcol":["s:ub(x2)","a:ub(","v:","v:ub(z)","x","a:s:c)","a:a:eq("]}`))
	f.Add([]byte(`{"rows":["ub(x1)","ub(x0)"],"bcol":["s:ub(x1)","v:x0"]}`))
	// Mismatched lengths and degenerate documents.
	f.Add([]byte(`{"rows":["mp(a)","mp(b)"],"bcol":["v:x1"]}`))
	f.Add([]byte(`{"rows":["mp(a)"],"bcol":["v:x1","v:x0"]}`))
	f.Add([]byte(`{"rows":[],"bcol":[]}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var b Basis
		if err := json.Unmarshal(data, &b); err != nil {
			return
		}
		enc, err := json.Marshal(&b)
		if err != nil {
			t.Fatalf("encode decoded basis: %v", err)
		}
		var b2 Basis
		if err := json.Unmarshal(enc, &b2); err != nil {
			t.Fatalf("decode re-encoded basis %s: %v", enc, err)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("decode → encode → decode changed the basis: %+v vs %+v", b, b2)
		}
		if enc2, _ := json.Marshal(&b2); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding changed the bytes: %s vs %s", enc, enc2)
		}

		sol, err := p.ReoptimizeDual(&b)
		if b.Size() == 0 {
			if err == nil {
				t.Fatal("ReoptimizeDual accepted an empty basis")
			}
			return
		}
		if err != nil {
			t.Fatalf("ReoptimizeDual: %v", err)
		}
		for v := range cold.X {
			if sol.X[v] != cold.X[v] {
				t.Fatalf("var %s: warm %v, cold %v (warm started %v)", p.Name(v), sol.X[v], cold.X[v], sol.WarmStarted)
			}
		}
	})
}
