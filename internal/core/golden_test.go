package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/gen"
	"sherlock/internal/lp"
	"sherlock/internal/solver"
	"sherlock/internal/window"
)

// goldenInferHash is the SHA-256 of the JSON results (wall clock zeroed)
// of a default campaign on the eight paper apps plus one generated app
// per profile. The equivalence suites compare configurations of one build
// against each other; this constant pins the results across builds, so a
// speed change that silently alters inference fails here. Update it only
// for an intended change to inference.
const goldenInferHash = "243e620964f889f7ed491fed84ceaa2ecd46b0fb26c6af5deb288a4e798f159f"

func TestInferGolden(t *testing.T) {
	names := apps.Names()
	names = append(names, gen.SampleNames()...)
	h := sha256.New()
	for _, name := range names {
		p, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Infer(context.Background(), p, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h.Write(resultBytes(t, res))
		h.Write([]byte{'\n'})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenInferHash {
		t.Fatalf("golden inference hash over %d apps = %s, want %s", len(names), got, goldenInferHash)
	}
}

// goldenBasisHash is the SHA-256 over every round of default campaigns on
// the eight paper apps plus one generated app per profile: each round's
// json.Marshal(basis) followed by its Iters, DualIters and WarmStarted.
// TestInferGolden pins what the campaigns infer; this constant pins how
// the LP got there — the pivot counts and the warm basis each round hands
// to the next — so a change to the solver's data layout that silently
// alters a pivot sequence or the Basis JSON bytes fails here. Update it
// only for an intended change to the solver.
const goldenBasisHash = "6fc34f6f99adf29d728bbb1aeb74c129d7603a98e8c8fc0b704d717492966869"

func TestBasisGolden(t *testing.T) {
	names := apps.Names()
	names = append(names, gen.SampleNames()...)
	h := sha256.New()
	for _, name := range names {
		p, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		scfg := cfg.Solver
		scfg.KeepRacyWindows = !cfg.RemoveRacyMP
		// Re-solve each round's live accumulator with a second Encoder
		// threading its own basis, exactly as the engine does; the
		// snapshot's pivot count and warm flag cross-check that the
		// replay saw the engine's problem sequence.
		enc := solver.NewEncoder(scfg)
		var basis *lp.Basis
		var failed error
		cfg.Observer = ObserverFuncs{OnRound: func(snap RoundSnapshot, acc *window.Observations) {
			if failed != nil {
				return
			}
			sr, b, err := enc.Solve(acc, basis)
			if err != nil {
				failed = err
				return
			}
			if sr.Iters != snap.LPIters || sr.WarmStarted != snap.Warm {
				failed = fmt.Errorf("round %d: replay iters/warm %d/%v, engine %d/%v",
					snap.Round, sr.Iters, sr.WarmStarted, snap.LPIters, snap.Warm)
				return
			}
			basis = b
			bj, err := json.Marshal(b)
			if err != nil {
				failed = err
				return
			}
			h.Write(bj)
			fmt.Fprintf(h, "\n%d %d %v\n", sr.Iters, sr.DualIters, sr.WarmStarted)
		}}
		if _, err := Infer(context.Background(), p, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if failed != nil {
			t.Fatalf("%s: %v", name, failed)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenBasisHash {
		t.Fatalf("golden basis hash over %d apps = %s, want %s", len(names), got, goldenBasisHash)
	}
}
