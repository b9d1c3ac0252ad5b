package core

import (
	"context"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/prog"
	"sherlock/internal/trace"
)

// finalSets returns the final inferred operation set as a comparable
// fingerprint (keys with roles, in Inferred's sorted order).
func finalSets(r *Result) []string {
	out := make([]string, 0, len(r.Inferred))
	for _, s := range r.Inferred {
		role := "acq"
		if s.Role == trace.RoleRelease {
			role = "rel"
		}
		out = append(out, string(s.Key)+"="+role)
	}
	return out
}

func sameSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refineConfig returns cfg seeded with the posterior of a plain campaign
// on p under cfg — the steady state of a refine campaign series.
func refineConfig(t *testing.T, p *prog.Program, cfg Config, first *Result) Config {
	t.Helper()
	pri, err := PosteriorFromResult(first, cfg).Priors(cfg)
	if err != nil {
		t.Fatalf("%s: posterior priors: %v", p.Name, err)
	}
	cfg.StaticPriors = pri
	return cfg
}

// TestRefineMatchesDynamicAllApps is the seeded-campaign golden contract:
// on every benchmark app, a campaign seeded with the previous campaign's
// posterior must land on the byte-identical final inferred operation set
// as the pure dynamic campaign, and must converge (first round whose sets
// equal the final sets) no later. The priors only tilt the reported
// round-0 solve — the executions and every later round are evidence-only
// — so the fixpoint is the dynamic one; the seeding buys convergence
// speed, never a different answer.
func TestRefineMatchesDynamicAllApps(t *testing.T) {
	ctx := context.Background()
	fewer := 0
	for _, p := range apps.All() {
		cfg := DefaultConfig()
		cfg.Parallelism = 2

		dyn, err := Infer(ctx, p, cfg)
		if err != nil {
			t.Fatalf("%s: dynamic: %v", p.Name, err)
		}
		ref, err := Infer(ctx, p, refineConfig(t, p, cfg, dyn))
		if err != nil {
			t.Fatalf("%s: refine: %v", p.Name, err)
		}

		if ds, rs := finalSets(dyn), finalSets(ref); !sameSets(ds, rs) {
			t.Errorf("%s: refine final set diverges from dynamic:\n dynamic: %v\n refine:  %v", p.Name, ds, rs)
		}
		dr, rr := dyn.RoundsToConverge(), ref.RoundsToConverge()
		if rr > dr {
			t.Errorf("%s: refine converges in %d rounds, dynamic in %d", p.Name, rr, dr)
		}
		if rr < dr {
			fewer++
		}
		t.Logf("%s: rounds to converge: dynamic=%d refine=%d", p.Name, dr, rr)
	}
	t.Logf("refine strictly faster on %d/8 apps", fewer)
}

// TestRefineDeterministic: the seeded path must stay bit-identical across
// runs like every other mode — posteriors are deterministic and the
// seeded round-0 solve is a pure function of the accumulator and priors.
func TestRefineDeterministic(t *testing.T) {
	ctx := context.Background()
	p, err := apps.ByName("App-3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Parallelism = 3
	first, err := Infer(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = refineConfig(t, p, cfg, first)
	r1, err := Infer(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Infer(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSets(finalSets(r1), finalSets(r2)) || r1.RoundsToConverge() != r2.RoundsToConverge() {
		t.Fatalf("refine inference not deterministic:\n%v\nvs\n%v", finalSets(r1), finalSets(r2))
	}
}

// TestPosteriorRoundTrip: posterior persistence is exact, the signature
// check rejects mismatched configs, and a refined campaign seeded from
// posteriors still lands on the dynamic fixpoint.
func TestPosteriorRoundTrip(t *testing.T) {
	ctx := context.Background()
	p, err := apps.ByName("App-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	res, err := Infer(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	post := PosteriorFromResult(res, cfg)
	data, err := EncodePosterior(post)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePosterior(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != res.App || back.ConfigSig != ConfigSignature(cfg) || back.Rounds != len(res.Rounds) {
		t.Fatalf("posterior round-trip mangled header: %+v", back)
	}
	if len(back.Acquires) != len(res.Acquires) || len(back.Releases) != len(res.Releases) {
		t.Fatalf("posterior round-trip dropped probabilities")
	}

	other := cfg
	other.Solver.Threshold = cfg.Solver.Threshold / 2
	if _, err := back.Priors(other); err == nil {
		t.Fatal("posterior accepted a config with a different signature")
	}

	pri, err := back.Priors(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.StaticPriors = pri
	refined, err := Infer(ctx, p, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSets(finalSets(res), finalSets(refined)) {
		t.Fatalf("refined campaign diverges from its own posterior source:\n%v\nvs\n%v", finalSets(res), finalSets(refined))
	}
	if refined.RoundsToConverge() > res.RoundsToConverge() {
		t.Errorf("refine converges in %d rounds, original in %d", refined.RoundsToConverge(), res.RoundsToConverge())
	}

	if _, err := DecodePosterior([]byte(`{"version":"bogus"}`)); err == nil {
		t.Fatal("DecodePosterior accepted an unknown version")
	}
}

// TestRefineConvergesFaster pins the refine-mode payoff: on App-6 the
// dynamic campaign needs two rounds to reach its final sets, but a second
// campaign seeded with the first's posteriors reports the final sets from
// round 0 — a full round of test executions saved. (Everything is seeded,
// so the speedup is a stable property, not a lucky schedule.)
func TestRefineConvergesFaster(t *testing.T) {
	ctx := context.Background()
	p, err := apps.ByName("App-6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	first, err := Infer(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.RoundsToConverge() < 2 {
		t.Fatalf("App-6 dynamic campaign converges in %d rounds; expected ≥2 for this test to be meaningful", first.RoundsToConverge())
	}

	pri, err := PosteriorFromResult(first, cfg).Priors(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.StaticPriors = pri
	refined, err := Infer(ctx, p, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSets(finalSets(first), finalSets(refined)) {
		t.Fatalf("refined campaign final set diverges:\n%v\nvs\n%v", finalSets(first), finalSets(refined))
	}
	if rr := refined.RoundsToConverge(); rr >= first.RoundsToConverge() {
		t.Errorf("refine converges in %d rounds, original in %d — posterior seeding saved nothing", rr, first.RoundsToConverge())
	}
}

// TestInferStaticDeterministicAllApps: static-only inference must succeed
// on every app, report no execution cost, and be bit-identical across
// runs — the property the server's content-addressed cache assumes.
func TestInferStaticDeterministicAllApps(t *testing.T) {
	ctx := context.Background()
	for _, p := range apps.All() {
		cfg := DefaultConfig()
		r1, an1, err := InferStatic(ctx, p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		r2, an2, err := InferStatic(ctx, p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !sameSets(finalSets(r1), finalSets(r2)) {
			t.Errorf("%s: static inference not deterministic", p.Name)
		}
		if an1.ProgramHash != an2.ProgramHash || an1.ProgramHash == "" {
			t.Errorf("%s: program hash unstable or empty", p.Name)
		}
		if r1.Overhead.Events != 0 || r1.Overhead.RunWall != 0 {
			t.Errorf("%s: static inference reports execution cost: %+v", p.Name, r1.Overhead)
		}
		if len(r1.Inferred) == 0 {
			t.Errorf("%s: static inference found nothing", p.Name)
		}
	}
}
