package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/solver"
)

// keyMatrixGolden pins every content address the canonical config encoding
// feeds — ConfigText, JobKey, JobKeyFromConfigText, core.ConfigSignature and
// StaticReportKey — over every one-field perturbation of the default config.
// Changing it means every cached result, stored checkpoint and posterior
// becomes unreachable: an intentional encoding change bumps the version
// headers instead.
const keyMatrixGolden = "aff4da5f87e27f30f0a1223a71dc7e3504cb5ee47b2aa4d7fe1bb62da34b6881"

// keyMatrixVariants returns the default config plus one variant per
// result-relevant or excluded field, each differing from the default in
// exactly that field, with the encoding's edge values (explicit default
// weights, "" vs "uniform" step distribution).
func keyMatrixVariants() []struct {
	name string
	cfg  core.Config
} {
	type variant = struct {
		name string
		cfg  core.Config
	}
	one := func(name string, mut func(c *core.Config)) variant {
		c := core.DefaultConfig()
		mut(&c)
		return variant{name, c}
	}
	return []variant{
		one("default", func(c *core.Config) {}),
		one("Rounds", func(c *core.Config) { c.Rounds = 5 }),
		one("Window.Near", func(c *core.Config) { c.Window.Near = 5000 }),
		one("Window.PerPairCap", func(c *core.Config) { c.Window.PerPairCap = 3 }),
		one("Window.UseUnsafeAPIs", func(c *core.Config) { c.Window.UseUnsafeAPIs = false }),
		one("Solver.Lambda", func(c *core.Config) { c.Solver.Lambda = 0.7 }),
		one("Solver.RareCoef", func(c *core.Config) { c.Solver.RareCoef = 0.25 }),
		one("Solver.Threshold", func(c *core.Config) { c.Solver.Threshold = 0.8 }),
		one("Solver.Hyp.MostlyProtected", func(c *core.Config) { c.Solver.Hyp.MostlyProtected = false }),
		one("Solver.Hyp.SyncsAreRare", func(c *core.Config) { c.Solver.Hyp.SyncsAreRare = false }),
		one("Solver.Hyp.AcqTimeVaries", func(c *core.Config) { c.Solver.Hyp.AcqTimeVaries = false }),
		one("Solver.Hyp.MostlyPaired", func(c *core.Config) { c.Solver.Hyp.MostlyPaired = false }),
		one("Solver.Hyp.ReadAcqWriteRel", func(c *core.Config) { c.Solver.Hyp.ReadAcqWriteRel = false }),
		one("Solver.Hyp.SingleRole", func(c *core.Config) { c.Solver.Hyp.SingleRole = false }),
		one("Solver.KeepRacyWindows", func(c *core.Config) { c.Solver.KeepRacyWindows = true }),
		one("Solver.SoftSingleRole", func(c *core.Config) { c.Solver.SoftSingleRole = true }),
		one("Solver.MaxLPIters", func(c *core.Config) { c.Solver.MaxLPIters = 999 }),
		one("Solver.Weights.Acquire", func(c *core.Config) { c.Solver.Weights.Acquire = 2 }),
		one("Solver.Weights.Release", func(c *core.Config) { c.Solver.Weights.Release = 0.5 }),
		one("Solver.Weights explicit {1,1}", func(c *core.Config) { c.Solver.Weights = solver.ObjectiveWeights{Acquire: 1, Release: 1} }),
		one("Solver.Parallelism", func(c *core.Config) { c.Solver.Parallelism = 4 }),
		one("Delay", func(c *core.Config) { c.Delay = 777 }),
		one("DelayProbability", func(c *core.Config) { c.DelayProbability = 0.5 }),
		one("Seed", func(c *core.Config) { c.Seed = 42 }),
		one("StepDist uniform", func(c *core.Config) { c.StepDist = "uniform" }),
		one("StepDist zipf", func(c *core.Config) { c.StepDist = "zipf" }),
		one("StepDist bursty", func(c *core.Config) { c.StepDist = "bursty" }),
		one("Parallelism", func(c *core.Config) { c.Parallelism = 8 }),
		one("Accumulate", func(c *core.Config) { c.Accumulate = false }),
		one("InjectDelays", func(c *core.Config) { c.InjectDelays = false }),
		one("RemoveRacyMP", func(c *core.Config) { c.RemoveRacyMP = false }),
		one("MaxStepsPerTest", func(c *core.Config) { c.MaxStepsPerTest = 5000 }),
		one("ColdStart", func(c *core.Config) { c.ColdStart = true }),
		one("DisableTracing", func(c *core.Config) { c.DisableTracing = true }),
	}
}

// TestKeyMatrixGolden: every key the server, the CLI router and the
// checkpoint store compute stays byte-identical across refactors of the
// config encoding.
func TestKeyMatrixGolden(t *testing.T) {
	specs := []JobSpec{
		{App: "App-1"},
		{Traces: []string{"doc-one", "doc-two"}},
		{TraceKeys: []string{"k1", "k2"}},
		{App: "App-2", Rounds: 4, Lambda: 0.3, Near: 2000, Seed: 9, MaxSteps: 777},
		{TraceKeys: []string{"k3"}, Rounds: 2, Lambda: 0.45},
	}
	var m strings.Builder
	for _, v := range keyMatrixVariants() {
		text := ConfigText(v.cfg)
		fmt.Fprintf(&m, "## %s\n%ssig=%s\n", v.name, text, core.ConfigSignature(v.cfg))
		for i, spec := range specs {
			fmt.Fprintf(&m, "spec%d job=%s eff=%s text=%s\n", i,
				JobKey(spec, v.cfg), JobKey(spec, spec.effectiveConfig(v.cfg)),
				JobKeyFromConfigText(spec, text))
		}
		for _, p := range apps.All() {
			k, err := StaticReportKey(p, v.cfg)
			if err != nil {
				t.Fatalf("%s: StaticReportKey(%s): %v", v.name, p.Name, err)
			}
			fmt.Fprintf(&m, "static %s=%s\n", p.Name, k)
		}
	}
	sum := sha256.Sum256([]byte(m.String()))
	if got := hex.EncodeToString(sum[:]); got != keyMatrixGolden {
		t.Fatalf("key matrix hash = %s, want %s\nmatrix:\n%s", got, keyMatrixGolden, m.String())
	}
}
