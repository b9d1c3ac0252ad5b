package solver_test

import (
	"context"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/lp"
	"sherlock/internal/solver"
	"sherlock/internal/window"
)

// BenchmarkEncoderRounds measures the solver's share of a campaign: one
// op is a 3-round Encoder.Solve sequence — encode plus warm-started LP,
// with the basis carried between rounds — over the observations each of
// the eight paper apps accumulates in a default campaign. Each app's
// rounds replay through one accumulator that only grows, as in the
// engine, so the Encoder's cross-round caches engage.
func BenchmarkEncoderRounds(b *testing.B) {
	cfg := core.DefaultConfig()
	type appRounds struct {
		rounds []*window.Observations // accumulator after each round
	}
	var all []appRounds
	for _, name := range apps.Names() {
		p, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		var ar appRounds
		c := cfg
		c.Observer = core.ObserverFuncs{OnRound: func(_ core.RoundSnapshot, acc *window.Observations) {
			ar.rounds = append(ar.rounds, acc.Clone())
		}}
		if _, err := core.Infer(context.Background(), p, c); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		all = append(all, ar)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ar := range all {
			enc := solver.NewEncoder(cfg.Solver)
			live := new(window.Observations)
			var basis *lp.Basis
			for _, snap := range ar.rounds {
				*live = *snap // same accumulator, grown by the round
				_, next, err := enc.Solve(live, basis)
				if err != nil {
					b.Fatal(err)
				}
				basis = next
			}
		}
	}
}
