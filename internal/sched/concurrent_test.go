package sched

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sherlock/internal/prog"
	"sherlock/internal/trace"
)

// TestRunConcurrentSameProgram exercises the documented guarantee that Run
// is safe for concurrent use against a shared Program: the engine's worker
// pool issues many simultaneous Runs of the same (finalized-on-first-use)
// program. Runs also share pooled scratch state (the reseeded rng, which
// a zipf sampler keeps a reference to, and the event buffer), so the
// goroutines mix different seeds, delay plans and step distributions at
// once. Under `go test -race` this doubles as a data-race check; beyond
// safety, every concurrent run must produce exactly the trace and delay
// instances of the same run done sequentially.
func TestRunConcurrentSameProgram(t *testing.T) {
	p := prog.New("conc", "Conc")
	p.AddMethod("C::inc",
		prog.Lock("L"),
		prog.Rd("C::n", "o"),
		prog.Cp(40),
		prog.Wr("C::n", "o", 1),
		prog.Unlock("L"),
	)
	p.AddTest("T",
		prog.Go(prog.ForkThread, "C::inc", "o", "h1"),
		prog.Go(prog.ForkThread, "C::inc", "o", "h2"),
		prog.JoinT("h1"), prog.JoinT("h2"),
	)
	// Deliberately NOT finalized here: the first concurrent Run calls
	// Finalize, which must serialize internally.

	plan := map[trace.Key]int64{
		trace.KeyFor(trace.KindEnd, prog.APIMonitorExit): 500,
		trace.KeyFor(trace.KindWrite, "C::n"):            300,
	}
	var opts []Options
	for seed := int64(1); seed <= 4; seed++ {
		for _, dist := range Dists {
			opts = append(opts,
				Options{Seed: seed, StepDist: dist},
				Options{Seed: seed, StepDist: dist, Delays: plan},
				Options{Seed: seed, StepDist: dist, Delays: plan, SiteDelays: map[int]int64{1: 200}, DelayProbability: 0.5})
		}
	}
	render := func(opt Options) ([]byte, error) {
		res, err := Run(p, p.Tests[0], opt)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.Trace.Write(&buf); err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, "delays=%v steps=%d", res.Delays, res.Steps)
		return buf.Bytes(), nil
	}

	const goroutines = 8
	got := make([][][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			got[g] = make([][]byte, len(opts))
			// Each goroutine starts at a different option, so different
			// configurations overlap in time.
			for n := range opts {
				i := (g*5 + n) % len(opts)
				b, err := render(opts[i])
				if err != nil {
					errs[g] = err
					return
				}
				got[g][i] = b
			}
		}(g)
	}
	wg.Wait()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for i, opt := range opts {
		want, err := render(opt)
		if err != nil {
			t.Fatal(err)
		}
		for g := range got {
			if !bytes.Equal(got[g][i], want) {
				t.Fatalf("goroutine %d, options %+v: concurrent run differs from the sequential one", g, opt)
			}
		}
	}
}
