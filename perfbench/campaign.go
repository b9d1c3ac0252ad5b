package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/gen"
	"sherlock/internal/lp"
	"sherlock/internal/perturb"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
	"sherlock/internal/solver"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// genPerStratum is how many generated apps a seed draws for each
// (profile, size) pair.
const genPerStratum = 4

// genApps draws the generated programs a seed contributes: genPerStratum
// apps for every profile at every size from 4 to gen.MaxSize, each with a
// seeded generator seed. Sizes and profiles are stratified rather than
// drawn, and many apps are drawn, so the mean campaign cost varies little
// from seed to seed.
func genApps(seed int64) []gen.Spec {
	rng := rand.New(rand.NewSource(seed))
	var specs []gen.Spec
	for size := 4; size <= gen.MaxSize; size++ {
		for _, profile := range gen.Profiles {
			for i := 0; i < genPerStratum; i++ {
				specs = append(specs, gen.Spec{Seed: 1 + rng.Int63n(1<<40), Profile: profile, Size: size})
			}
		}
	}
	return specs
}

// campaignSeed derives the scheduler seed of the i-th timed campaign.
func campaignSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)*7 + 1
}

// buildCampaignApps returns the paper apps plus freshly built generated
// apps, and the time spent building the generated ones.
func buildCampaignApps(specs []gen.Spec) ([]*prog.Program, time.Duration, error) {
	progs := append([]*prog.Program(nil), apps.All()...)
	t0 := time.Now()
	for _, sp := range specs {
		// gen.New is the registry's build path without its process-wide
		// cache, so every set-up repetition pays the full build.
		p := gen.New(sp)
		if err := p.Finalize(); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", sp.Name(), err)
		}
		progs = append(progs, p)
	}
	return progs, time.Since(t0), nil
}

func campaignConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.DisableTracing = true
	return cfg
}

// quality accumulates core.ScoreResult outcomes the way cmd/bench's
// generated-app sweep aggregates them.
type quality struct{ correct, notSync, missedOther int }

func (q *quality) add(app *prog.Program, res *core.Result) {
	s := core.ScoreResult(app, res)
	q.correct += len(s.Correct)
	q.notSync += len(s.NotSync)
	q.missedOther += s.MissByCategory[prog.CatOther]
}

func (q *quality) report(r *run) {
	r.set("nonrace_precision", per(float64(q.correct), float64(q.correct+q.notSync)), "ratio")
	r.set("recall", per(float64(q.correct), float64(q.correct+q.missedOther)), "ratio")
}

func runCampaign(r *run) error {
	// One campaign at a time on one processor. A campaign's rounds are
	// barriers, so with two workers a neighbour stealing either processor
	// stalls the whole campaign: back-to-back runs on a 2-CPU host ranged
	// from 90 to 197 campaigns/s with two workers, 143 to 168 with one.
	runtime.GOMAXPROCS(1)
	ctx := context.Background()
	specs := genApps(r.seed)
	var genBuild []float64
	progs, err := timeSetup(r, func() ([]*prog.Program, error) {
		progs, build, err := buildCampaignApps(specs)
		if err != nil {
			return nil, err
		}
		genBuild = append(genBuild, ms(build))
		// One untimed campaign per app warms lazily built state.
		for i, p := range progs {
			if _, err := core.Infer(ctx, p, campaignConfig(campaignSeed(r.seed, -1-i))); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", p.Name, err)
			}
		}
		return progs, nil
	})
	if err != nil {
		return err
	}
	if r.traced {
		r.set("gen.build_ms", median(genBuild), "ms")
		return traceCampaigns(ctx, r, progs)
	}

	// The timed loop runs whole sweeps — every app once — so each app
	// weighs the same in every figure whatever the run's length.
	var (
		lat   []float64
		byApp = make([][]float64, len(progs))
		q     quality
		alloc float64
		i     int
	)
	rss := startTimed()
	start := time.Now()
	for time.Since(start) < r.duration {
		for k, app := range progs {
			r.attempted++
			a0 := allocMB()
			t0 := time.Now()
			res, err := core.Infer(ctx, app, campaignConfig(campaignSeed(r.seed, i)))
			d := ms(time.Since(t0))
			lat = append(lat, d)
			byApp[k] = append(byApp[k], d)
			alloc += allocMB() - a0
			i++
			switch {
			case err != nil:
				r.fail("campaign %s: %v", app.Name, err)
			case res.Deadlocks > 0:
				r.fail("campaign %s: %d deadlocked runs", app.Name, res.Deadlocks)
			default:
				q.add(app, res)
			}
		}
	}
	rss.finish(r)
	// Campaigns per second of a sweep in which every app takes its median
	// time: a burst of interference from other tenants of the machine
	// slows a few campaigns, not the figure.
	var sweep float64
	for _, ts := range byApp {
		sweep += median(ts)
	}
	r.set("throughput_per_s", 1000*float64(len(progs))/sweep, "1/s")
	r.set("alloc_mb_per_op", alloc/float64(r.attempted), "MB")
	r.set("latency_ms_p50", percentile(lat, 0.5), "ms")
	r.set("latency_ms_tail", percentile(lat, 0.9), "ms")
	q.report(r)
	return nil
}

// campaignLayers accumulates per-layer time and counts over replayed
// campaigns.
type campaignLayers struct {
	campaigns                           int
	sched, extract, refine, fold, solve time.Duration
	wall, ref                           time.Duration
	runs, events, deadlocks             int
	conflicts, built, admitted          int
	delays, trimmed                     int
	vars, constraints                   int
	pivots, dualPivots, components      int
	rowsPresolved, rows, rounds, warm   int
}

// traceCampaigns runs whole sweeps like the untraced run, alternating per
// campaign the library call (core.Infer, layers untimed) with a replay of
// the same campaign through the exported layer calls, and fails any
// campaign whose replay infers a different set.
func traceCampaigns(ctx context.Context, r *run, progs []*prog.Program) error {
	var l campaignLayers
	start := time.Now()
	for i := 0; time.Since(start) < r.duration || i%len(progs) != 0; i++ {
		app := progs[i%len(progs)]
		cfg := campaignConfig(campaignSeed(r.seed, i))
		r.attempted++
		t0 := time.Now()
		want, err := core.Infer(ctx, app, cfg)
		l.ref += time.Since(t0)
		if err != nil {
			r.fail("campaign %s: %v", app.Name, err)
			continue
		}
		got, err := l.replay(ctx, app, cfg)
		if err != nil {
			r.fail("replay %s: %v", app.Name, err)
			continue
		}
		if !slices.Equal(got, sortedSyncs(want.Inferred)) {
			r.fail("replay %s seed %d: inferred %v, core.Infer inferred %v", app.Name, cfg.Seed, got, want.Inferred)
		}
	}
	n := float64(l.campaigns)
	layerSum := l.sched + l.extract + l.refine + l.fold + l.solve
	r.set("sched.busy_ms", ms(l.sched)/n, "ms")
	r.set("sched.runs", float64(l.runs)/n, "count")
	r.set("sched.events", float64(l.events)/n, "count")
	r.set("sched.us_per_event", per(float64(l.sched.Microseconds()), float64(l.events)), "us")
	r.set("sched.deadlocks", float64(l.deadlocks), "count")
	r.set("window.extract_ms", ms(l.extract)/n, "ms")
	r.set("window.conflicts", float64(l.conflicts)/n, "count")
	r.set("window.windows_built", float64(l.built)/n, "count")
	r.set("window.fold_ms", ms(l.fold)/n, "ms")
	r.set("window.admit_ratio", per(float64(l.admitted), float64(l.built)), "ratio")
	r.set("perturb.refine_ms", ms(l.refine)/n, "ms")
	r.set("perturb.delays", float64(l.delays)/n, "count")
	r.set("perturb.trim_ratio", per(float64(l.trimmed), float64(l.built)), "ratio")
	r.set("solver.solve_ms", ms(l.solve)/n, "ms")
	r.set("solver.vars", float64(l.vars)/n, "count")
	r.set("solver.constraints", float64(l.constraints)/n, "count")
	r.set("lp.pivots", float64(l.pivots)/n, "count")
	r.set("lp.dual_pivots", float64(l.dualPivots)/n, "count")
	r.set("lp.components", per(float64(l.components), float64(l.rounds)), "count")
	r.set("lp.presolve_row_ratio", per(float64(l.rowsPresolved), float64(l.rows)), "ratio")
	r.set("lp.warm_ratio", per(float64(l.warm), float64(l.rounds)), "ratio")
	r.set("core.other_ms", ms(l.wall-layerSum)/n, "ms")
	r.set("trace.overhead_ms", ms(l.wall-l.ref)/n, "ms")
	return nil
}

// sortedSyncs returns a copy of an inferred set sorted by key, then role,
// so two sets compare with slices.Equal.
func sortedSyncs(in []core.InferredSync) []core.InferredSync {
	out := append([]core.InferredSync{}, in...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Role < out[j].Role
	})
	return out
}

// solvedSet is a solve's inferred set, built the way core builds a
// Result's, in sortedSyncs order.
func solvedSet(sr *solver.Result) []core.InferredSync {
	var out []core.InferredSync
	for _, k := range sr.AcquireSet {
		out = append(out, core.InferredSync{Key: k, Role: trace.RoleAcquire, Prob: sr.Acquires[k]})
	}
	for _, k := range sr.ReleaseSet {
		out = append(out, core.InferredSync{Key: k, Role: trace.RoleRelease, Prob: sr.Releases[k]})
	}
	return sortedSyncs(out)
}

// replay runs one campaign the way core.Infer's round loop does — the
// planner's seed formula, window extraction and perturbation refinement
// per run, accumulation in test order, a warm-started solve per round and
// the next round's delay plan from its releases — timing each layer call.
func (l *campaignLayers) replay(ctx context.Context, app *prog.Program, cfg core.Config) ([]core.InferredSync, error) {
	t0 := time.Now()
	defer func() { l.wall += time.Since(t0) }()
	l.campaigns++
	scfg := cfg.Solver
	scfg.KeepRacyWindows = !cfg.RemoveRacyMP
	acc := window.NewObservations(cfg.Window)
	enc := solver.NewEncoder(scfg)
	var (
		basis *lp.Basis
		plan  perturb.Plan
		last  *solver.Result
	)
	for round := 0; round < cfg.Rounds; round++ {
		for ti, test := range app.Tests {
			opt := sched.Options{
				Seed:             cfg.Seed + int64(round)*7919 + int64(ti)*127,
				HiddenMethods:    app.Truth.HiddenMethods,
				MaxSteps:         cfg.MaxStepsPerTest,
				DelayProbability: cfg.DelayProbability,
				StepDist:         cfg.StepDist,
				Delays:           plan,
			}
			ts := time.Now()
			res, err := sched.RunContext(ctx, app, test, opt)
			l.sched += time.Since(ts)
			l.runs++
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", test.Name, round+1, err)
			}
			if res.Deadlocked {
				l.deadlocks++
				continue
			}
			l.events += res.Trace.Len()
			l.delays += len(res.Delays)

			ts = time.Now()
			conflicts := window.FindConflicts(res.Trace, cfg.Window)
			ws := window.BuildWindows(res.Trace, conflicts)
			l.extract += time.Since(ts)
			l.conflicts += len(conflicts)
			l.built += len(ws)

			ts = time.Now()
			refined := perturb.Refine(ws, res.Delays)
			l.refine += time.Since(ts)
			for k := range ws {
				if len(refined[k].RelEvents) != len(ws[k].RelEvents) || len(refined[k].AcqEvents) != len(ws[k].AcqEvents) {
					l.trimmed++
				}
			}

			before := len(acc.Windows)
			ts = time.Now()
			acc.AddWindows(refined)
			acc.AddTraceStats(res.Trace)
			l.fold += time.Since(ts)
			l.admitted += len(acc.Windows) - before
		}
		ts := time.Now()
		sr, b, err := enc.Solve(acc, basis)
		l.solve += time.Since(ts)
		if err != nil {
			return nil, fmt.Errorf("round %d solve: %w", round+1, err)
		}
		basis = b
		l.rounds++
		l.pivots += sr.Iters
		l.dualPivots += sr.DualIters
		l.components += sr.Components
		l.rowsPresolved += sr.RowsPresolved
		l.rows += sr.Constraints
		if sr.WarmStarted {
			l.warm++
		}
		plan = perturb.BuildPlan(sr.ReleaseSet, cfg.Delay)
		last = sr
	}
	l.vars += last.Vars
	l.constraints += last.Constraints
	return solvedSet(last), nil
}
