package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
	"sherlock/internal/solver"
	"sherlock/internal/store"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// corpusSeeds is how many scheduler seeds every test of every paper app is
// captured under; the corpus holds corpusSeeds × (tests of the 8 apps)
// traces. Ingest cost grows with corpus size, so this fixes the size at
// which ingest_traces_per_s is stated.
const corpusSeeds = 4

// corpusApp is one paper app's share of the captured corpus.
type corpusApp struct {
	prog   *prog.Program
	keys   []string // content addresses, sorted: the offline solve's order
	last   string   // the trace the incremental fold adds
	base   *core.Checkpoint
	want   []byte              // from-scratch offline result, wall-clock fields zeroed
	wantIn []core.InferredSync // want's inferred set, in sortedSyncs order
}

// corpusInput is the set-up a corpus run works from.
type corpusInput struct {
	traces []*trace.Trace // capture order: app, test, seed
	keys   []string       // content address of traces[i]
	apps   []*corpusApp
}

func corpusConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.DisableTracing = true
	return cfg
}

// resultBytes renders a result with the wall-clock fields zeroed — the
// only fields equivalent solves may differ in.
func resultBytes(res *core.Result) ([]byte, error) {
	c := *res
	c.Overhead.RunWall = 0
	c.Overhead.SolveWall = 0
	return json.Marshal(&c)
}

// setupCorpus captures the traces, computes their content addresses, the
// from-scratch offline result per app over its traces in key order, and a
// checkpoint per app covering all of its traces but one.
func setupCorpus(ctx context.Context, seed int64) (*corpusInput, error) {
	cfg := corpusConfig()
	in := &corpusInput{}
	for _, app := range apps.All() {
		ca := &corpusApp{prog: app}
		var keyed core.KeyedSlice
		for _, test := range app.Tests {
			for s := int64(0); s < corpusSeeds; s++ {
				res, err := sched.RunContext(ctx, app, test, sched.Options{Seed: seed*1_000_003 + s*104_729 + int64(len(in.traces))})
				if err != nil {
					return nil, fmt.Errorf("capture %s/%s: %w", app.Name, test.Name, err)
				}
				key, err := store.Key(res.Trace)
				if err != nil {
					return nil, err
				}
				in.traces = append(in.traces, res.Trace)
				in.keys = append(in.keys, key)
				keyed = append(keyed, core.KeyedTrace{Key: key, Trace: res.Trace})
			}
		}
		ca.last = keyed[len(keyed)-1].Key
		sort.Slice(keyed, func(i, j int) bool { return keyed[i].Key < keyed[j].Key })
		var sorted []*trace.Trace
		var baseSet core.KeyedSlice
		for _, kt := range keyed {
			ca.keys = append(ca.keys, kt.Key)
			sorted = append(sorted, kt.Trace)
			if kt.Key != ca.last {
				baseSet = append(baseSet, kt)
			}
		}
		want, err := core.InferFromSource(ctx, core.SliceSource(sorted), cfg)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", app.Name, err)
		}
		if ca.want, err = resultBytes(want); err != nil {
			return nil, err
		}
		ca.wantIn = sortedSyncs(want.Inferred)
		if _, ca.base, err = core.InferIncremental(ctx, nil, baseSet, cfg); err != nil {
			return nil, fmt.Errorf("checkpoint %s: %w", app.Name, err)
		}
		in.apps = append(in.apps, ca)
	}
	return in, nil
}

// corpusCycle is one pass of the timed work: ingest every trace into a
// fresh on-disk corpus, then per app an offline solve streamed off the
// corpus and a +1-trace incremental fold onto the app's checkpoint,
// timing each call.
type corpusCycle struct {
	ingest    []time.Duration // per trace, capture order
	ingestCPU time.Duration   // user CPU time of the whole ingest loop
	offline   []time.Duration // per app
	fold      []time.Duration // per app
	wall      time.Duration   // the whole cycle's calls, checks excluded
	corpus    *store.Corpus
	dir       string
}

func runCorpusCycle(ctx context.Context, r *run, in *corpusInput) (*corpusCycle, error) {
	cfg := corpusConfig()
	cy := &corpusCycle{dir: filepath.Join(r.workDir, "corpus")}
	var checks time.Duration
	start := time.Now()
	c, err := store.Open(cy.dir)
	if err != nil {
		return nil, err
	}
	cy.corpus = c
	cpu0 := userCPU()
	for i, t := range in.traces {
		ts := time.Now()
		e, added, err := c.Ingest(t)
		cy.ingest = append(cy.ingest, time.Since(ts))
		r.attempted++
		switch {
		case err != nil:
			r.fail("ingest %s/%s: %v", t.App, t.Test, err)
		case !added || e.Key != in.keys[i]:
			r.fail("ingest %s/%s: key %s added=%v, want new key %s", t.App, t.Test, e.Key, added, in.keys[i])
		}
	}
	cy.ingestCPU = userCPU() - cpu0
	for _, ca := range in.apps {
		ts := time.Now()
		res, err := core.InferFromSource(ctx, c.Source(ca.keys...), cfg)
		d := time.Since(ts)
		cy.offline = append(cy.offline, d)
		tc := time.Now()
		r.attempted++
		r.checkResult("offline", ca, res, err)
		checks += time.Since(tc)
	}
	for _, ca := range in.apps {
		ts := time.Now()
		res, _, err := core.InferIncremental(ctx, ca.base, c.Source(ca.last), cfg)
		d := time.Since(ts)
		cy.fold = append(cy.fold, d)
		tc := time.Now()
		r.attempted++
		r.checkResult("incremental", ca, res, err)
		checks += time.Since(tc)
	}
	cy.wall = time.Since(start) - checks
	return cy, nil
}

// userCPU returns the user CPU time the process has used.
func userCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime))
}

// emptyCorpus removes a corpus's files but keeps its directories, so the
// next cycle ingests into an empty corpus whose blob fan-out directories
// exist, as in a long-lived store. Creating and removing those 256
// directories every cycle multiplied the discard work of a disk mounted
// with online discard several times over.
func emptyCorpus(dir string) error {
	return filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		return os.Remove(path)
	})
}

// checkResult fails a solve whose result differs from the app's
// from-scratch offline result.
func (r *run) checkResult(kind string, ca *corpusApp, res *core.Result, err error) {
	if err != nil {
		r.fail("%s %s: %v", kind, ca.prog.Name, err)
		return
	}
	got, err := resultBytes(res)
	if err != nil {
		r.fail("%s %s: %v", kind, ca.prog.Name, err)
		return
	}
	if !bytes.Equal(got, ca.want) {
		r.fail("%s %s: result differs from the from-scratch offline solve", kind, ca.prog.Name)
	}
}

func runCorpus(r *run) error {
	runtime.GOMAXPROCS(1) // one stream of work, as on campaign
	ctx := context.Background()
	in, err := timeSetup(r, func() (*corpusInput, error) { return setupCorpus(ctx, r.seed) })
	if err != nil {
		return err
	}
	if r.traced {
		return traceCorpus(ctx, r, in)
	}
	var (
		ingested int
		ingest   []float64                         // per cycle
		offline  = make([][]float64, len(in.apps)) // per app, per cycle
		alloc    float64
		q        quality
	)
	rss := startTimed()
	start := time.Now()
	for n := 0; time.Since(start) < r.duration; n++ {
		a0 := allocMB()
		cy, err := runCorpusCycle(ctx, r, in)
		alloc += allocMB() - a0
		if err != nil {
			return err
		}
		ingested += len(in.traces)
		ingest = append(ingest, cy.ingestCPU.Seconds())
		if err := emptyCorpus(cy.dir); err != nil {
			return err
		}
		for k, d := range cy.offline {
			offline[k] = append(offline[k], ms(d))
		}
	}
	rss.finish(r)
	// Quality of the offline path: the checked results equal the
	// references, so score those.
	for _, ca := range in.apps {
		var res core.Result
		if err := json.Unmarshal(ca.want, &res); err != nil {
			return err
		}
		q.add(ca.prog, &res)
	}
	// Traces ingested per second of user CPU time, in the median cycle.
	// Wall time would add the kernel's file-system time, which on a disk
	// mounted with online discard depends on the minutes before the run:
	// back-to-back runs on one input read 593-646 traces per user-CPU
	// second but 330-410 per wall second, and per kernel-CPU second fell
	// from 987 to 568. Wall-clock ingest time is store.ingest_ms in the
	// traced run.
	r.set("throughput_per_s", float64(len(in.traces))/median(ingest), "1/s")
	// Each app's offline solve time is its median over the cycles; the
	// figures are the middle app's and the slowest app's. With eight apps
	// a pooled tail percentile would sample little but the largest app's
	// few slowest solves.
	perApp := make([]float64, len(offline))
	for k, ts := range offline {
		perApp[k] = median(ts)
	}
	r.set("latency_ms_p50", median(perApp), "ms")
	r.set("latency_ms_tail", percentile(perApp, 1), "ms")
	r.set("alloc_mb_per_op", alloc/float64(ingested), "MB")
	q.report(r)
	return nil
}

// traceCorpus alternates plain cycles with probed ones. After a probed
// cycle it times the layers below the library calls: EncodeTrace over
// every trace, and a replay of each app's offline solve through
// Corpus.Get, window extraction and the solver, checked against the
// reference result. The probed cycles' wall time, probes excluded, minus
// the plain cycles' is the tracing overhead.
func traceCorpus(ctx context.Context, r *run, in *corpusInput) error {
	var (
		cycles                              int
		plainWalls, probedWalls             []float64
		probedWall                          time.Duration
		ingest, ingestQ1, ingestQ4          time.Duration
		offline, fold                       time.Duration
		encode, decode, extract, wfold, slv time.Duration
		encBytes, encEvents                 int
		conflicts, built, admitted          int
		vars, constraints, pivots, dual     int
		components, rowsPres, rows, solves  int
	)
	quarter := len(in.traces) / 4
	start := time.Now()
	for n := 0; time.Since(start) < r.duration || n < 2; n++ {
		probed := n%2 == 1
		cy, err := runCorpusCycle(ctx, r, in)
		if err != nil {
			return err
		}
		if !probed {
			plainWalls = append(plainWalls, ms(cy.wall))
			if err := emptyCorpus(cy.dir); err != nil {
				return err
			}
			continue
		}
		cycles++
		probedWall += cy.wall
		probedWalls = append(probedWalls, ms(cy.wall))
		for i, d := range cy.ingest {
			ingest += d
			if i < quarter {
				ingestQ1 += d
			}
			if i >= len(cy.ingest)-quarter {
				ingestQ4 += d
			}
		}
		for _, d := range cy.offline {
			offline += d
		}
		for _, d := range cy.fold {
			fold += d
		}

		for _, t := range in.traces {
			ts := time.Now()
			data, err := store.EncodeTrace(t)
			encode += time.Since(ts)
			if err != nil {
				return err
			}
			encBytes += len(data)
			encEvents += t.Len()
		}
		cfg := corpusConfig()
		scfg := cfg.Solver
		scfg.KeepRacyWindows = !cfg.RemoveRacyMP
		for _, ca := range in.apps {
			acc := window.NewObservations(cfg.Window)
			for _, key := range ca.keys {
				ts := time.Now()
				t, err := cy.corpus.Get(key)
				decode += time.Since(ts)
				if err != nil {
					return err
				}
				ts = time.Now()
				cs := window.FindConflicts(t, cfg.Window)
				ws := window.BuildWindows(t, cs)
				extract += time.Since(ts)
				conflicts += len(cs)
				built += len(ws)
				before := len(acc.Windows)
				ts = time.Now()
				acc.AddWindows(ws)
				acc.AddTraceStats(t)
				wfold += time.Since(ts)
				admitted += len(acc.Windows) - before
			}
			ts := time.Now()
			sr, _, err := solver.NewEncoder(scfg).Solve(acc, nil)
			slv += time.Since(ts)
			r.attempted++
			if err != nil {
				r.fail("offline replay %s: %v", ca.prog.Name, err)
				continue
			}
			solves++
			vars += sr.Vars
			constraints += sr.Constraints
			pivots += sr.Iters
			dual += sr.DualIters
			components += sr.Components
			rowsPres += sr.RowsPresolved
			rows += sr.Constraints
			if g := solvedSet(sr); !slices.Equal(g, ca.wantIn) {
				r.fail("offline replay %s: inferred %v, InferFromSource inferred %v", ca.prog.Name, g, ca.wantIn)
			}
		}
		if err := emptyCorpus(cy.dir); err != nil {
			return err
		}
	}
	n := float64(cycles)
	r.set("store.encode_ms", ms(encode)/n, "ms")
	r.set("store.ingest_ms", ms(ingest)/n, "ms")
	r.set("store.ingest_ms_q1", ms(ingestQ1)/n, "ms")
	r.set("store.ingest_ms_q4", ms(ingestQ4)/n, "ms")
	r.set("store.decode_ms", ms(decode)/n, "ms")
	r.set("store.bytes_per_event", per(float64(encBytes), float64(encEvents)), "B")
	r.set("window.extract_ms", ms(extract)/n, "ms")
	r.set("window.conflicts", float64(conflicts)/n, "count")
	r.set("window.windows_built", float64(built)/n, "count")
	r.set("window.fold_ms", ms(wfold)/n, "ms")
	r.set("window.admit_ratio", per(float64(admitted), float64(built)), "ratio")
	r.set("solver.solve_ms", ms(slv)/n, "ms")
	r.set("solver.vars", per(float64(vars), float64(solves)), "count")
	r.set("solver.constraints", per(float64(constraints), float64(solves)), "count")
	r.set("lp.pivots", per(float64(pivots), float64(solves)), "count")
	r.set("lp.dual_pivots", per(float64(dual), float64(solves)), "count")
	r.set("lp.components", per(float64(components), float64(solves)), "count")
	r.set("lp.presolve_row_ratio", per(float64(rowsPres), float64(rows)), "ratio")
	r.set("core.offline_ms", ms(offline)/n, "ms")
	r.set("core.fold_ms", ms(fold)/n, "ms")
	r.set("core.other_ms", ms(probedWall-ingest-offline-fold)/n, "ms")
	// Medians: the first cycles of a run are slow for reasons of the file
	// system's, not of tracing (see runCorpus).
	r.set("trace.overhead_ms", median(probedWalls)-median(plainWalls), "ms")
	return nil
}
