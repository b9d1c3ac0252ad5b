package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/gen"
	"sherlock/internal/prog"
	"sherlock/internal/trace"
)

// goldenTraceHash is the SHA-256 of every trace (and its recorded delay
// instances) that goldenRuns produces. It pins the scheduler's output
// across builds: the determinism suites compare configurations of one
// build against each other and cannot see a change that shifts every
// run alike. Update it only for an intended change to scheduling.
const goldenTraceHash = "854d2b4caf39b30acd19ae4fb459ad50d240f31c2e5c6aaa1b16c71d21cb6234"

// goldenPlan derives a deterministic perturbation plan from an
// unperturbed run: every other release-capable key (in sorted order)
// gets a Perturber-sized delay, and every third statement site a
// smaller TSVD-style site delay.
func goldenPlan(tr *trace.Trace) (map[trace.Key]int64, map[int]int64) {
	seen := map[trace.Key]bool{}
	siteSet := map[int]bool{}
	for i := range tr.Events {
		e := &tr.Events[i]
		if trace.ReleaseCapable(e.Kind) {
			seen[trace.EventKey(e)] = true
		}
		if e.Site != 0 {
			siteSet[e.Site] = true
		}
	}
	keys := make([]trace.Key, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	plan := map[trace.Key]int64{}
	for i, k := range keys {
		if i%2 == 0 {
			plan[k] = 100_000
		}
	}
	sites := make([]int, 0, len(siteSet))
	for s := range siteSet {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	siteDelays := map[int]int64{}
	for i, s := range sites {
		if i%3 == 0 {
			siteDelays[s] = 25_000
		}
	}
	return plan, siteDelays
}

// goldenRuns feeds every run of the golden sweep to visit: each test of
// the eight paper apps plus one generated app per profile, under every
// step distribution, unperturbed, with a delay plan, and with the plan
// plus site delays applied with probability one half.
func goldenRuns(t *testing.T, visit func(name string, res *Result)) {
	t.Helper()
	programs := apps.All()
	for _, name := range gen.SampleNames() {
		p, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, p)
	}
	run := func(p *prog.Program, test *prog.Test, label string, opt Options) *Result {
		t.Helper()
		res, err := Run(p, test, opt)
		if err != nil {
			t.Fatalf("%s/%s %s: %v", p.Name, test.Name, label, err)
		}
		visit(fmt.Sprintf("%s/%s %s", p.Name, test.Name, label), res)
		return res
	}
	for _, p := range programs {
		for ti, test := range p.Tests {
			for _, dist := range Dists {
				seed := int64(ti)*127 + 11
				base := Options{Seed: seed, StepDist: dist, HiddenMethods: p.Truth.HiddenMethods}
				plain := run(p, test, dist+" plain", base)
				plan, siteDelays := goldenPlan(plain.Trace)

				delayed := base
				delayed.Delays = plan
				run(p, test, dist+" delays", delayed)

				mixed := delayed
				mixed.SiteDelays = siteDelays
				mixed.DelayProbability = 0.5
				run(p, test, dist+" mixed", mixed)
			}
		}
	}
}

// TestTraceGolden compares the hash of the golden sweep's serialized
// traces, delay instances and run summaries against goldenTraceHash.
func TestTraceGolden(t *testing.T) {
	h := sha256.New()
	runs, delays := 0, 0
	goldenRuns(t, func(name string, res *Result) {
		runs++
		delays += len(res.Delays)
		var buf bytes.Buffer
		if err := res.Trace.Write(&buf); err != nil {
			t.Fatalf("%s: write trace: %v", name, err)
		}
		fmt.Fprintf(h, "%s steps=%d deadlocked=%v vdur=%d delays=%v\n",
			name, res.Steps, res.Deadlocked, res.VirtualDuration, res.Delays)
		h.Write(buf.Bytes())
	})
	if delays == 0 {
		t.Fatal("golden sweep applied no delays")
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenTraceHash {
		t.Fatalf("golden trace hash over %d runs = %s, want %s", runs, got, goldenTraceHash)
	}
}
