// Command perfbench is the repository benchmark. It runs one seeded
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct":…, "attempted":…, "failed":…, "metrics":{name:{"value":…,"unit":…}}}
//
// Workloads (see layers.json for why each exists and which layer should
// move which metric):
//
//	campaign  default 3-round core.Infer campaigns over the paper apps
//	          plus a seeded draw of generated apps
//	corpus    ingest captured traces into a fresh on-disk store.Corpus,
//	          then offline and +1-trace incremental solves off it
//	serve     an in-process sherlockd on loopback TCP driven by nproc
//	          closed-loop clients
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// reports the per-layer metrics, timed from here around calls into each
// package's exported functions (the program itself is not instrumented).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects its outcome.
type run struct {
	seed     int64
	duration time.Duration
	traced   bool
	workDir  string // scratch space inside the checkout

	attempted int
	failed    int
	metrics   map[string]metric
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed operation and says why on standard error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median, so one slow repetition does not move it.
const setupReps = 3

var workloads = map[string]func(*run) error{
	"campaign": runCampaign,
	"corpus":   runCorpus,
	"serve":    runServe,
}

func main() {
	workload := flag.String("workload", "", "campaign, corpus or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics, 0 end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload campaign|corpus|serve --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root")
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		workDir:  work,
		metrics:  map[string]metric{},
	}
	err = fn(r)
	if rerr := os.RemoveAll(work); rerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", rerr)
	}
	// Commit the removal before exiting, so its file-system work does not
	// run into the next run's measurement.
	syscall.Sync()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.traced {
		fillLayerMetrics(r)
	} else {
		r.set("success_rate", float64(r.attempted-r.failed)/float64(max(r.attempted, 1)), "ratio")
	}
	out, err := json.Marshal(report{
		Correct:   r.attempted > 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// layerMetrics lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"sched.busy_ms", "ms"}, {"sched.runs", "count"}, {"sched.events", "count"},
	{"sched.us_per_event", "us"}, {"sched.deadlocks", "count"},
	{"window.extract_ms", "ms"}, {"window.conflicts", "count"}, {"window.windows_built", "count"},
	{"window.fold_ms", "ms"}, {"window.admit_ratio", "ratio"},
	{"perturb.refine_ms", "ms"}, {"perturb.delays", "count"}, {"perturb.trim_ratio", "ratio"},
	{"solver.solve_ms", "ms"}, {"solver.vars", "count"}, {"solver.constraints", "count"},
	{"lp.pivots", "count"}, {"lp.dual_pivots", "count"}, {"lp.components", "count"},
	{"lp.presolve_row_ratio", "ratio"}, {"lp.warm_ratio", "ratio"},
	{"store.encode_ms", "ms"}, {"store.ingest_ms", "ms"}, {"store.ingest_ms_q1", "ms"},
	{"store.ingest_ms_q4", "ms"}, {"store.decode_ms", "ms"}, {"store.bytes_per_event", "B"},
	{"core.offline_ms", "ms"}, {"core.fold_ms", "ms"}, {"core.other_ms", "ms"},
	{"server.submit_ms", "ms"}, {"server.wait_ms", "ms"}, {"server.hit_ratio", "ratio"},
	{"server.rejected", "count"}, {"server.computed", "count"}, {"server.run_wall_ms", "ms"},
	{"server.solve_wall_ms", "ms"},
	{"gen.build_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// fillLayerMetrics adds a zero for every per-layer metric the workload
// left unset and checks the workload set nothing unlisted.
func fillLayerMetrics(r *run) {
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
		}
	}
	for name := range r.metrics {
		if !known[name] {
			panic("perfbench: unlisted per-layer metric " + name)
		}
	}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0..1) of xs by the nearest-rank
// rule; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// per divides safely, returning 0 for an empty base.
func per(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// timeSetup runs set-up setupReps times, reports the median wall time as
// setup_s and returns the last repetition's state.
func timeSetup[T any](r *run, fn func() (T, error)) (T, error) {
	var (
		state T
		err   error
		walls []float64
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		state, err = fn()
		walls = append(walls, time.Since(t0).Seconds())
		if err != nil {
			return state, err
		}
	}
	if !r.traced {
		r.set("setup_s", median(walls), "s")
	}
	return state, nil
}

// allocMB returns the bytes allocated so far by the process, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// rssWindow is how often the peak-RSS sampler restarts the count.
const rssWindow = time.Second

// rssSampler records the process's peak resident set size per rssWindow
// during the timed part of a run.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

// startTimed is called between set-up and the timed part: it collects
// set-up's garbage and starts sampling peak RSS.
func startTimed() *rssSampler {
	runtime.GC()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.peaks = append(s.peaks, peakRSSMB())
				resetPeakRSS()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and reports max_rss_mb: the median over the
// run's windows of each window's peak RSS. One collection that happens to
// start at a high-water moment moves a single window, not the figure.
func (s *rssSampler) finish(r *run) {
	close(s.stop)
	<-s.done
	if r.traced {
		return // an end-to-end metric
	}
	if len(s.peaks) == 0 {
		s.peaks = append(s.peaks, peakRSSMB())
	}
	r.set("max_rss_mb", median(s.peaks), "MB")
}

// resetPeakRSS restarts the kernel's peak RSS (VmHWM) count.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// peakRSSMB returns the process's peak resident set size in MB since the
// last reset.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
