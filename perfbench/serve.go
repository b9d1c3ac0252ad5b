package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/prog"
	"sherlock/internal/server"
)

const (
	// warmKeys is how many (app, seed) jobs set-up computes and the
	// clients then repeat; their answers come from the result cache.
	warmKeys = 16
	// freshShare is the share of requests that carry a fresh seed, so the
	// daemon runs a cold campaign for them.
	freshShare = 0.2
)

// jobReq is one job submission.
type jobReq struct {
	App  string `json:"app"`
	Seed int64  `json:"seed"`
}

// jobView mirrors the fields of the daemon's job record the client reads.
type jobView struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// daemon is one in-process sherlockd on a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	pool   []*prog.Program // apps the jobs name
	warm   []jobReq
	warmK  map[jobReq]string // warm request -> content key
	warmQ  quality           // the warm results' scores
}

func startDaemon(dir string) (*daemon, error) {
	cfg := server.DefaultConfig()
	cfg.CorpusDir = dir
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	conns := runtime.NumCPU()
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
		warmK:  map[jobReq]string{},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the daemon down and waits for both.
func (d *daemon) stop() {
	d.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.served
	d.srv.Close()
	d.client.CloseIdleConnections()
}

// errRejected marks a 429 answer.
var errRejected = errors.New("HTTP 429")

// submit posts one job and returns the daemon's record.
func (d *daemon) submit(req jobReq) (jobView, error) {
	body, _ := json.Marshal(req)
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobView{}, err
	}
	return decodeJob(resp)
}

// wait long-polls the job's watch endpoint until the job is terminal.
func (d *daemon) wait(v jobView) (jobView, error) {
	for v.Status != "done" {
		if v.Status == "failed" || v.Status == "canceled" {
			return v, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
		}
		resp, err := d.client.Get(d.base + "/v1/jobs/" + v.ID + "/watch?timeout=60")
		if err != nil {
			return v, err
		}
		if v, err = decodeJob(resp); err != nil {
			return v, err
		}
	}
	return v, nil
}

func decodeJob(resp *http.Response) (jobView, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobView{}, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return jobView{}, errRejected
	}
	if resp.StatusCode >= 400 {
		return jobView{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return jobView{}, err
	}
	return v, nil
}

// result fetches and decodes the result stored at a content key and
// checks it is app's.
func (d *daemon) result(key, app string) (*core.Result, error) {
	resp, err := d.client.Get(d.base + "/v1/results/" + key)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: HTTP %d", key, resp.StatusCode)
	}
	// Only the fields scoring reads: decoding the per-key probability
	// maps would put most of a cold job's client cost in JSON.
	var env struct {
		Key    string `json:"key"`
		App    string `json:"app"`
		Result *struct {
			Inferred []core.InferredSync `json:"Inferred"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, err
	}
	if env.Key != key || env.App != app || env.Result == nil {
		return nil, fmt.Errorf("result %s: envelope names key %s, app %s; want app %s", key, env.Key, env.App, app)
	}
	return &core.Result{App: env.App, Inferred: env.Result.Inferred}, nil
}

// scrape reads the daemon's /metrics into name{labels} -> value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// setupDaemon starts a daemon, builds the generated apps its jobs name
// through the registry, computes the warm keys into its cache and checks
// each warm result against a local campaign.
func setupDaemon(ctx context.Context, r *run, rep int, genBuild *[]float64) (*daemon, error) {
	d, err := startDaemon(filepath.Join(r.workDir, fmt.Sprintf("serve-corpus-%d", rep)))
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			d.stop()
		}
	}()
	// Each repetition draws its own generated apps: the registry caches
	// programs for the process's lifetime, and set-up must pay the build.
	d.pool = append(d.pool, apps.All()...)
	t0 := time.Now()
	for _, sp := range genApps(r.seed*31 + int64(rep)) {
		p, err := apps.ByName(sp.Name())
		if err == nil {
			err = p.Finalize()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name(), err)
		}
		d.pool = append(d.pool, p)
	}
	*genBuild = append(*genBuild, ms(time.Since(t0)))

	rng := rand.New(rand.NewSource(r.seed))
	for i := 0; i < warmKeys; i++ {
		d.warm = append(d.warm, jobReq{App: d.pool[rng.Intn(len(d.pool))].Name, Seed: 1 + rng.Int63n(1<<30)})
	}
	for _, req := range d.warm {
		v, err := d.submit(req)
		if err == nil {
			v, err = d.wait(v)
		}
		if err != nil {
			return nil, fmt.Errorf("warm %s seed %d: %w", req.App, req.Seed, err)
		}
		d.warmK[req] = v.Key
		// A served result that cannot be fetched or differs from a local
		// campaign is a failed operation, not a broken set-up.
		r.attempted++
		got, err := d.result(v.Key, req.App)
		if err != nil {
			r.fail("warm %s seed %d: %v", req.App, req.Seed, err)
			continue
		}
		app, _ := apps.ByName(req.App)
		d.warmQ.add(app, got)
		cfg := core.DefaultConfig()
		cfg.Seed = req.Seed
		want, err := core.Infer(ctx, app, cfg)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(sortedSyncs(got.Inferred), sortedSyncs(want.Inferred)) {
			r.fail("warm %s seed %d: served result differs from a local campaign", req.App, req.Seed)
		}
	}
	ok = true
	return d, nil
}

// outcome is one completed or failed request.
type outcome struct {
	req            jobReq
	key            string
	accepted       bool // the daemon took the submission (200 or 202)
	cached, traced bool
	fresh          bool
	submit, total  time.Duration
	err            error
}

// drive runs one closed-loop client per CPU for the run's duration. In a
// traced run every other request of a client also times the submit and
// the wait separately. After a fresh job completes, its client fetches
// and scores the result outside the job's timing, as a user who waited
// for it would read it.
func (d *daemon) drive(r *run) ([]outcome, quality, time.Duration) {
	clients := runtime.NumCPU()
	out := make([][]outcome, clients)
	qs := make([]quality, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed*7_919 + int64(c)))
			for n := 0; time.Since(start) < r.duration; n++ {
				s := outcome{traced: r.traced && n%2 == 1}
				if rng.Float64() < freshShare {
					s.fresh = true
					// Seeds above 2^40 never collide with the warm draw; the
					// client index keeps clients' fresh seeds apart.
					s.req = jobReq{App: d.pool[rng.Intn(len(d.pool))].Name, Seed: 1<<40 + int64(n)*int64(clients) + int64(c)}
				} else {
					s.req = d.warm[rng.Intn(len(d.warm))]
				}
				t0 := time.Now()
				v, err := d.submit(s.req)
				if s.traced {
					s.submit = time.Since(t0)
				}
				if err == nil {
					s.accepted, s.cached = true, v.Cached
					v, err = d.wait(v)
				}
				s.total = time.Since(t0)
				s.key, s.err = v.Key, err
				if err == nil && s.fresh {
					res, err := d.result(v.Key, s.req.App)
					if err == nil {
						app, _ := apps.ByName(s.req.App)
						qs[c].add(app, res)
					}
					s.err = err
				}
				out[c] = append(out[c], s)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var (
		all []outcome
		q   = d.warmQ
	)
	for c, o := range out {
		all = append(all, o...)
		q.correct += qs[c].correct
		q.notSync += qs[c].notSync
		q.missedOther += qs[c].missedOther
	}
	return all, q, wall
}

func runServe(r *run) error {
	ctx := context.Background()
	var genBuild []float64
	var daemons []*daemon
	d, err := timeSetup(r, func() (*daemon, error) {
		d, err := setupDaemon(ctx, r, len(daemons), &genBuild)
		if err == nil {
			daemons = append(daemons, d)
		}
		return d, err
	})
	for _, old := range daemons {
		if old != d || err != nil {
			old.stop()
		}
	}
	if err != nil {
		return err
	}
	defer d.stop()

	rss := startTimed()
	before, err := d.scrape()
	if err != nil {
		return err
	}
	alloc0 := allocMB()
	jobs, q, wall := d.drive(r)
	alloc := allocMB() - alloc0
	rss.finish(r)
	after, err := d.scrape()
	if err != nil {
		return err
	}

	var (
		lat                      []float64
		accepted, rejected, done int
		hits                     int
		tracedN, plainN          int
		tracedSum, plainSum, sub time.Duration
	)
	for _, s := range jobs {
		r.attempted++
		switch {
		case s.accepted:
			accepted++
		case errors.Is(s.err, errRejected):
			rejected++
		}
		if s.err != nil {
			r.fail("job %s seed %d: %v", s.req.App, s.req.Seed, s.err)
			continue
		}
		done++
		lat = append(lat, ms(s.total))
		if s.cached {
			hits++
		}
		if !s.fresh && s.key != d.warmK[s.req] {
			r.fail("job %s seed %d: key %s, set-up computed %s", s.req.App, s.req.Seed, s.key, d.warmK[s.req])
		}
		if s.traced {
			tracedN++
			tracedSum += s.total
			sub += s.submit
		} else {
			plainN++
			plainSum += s.total
		}
	}

	// The daemon's counters must agree with what the clients saw. A 429
	// is counted as a cache miss before the queue refuses it.
	delta := func(name string) float64 { return after[name] - before[name] }
	lookups := delta("sherlock_cache_hits_total") + delta("sherlock_cache_misses_total")
	if int(lookups) != accepted+rejected {
		r.fail("daemon counted %v cache lookups, clients made %d accepted and %d rejected submissions", lookups, accepted, rejected)
	}
	if got := int(delta("sherlock_jobs_rejected_total")); got != rejected {
		r.fail("daemon counted %d rejections, clients saw %d", got, rejected)
	}

	if r.traced {
		computed := delta("sherlock_jobs_computed_total")
		r.set("gen.build_ms", median(genBuild), "ms")
		r.set("server.submit_ms", per(ms(sub), float64(tracedN)), "ms")
		r.set("server.wait_ms", per(ms(tracedSum-sub), float64(tracedN)), "ms")
		r.set("server.hit_ratio", per(float64(hits), float64(done)), "ratio")
		r.set("server.rejected", float64(rejected), "count")
		r.set("server.computed", computed, "count")
		r.set("server.run_wall_ms", 1000*per(delta("sherlock_run_wall_seconds_sum"), computed), "ms")
		r.set("server.solve_wall_ms", 1000*per(delta("sherlock_solve_wall_seconds_sum"), computed), "ms")
		r.set("trace.overhead_ms", per(ms(tracedSum), float64(tracedN))-per(ms(plainSum), float64(plainN)), "ms")
		return nil
	}

	r.set("throughput_per_s", float64(done)/wall.Seconds(), "1/s")
	r.set("latency_ms_p50", percentile(lat, 0.5), "ms")
	r.set("latency_ms_tail", percentile(lat, 0.99), "ms")
	r.set("alloc_mb_per_op", per(alloc, float64(len(jobs))), "MB")
	q.report(r)
	return nil
}
