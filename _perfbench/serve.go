package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"lattecc/internal/cluster"
	"lattecc/internal/harness"
	"lattecc/internal/resultstore"
	"lattecc/internal/server"
	"lattecc/internal/sim"
)

// serveKey is one run of the serve-warm universe: a machine variant and
// a (workload, policy) pair.
type serveKey struct {
	variant int
	runKey
}

// serveJob is one submission of a round. kind is "warm" (served by a
// store load), "fresh" (simulated, then saved) or "repeat" (served by the
// resident suite).
type serveJob struct {
	key  serveKey
	kind string
}

// The serve-warm universe: machine variants (L1 size x MSHRs on the tiny
// machine) x short workloads x the two policies of a speed-up pair.
var (
	serveL1Sizes   = []int{16 * 1024, 32 * 1024}
	serveMSHRs     = []int{32, 16}
	serveWorkloads = []string{"BO", "HOT", "KM", "MM", "SS", "TSS"}
	servePolicies  = []harness.Policy{harness.Uncompressed, harness.LatteCC}
)

// Per round: freshPerRound keys are left out of the stores, and
// repeatsPerRound extra submissions repeat a key already submitted.
const (
	freshPerRound   = 12
	repeatsPerRound = 12
)

// serveWarm is the serve-warm workload: a router and two workers
// in-process on loopback, one job worker each, each with its own result
// store. Every round submits each key of the universe once under a new
// max_cycles salt, so every round has its own fingerprints and resident
// suites; the stores are primed with the round's warm keys during
// set-up.
type serveWarm struct {
	base     sim.Config
	universe []serveKey
	expected map[serveKey]sim.Result // computed in set-up, in-process
	plans    [][]serveJob            // one per round
	cl       *clusterProc
}

// overrides returns the config overrides of a machine variant under a
// salt. The salt moves MaxCycles, a deadlock guard no tiny run reaches,
// so it changes the fingerprint and not the result.
func (s *serveWarm) overrides(variant, salt int) *server.ConfigOverrides {
	l1 := serveL1Sizes[variant%len(serveL1Sizes)]
	mshrs := serveMSHRs[variant/len(serveL1Sizes)]
	maxCycles := s.base.MaxCycles + uint64(salt)
	return &server.ConfigOverrides{L1SizeBytes: &l1, MSHRs: &mshrs, MaxCycles: &maxCycles}
}

func (s *serveWarm) storeKey(k serveKey, salt int) (harness.StoreKey, error) {
	cfg, err := s.overrides(k.variant, salt).Apply(s.base)
	if err != nil {
		return harness.StoreKey{}, err
	}
	return harness.StoreKey{Fingerprint: cfg.Fingerprint(), Workload: k.workload, Policy: k.policy}, nil
}

func setupServe(opts options) (instance, error) {
	if err := loadCorpus(opts.root); err != nil {
		return nil, err
	}
	s := &serveWarm{base: tinyConfig(), expected: map[serveKey]sim.Result{}}
	variants := len(serveL1Sizes) * len(serveMSHRs)
	workloads := serveWorkloads
	if opts.small {
		variants, workloads = 2, workloads[:3]
	}
	for v := 0; v < variants; v++ {
		for _, w := range workloads {
			for _, p := range servePolicies {
				s.universe = append(s.universe, serveKey{v, runKey{w, p}})
			}
		}
	}

	// The hash every job must return, computed in-process.
	for v := 0; v < variants; v++ {
		cfg, err := s.overrides(v, 0).Apply(s.base)
		if err != nil {
			return nil, err
		}
		suite := harness.NewSuite(cfg)
		suite.Jobs = poolWorkers()
		for _, k := range s.universe {
			if k.variant == v {
				suite.Prefetch(harness.RunRequest{Workload: k.workload, Policy: k.policy})
			}
		}
		if err := suite.RunAll(); err != nil {
			return nil, err
		}
		for _, k := range s.universe {
			if k.variant == v {
				res, err := suite.Run(k.workload, k.policy, harness.Variant{})
				if err != nil {
					return nil, err
				}
				s.expected[k] = res
			}
		}
	}

	// Round r runs under salt r+1; salt 0 is the warm-up's.
	for r := 0; r < opts.rounds; r++ {
		s.plans = append(s.plans, s.plan(rand.New(rand.NewSource(opts.seed*1000+int64(r)))))
	}
	warmup := []serveJob{{s.universe[0], "warm"}, {s.universe[1], "warm"}, {s.universe[0], "repeat"}, {s.universe[1], "repeat"}}

	// Prime each worker's store with the warm keys of every round that
	// the router will place on it, then start fresh workers over them.
	cl, err := newCluster(s.base, 2)
	if err != nil {
		return nil, err
	}
	s.cl = cl
	stores, err := openStores(opts.tmp, "serve-store", len(cl.workerURLs))
	if err != nil {
		s.close()
		return nil, err
	}
	for salt, plan := range append([][]serveJob{warmup}, s.plans...) {
		for _, j := range plan {
			if j.kind != "warm" {
				continue
			}
			sk, err := s.storeKey(j.key, salt)
			if err != nil {
				s.close()
				return nil, err
			}
			stores[cl.owner(sk.Fingerprint)].Save(sk, s.expected[j.key])
		}
	}
	if err := cl.start(s.base, stores); err != nil {
		s.close()
		return nil, err
	}
	if out := s.runPlan(warmup, 0, nil, -1); out.failed > 0 {
		s.close()
		return nil, fmt.Errorf("%d warm-up jobs failed", out.failed)
	}
	return s, nil
}

// plan lays out one round: every key of the universe once, freshPerRound
// of them fresh, in seeded order, with repeatsPerRound repeats each
// inserted after the key's first submission.
func (s *serveWarm) plan(rng *rand.Rand) []serveJob {
	n := len(s.universe)
	fresh := map[int]bool{}
	for _, i := range rng.Perm(n)[:min(freshPerRound, n/4)] {
		fresh[i] = true
	}
	var jobs []serveJob
	for _, i := range rng.Perm(n) {
		kind := "warm"
		if fresh[i] {
			kind = "fresh"
		}
		jobs = append(jobs, serveJob{s.universe[i], kind})
	}
	for i := 0; i < min(repeatsPerRound, n/4); i++ {
		src := rng.Intn(len(jobs))
		at := src + 1 + rng.Intn(len(jobs)-src)
		rep := serveJob{jobs[src].key, "repeat"}
		jobs = append(jobs[:at], append([]serveJob{rep}, jobs[at:]...)...)
	}
	return jobs
}

func (s *serveWarm) round(r int, tr *tracer) (roundResult, error) {
	root := tr.begin("serve.round", -1)
	defer tr.end(root)
	out := s.runPlan(s.plans[r], r+1, tr, root)
	for _, k := range s.universe {
		if k.policy == harness.Uncompressed {
			latte := serveKey{k.variant, runKey{k.workload, harness.LatteCC}}
			out.pairs = append(out.pairs, [2]sim.Result{s.expected[k], s.expected[latte]})
		}
	}
	if tr != nil {
		for _, url := range s.cl.workerURLs {
			if err := countServerMetrics(s.cl.client, url, tr); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// runPlan submits the jobs through the router with poolWorkers
// closed-loop clients, each waiting for its job's terminal SSE event
// before submitting the next, and checks every StateHash.
func (s *serveWarm) runPlan(jobs []serveJob, salt int, tr *tracer, parent int) roundResult {
	var out roundResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	for c := 0; c < poolWorkers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				want := s.expected[j.key]
				body, err := json.Marshal(server.SubmitRequest{
					Workload: j.key.workload, Policy: string(j.key.policy),
					Config: s.overrides(j.key.variant, salt),
				})
				var lat time.Duration
				var early int
				if err == nil {
					id := tr.begin("serve.job", parent)
					lat, early, err = submitAndWait(s.cl.client, s.cl.routerURL, body, want.StateHash(), tr, id, "serve.submit")
					tr.end(id)
				}
				tr.count("server.sse_early_close", float64(early))
				mu.Lock()
				out.attempted++
				out.earlyClose += early
				if err != nil {
					fmt.Printf("FAIL %s (%s, salt %d): %v\n", j.key.runKey, j.kind, salt, err)
					out.failed++
				} else {
					out.jobs = append(out.jobs, lat)
					if j.kind == "fresh" {
						out.freshInsts += want.Instructions
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

func (s *serveWarm) probe() probeInput {
	var results []keyedResult
	for _, k := range s.universe {
		if k.variant == 0 {
			results = append(results, keyedResult{k.runKey, s.expected[k]})
		}
	}
	return probeInput{
		cfg:     s.base,
		keys:    []runKey{{"SS", harness.Uncompressed}, {"SS", harness.LatteCC}},
		streams: []string{"SS", "KM"},
		results: results,
	}
}

func (s *serveWarm) close() {
	if s.cl != nil {
		s.cl.stop()
		s.cl = nil
	}
}

// openStores opens n empty result stores under dir, named prefix-0 and on.
func openStores(dir, prefix string, n int) ([]*resultstore.Store, error) {
	var stores []*resultstore.Store
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d", prefix, i))
		if err := os.RemoveAll(path); err != nil {
			return nil, err
		}
		st, err := resultstore.Open(path, resultstore.Options{})
		if err != nil {
			return nil, err
		}
		stores = append(stores, st)
	}
	return stores, nil
}

// clusterProc is a router and its workers serving on loopback inside
// this process.
type clusterProc struct {
	router     *cluster.Router
	routerURL  string
	workers    []*server.Server
	workerURLs []string
	listeners  []net.Listener // the workers' and then the router's, until start serves them
	https      []*http.Server
	serving    sync.WaitGroup // one per http.Server, done when Serve returns
	client     *http.Client
}

// newCluster binds a loopback listener for each of n workers and for a
// fingerprint-affinity router, and registers the workers with the
// router. Nothing serves until start, so the caller can first prime each
// worker's store with the keys the router will place on it.
func newCluster(base sim.Config, n int) (*clusterProc, error) {
	cl := &clusterProc{client: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16},
	}}
	for i := 0; i <= n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.listeners = append(cl.listeners, ln)
	}
	for _, ln := range cl.listeners[:n] {
		cl.workerURLs = append(cl.workerURLs, "http://"+ln.Addr().String())
	}
	cl.routerURL = "http://" + cl.listeners[n].Addr().String()
	rt, err := cluster.New(cluster.Config{BaseConfig: base, MaxInFlight: 4096})
	if err != nil {
		cl.stop()
		return nil, err
	}
	cl.router = rt
	for _, url := range cl.workerURLs {
		rt.Registry().Register(url)
	}
	return cl, nil
}

// owner returns the index of the worker the router places fingerprint fp on.
func (cl *clusterProc) owner(fp uint64) int {
	url, _ := cl.router.Registry().PickAffinity(fp, "")
	for i, u := range cl.workerURLs {
		if u == url {
			return i
		}
	}
	return 0
}

// start serves one worker per store (one job worker each) and the
// router. The listeners are already bound, so one /readyz request per
// process confirms readiness without a polling loop.
func (cl *clusterProc) start(base sim.Config, stores []*resultstore.Store) error {
	var handlers []http.Handler
	for _, st := range stores {
		srv := server.New(server.Config{BaseConfig: base, Workers: 1, RunJobs: 1, Store: st})
		cl.workers = append(cl.workers, srv)
		handlers = append(handlers, srv.Handler())
	}
	handlers = append(handlers, cl.router.Handler())
	for i, h := range handlers {
		hs := &http.Server{Handler: h}
		ln := cl.listeners[i]
		cl.https = append(cl.https, hs)
		cl.serving.Add(1)
		go func() {
			defer cl.serving.Done()
			_ = hs.Serve(ln) // returns ErrServerClosed once stop shuts it down
		}()
	}
	cl.listeners = nil
	for _, url := range append([]string{cl.routerURL}, cl.workerURLs...) {
		if err := getOK(cl.client, url+"/readyz"); err != nil {
			return err
		}
	}
	return nil
}

// stop drains the router, then the workers, then closes every listener,
// and returns once all of them have stopped.
func (cl *clusterProc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if cl.router != nil {
		_ = cl.router.Shutdown(ctx) // a drain that times out still closes below
	}
	for _, w := range cl.workers {
		_ = w.Shutdown(ctx)
	}
	for _, hs := range cl.https {
		_ = hs.Shutdown(ctx)
	}
	cl.serving.Wait()
	for _, ln := range cl.listeners {
		ln.Close()
	}
	cl.client.CloseIdleConnections()
}

func getOK(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// maxAttaches bounds how often submitAndWait opens a job's event stream.
const maxAttaches = 10

// submitAndWait posts one single-run job to base (a worker or the
// router), then follows the job's SSE stream until the daemon closes it.
// It returns the time from submit to the stream's end and how many of
// the job's streams closed without a terminal event, and fails on any
// non-2xx response, a failed job, or a StateHash other than want. The
// submit itself is traced as submitSpan.
//
// A stream can close without its terminal event: the daemon marks a job
// terminal before it appends the done or failed event, and a stream that
// wakes in between sends what it has and closes. The daemon closes a
// stream only for a terminal job and emits a run's event only once the
// run succeeded, so a closed stream that carried the run event belongs
// to a done job. One that did not is opened again; each open replays the
// job's whole event log.
func submitAndWait(c *http.Client, base string, body []byte, want uint64, tr *tracer, parent int, submitSpan string) (time.Duration, int, error) {
	start := time.Now()
	id := tr.begin(submitSpan, parent)
	resp, err := c.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	var ack struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.end(id)
	if resp.StatusCode != http.StatusAccepted {
		return 0, 0, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("submit: %w", err)
	}
	early := 0
	for attach := 0; attach < maxAttaches; attach++ {
		hashes, terminal, err := followEvents(c, base+"/v1/runs/"+ack.ID+"/events")
		if err != nil {
			return 0, early, err
		}
		if !terminal {
			early++
			if len(hashes) == 0 {
				continue
			}
		}
		if wantHex := fmt.Sprintf("0x%016x", want); len(hashes) != 1 || hashes[0] != wantHex {
			return 0, early, fmt.Errorf("StateHash %v, want %s", hashes, wantHex)
		}
		return time.Since(start), early, nil
	}
	return 0, early, fmt.Errorf("event stream closed %d times with no event for the run", maxAttaches)
}

// followEvents reads one job event stream to its end and returns the
// StateHash of every run event and whether the done event arrived.
func followEvents(c *http.Client, url string) (hashes []string, done bool, err error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		data, isData := strings.CutPrefix(line, "data: ")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case isData && event == "run":
			var rr server.RunResult
			if err := json.Unmarshal([]byte(data), &rr); err != nil {
				return nil, false, fmt.Errorf("run event: %w", err)
			}
			hashes = append(hashes, rr.StateHash)
		case isData && event == "failed":
			return nil, false, fmt.Errorf("job failed: %s", data)
		case isData && event == "done":
			done = true
		}
	}
	return hashes, done, sc.Err()
}

// countServerMetrics adds a worker's suite and store counters, scraped
// from its /metrics, to the tracer's counters.
func countServerMetrics(c *http.Client, url string, tr *tracer) error {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	names := map[string]string{
		"latteccd_suites":                      "server.resident_suites",
		"latteccd_simulations_fresh_total":     "server.fresh",
		"latteccd_simulation_cache_hits_total": "server.cache_hits",
		"latteccd_simulation_store_hits_total": "server.store_hits",
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		if name, ok := names[fields[0]]; ok {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return fmt.Errorf("%s/metrics: %s: %w", url, fields[0], err)
			}
			tr.count(name, v)
		}
	}
	return sc.Err()
}
