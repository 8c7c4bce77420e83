// Package server implements latteccd, LATTE-CC's simulation-as-a-service
// daemon. A long-lived process owns one harness.Suite per distinct
// machine configuration and serves simulation jobs over HTTP/JSON, so
// the (workload, policy, variant) result cache stays hot across
// requests instead of being rebuilt by every CLI invocation.
//
// Surface:
//
//	POST /v1/runs              submit one run or a batch; returns a job ID
//	GET  /v1/runs/{id}         job status + results (cycles, IPC, StateHash)
//	GET  /v1/runs/{id}/events  SSE progress stream (one run frame per request)
//	GET  /v1/results/{key}     raw result-store entry (cache-peer protocol)
//	GET  /v1/load              queue/running/draining report the router probes
//	GET  /metrics              Prometheus text format
//	GET  /healthz, /readyz     liveness / readiness (503 while draining)
//
// The admission gate, job table, SSE framing, submission parsing and
// serve loop are the service core in service.go, shared with the
// cluster router.
//
// Determinism is the contract: a job served by the daemon returns the
// same StateHash as a direct Suite.MustRun for the same (workload,
// policy, variant, config). The daemon only ever layers scheduling
// around the harness's single-flight cache — it never touches what is
// computed. Each job runs exactly its own request list, once per
// request, through Suite.RunBatch under the job's deadline; a job that
// times out leaves nothing behind for later jobs.
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lattecc/internal/fault"
	"lattecc/internal/harness"
	"lattecc/internal/resultstore"
	"lattecc/internal/sim"
)

// Config parameterises a Server.
type Config struct {
	// BaseConfig is the machine every job starts from, before request
	// overrides. Typically sim.DefaultConfig().
	BaseConfig sim.Config
	// Workers is how many jobs execute concurrently (default 2).
	Workers int
	// RunJobs bounds each job's simulation pool width: the width of
	// its Suite.RunBatch (<= 0 means GOMAXPROCS).
	RunJobs int
	// QueueDepth bounds the admission queue; a full queue answers 429
	// with Retry-After (default 64).
	QueueDepth int
	// DefaultDeadline applies to jobs that do not carry their own
	// deadline_ms (default 5 minutes).
	DefaultDeadline time.Duration

	// Store, when non-nil, is the persistent result tier attached to
	// every resident suite: consulted on cache miss, written on every
	// fresh simulate-complete, served to cluster peers via
	// GET /v1/results/{key}, and surfaced on /metrics.
	Store *resultstore.Store
	// Peers, when non-nil (and Store is set), lists the base URLs of
	// cluster peers whose stores are consulted on a local store miss —
	// the cache-peer protocol. Typically RouterPeers(join, advertise).
	Peers func() []string

	// startHook, when set (tests only), runs at the top of every job
	// execution — the seam that lets tests hold a worker in place.
	startHook func(*Job)
}

// Server is the daemon: admission queue, worker pool, resident suites,
// and the HTTP surface. Create with New, serve Handler(), stop with
// Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics
	// store is the disk+peer tier installed on every resident suite;
	// nil when the daemon runs memory-only (no -store flag).
	store *tieredStore
	gate  *Gate
	jobs  *Table[*Job]

	mu        sync.Mutex
	suites    map[uint64]*harness.Suite
	workloads map[string]bool
	policies  map[harness.Policy]bool

	queue   chan queued
	running atomic.Int64
	wg      sync.WaitGroup
}

// queued is an admitted job on its way to a worker, with the machine its
// suite is keyed on. The suite is resolved only when a worker starts the
// job, so a refused submission leaves none, and the job kept in the
// table holds no config copy.
type queued struct {
	job *Job
	cfg sim.Config
}

// New builds a Server and starts its workers. The returned server is
// ready to serve; wire Handler() into an http.Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.RunJobs <= 0 {
		cfg.RunJobs = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 5 * time.Minute
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		metrics:   newMetrics(),
		gate:      NewGate("server"),
		jobs:      NewTable[*Job]("job"),
		suites:    map[uint64]*harness.Suite{},
		workloads: map[string]bool{},
		policies:  map[harness.Policy]bool{},
		queue:     make(chan queued, cfg.QueueDepth),
	}
	for _, w := range harness.Workloads() {
		s.workloads[w] = true
	}
	for _, p := range harness.Policies() {
		s.policies[p] = true
	}
	if cfg.Store != nil {
		s.store = newTieredStore(cfg.Store, cfg.Peers)
	}

	s.mux.HandleFunc("POST /v1/runs", s.gate.Admit(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/load", s.handleLoad)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.gate.HandleProbes(s.mux)

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown gracefully drains the daemon: new submissions are rejected
// with 503 immediately, jobs already queued or running complete, and
// Shutdown returns once every worker has exited — or ctx's deadline
// fires first, in which case the drain is reported incomplete. Safe to
// call more than once.
func (s *Server) Shutdown(ctx context.Context) error { return s.gate.Drain(ctx, &s.wg) }

// worker executes jobs until shutdown, then drains whatever is still
// queued and exits.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case q := <-s.queue:
			s.execute(q.job, q.cfg)
		case <-s.gate.Done():
			for {
				select {
				case q := <-s.queue:
					s.execute(q.job, q.cfg)
				default:
					return
				}
			}
		}
	}
}

// execute runs one job on cfg's resident suite: exactly its own request
// list, each once, through the harness pool under the job's deadline.
func (s *Server) execute(j *Job, cfg sim.Config) {
	s.running.Add(1)
	defer s.running.Add(-1)
	if h := s.cfg.startHook; h != nil {
		h(j)
	}
	j.setRunning()
	suite := s.suiteFor(cfg)

	ctx, cancel := context.WithTimeout(context.Background(), j.deadline)
	defer cancel()
	if fault.Hit("server.cancel-run") {
		cancel() // injected fault: the deadline fires before any run starts
	}

	results := make([]RunResult, len(j.reqs))
	errs := make([]error, len(j.reqs))
	start := time.Now()
	suite.RunBatch(ctx, s.cfg.RunJobs, j.reqs, func(i int, res sim.Result, cached bool, err error) {
		if err != nil {
			errs[i] = err
			return
		}
		wait := time.Since(start)
		if !cached {
			s.metrics.observeRun(j.reqs[i].Workload, wait)
		}
		rr := makeRunResult(j.reqs[i], res)
		rr.Cached = cached
		rr.DurationMS = float64(wait) / float64(time.Millisecond)
		results[i] = rr
		j.appendEvent(Event{Type: "run", Data: rr})
	})

	if err := ctx.Err(); err != nil {
		s.metrics.jobsFailed.Add(1)
		j.fail(fmt.Sprintf("deadline exceeded: %v", err))
		return
	}
	for i, err := range errs {
		if err != nil {
			r := j.reqs[i]
			s.metrics.jobsFailed.Add(1)
			j.fail(fmt.Sprintf("%s/%s: %v", r.Workload, r.Policy, err))
			return
		}
	}
	s.metrics.jobsCompleted.Add(1)
	j.complete(results)
}

// makeRunResult renders a sim.Result for the wire.
func makeRunResult(r harness.RunRequest, res sim.Result) RunResult {
	return RunResult{
		Workload:     r.Workload,
		Policy:       string(r.Policy),
		Variant:      variantSpec(r.Variant),
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		IPC:          res.IPC(),
		HitRate:      res.Cache.HitRate(),
		StateHash:    fmt.Sprintf("0x%016x", res.StateHash()),
	}
}

func variantSpec(v harness.Variant) VariantSpec {
	return VariantSpec{
		CapacityOnly:    v.CapacityOnly,
		LatencyOnly:     v.LatencyOnly,
		ExtraHitLatency: v.ExtraHitLatency,
		SampleSeries:    v.SampleSeries,
	}
}

// suiteFor returns the resident suite for cfg, creating it on first
// use.
func (s *Server) suiteFor(cfg sim.Config) *harness.Suite {
	fp := cfg.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.suites[fp]; ok {
		return st
	}
	st := harness.NewSuite(cfg)
	if s.store != nil {
		// Guarded assignment: a nil *tieredStore inside a non-nil
		// harness.Store interface would defeat the suite's nil check.
		st.Store = s.store
	}
	s.suites[fp] = st
	return st
}

// --- HTTP handlers ----------------------------------------------------

// handleSubmit admits one job; Server.gate.Admit holds the fence
// around it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	_, req, err := ReadSubmit(w, r)
	if err != nil {
		s.reject(w, err.Error())
		return
	}
	reqs := make([]harness.RunRequest, 0, len(req.Runs))
	for _, spec := range req.Runs {
		if !s.workloads[spec.Workload] {
			s.reject(w, fmt.Sprintf("unknown workload %q", spec.Workload))
			return
		}
		if !s.policies[harness.Policy(spec.Policy)] {
			s.reject(w, fmt.Sprintf("unknown policy %q", spec.Policy))
			return
		}
		reqs = append(reqs, harness.RunRequest{
			Workload: spec.Workload,
			Policy:   harness.Policy(spec.Policy),
			Variant:  spec.Variant.toVariant(),
		})
	}

	cfg, err := req.Machine(s.cfg.BaseConfig)
	if err != nil {
		s.reject(w, err.Error())
		return
	}

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}

	job := newJob(s.jobs.Mint(), reqs, cfg.Fingerprint(), deadline)
	accepted := false
	if !fault.Hit("server.queue-overflow") { // injected fault: behave as if the queue were full
		select {
		case s.queue <- queued{job, cfg}:
			accepted = true
		default:
		}
	}
	if !accepted {
		s.metrics.rejectedFull.Add(1)
		w.Header().Set("Retry-After", "1")
		WriteJSONError(w, http.StatusTooManyRequests, "job queue full")
		return
	}
	// Filed only once queued: no one can ask for the ID before the 202.
	s.jobs.Put(job.id, job)

	s.metrics.jobsAccepted.Add(1)
	w.WriteHeader(http.StatusAccepted)
	WriteJSON(w, SubmitResponse{ID: job.id, Status: string(stateQueued), Runs: len(reqs), Fingerprint: job.fpx})
}

// reject answers a malformed submission with 400.
func (s *Server) reject(w http.ResponseWriter, msg string) {
	s.metrics.rejectedInvalid.Add(1)
	WriteJSONError(w, http.StatusBadRequest, msg)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobs.Lookup(w, r); ok {
		WriteJSON(w, j.status())
	}
}

// handleEvents streams a job's event log as Server-Sent Events: the
// full history replays first (so late subscribers of a finished job
// still see everything), then live events until the job reaches a
// terminal state or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Lookup(w, r)
	if !ok {
		return
	}
	fl, ok := StartSSE(w)
	if !ok {
		return
	}
	sent := 0
	for {
		events, state, changed := j.snapshot()
		for ; sent < len(events); sent++ {
			WriteEvent(w, events[sent].Type, events[sent].Data)
		}
		fl.Flush()
		if state == stateDone || state == stateFailed {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleLoad answers the cluster router's health/load probe: how much
// work this worker holds and whether it is draining. Cheap by design —
// the router polls it once per health interval per worker.
func (s *Server) handleLoad(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, LoadStatus{
		Queued:        int64(len(s.queue)),
		Running:       s.running.Load(),
		QueueCapacity: int64(cap(s.queue)),
		Draining:      s.gate.Draining(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := metricsSnapshot{
		queueDepth: len(s.queue),
		gate:       s.gate,
	}
	s.mu.Lock()
	snap.suites = len(s.suites)
	for _, st := range s.suites {
		snap.fresh += st.Simulations()
		snap.cacheHits += st.CacheHits()
		snap.storeHits += st.StoreHits()
	}
	s.mu.Unlock()
	if s.store != nil {
		snap.hasStore = true
		snap.store = s.store.disk.Counters()
		snap.peerHits = s.store.peerHits.Load()
		snap.peerMisses = s.store.peerMisses.Load()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, snap)
}
