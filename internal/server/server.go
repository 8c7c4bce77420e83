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
//	GET  /metrics              Prometheus text format
//	GET  /healthz, /readyz     liveness / readiness (503 while draining)
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
	"encoding/json"
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

	mu        sync.Mutex
	suites    map[uint64]*harness.Suite
	jobs      map[string]*Job
	workloads map[string]bool
	policies  map[harness.Policy]bool

	queue    chan *Job
	drainCh  chan struct{}
	running  atomic.Int64
	draining atomic.Bool
	admit    sync.RWMutex // write-held by Shutdown to fence admission
	nextID   atomic.Uint64
	wg       sync.WaitGroup
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
		suites:    map[uint64]*harness.Suite{},
		jobs:      map[string]*Job{},
		workloads: map[string]bool{},
		policies:  map[harness.Policy]bool{},
		queue:     make(chan *Job, cfg.QueueDepth),
		drainCh:   make(chan struct{}),
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

	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/load", s.handleLoad)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})

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
func (s *Server) Shutdown(ctx context.Context) error {
	s.admit.Lock()
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	s.admit.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain incomplete: %w", ctx.Err())
	}
}

// worker executes jobs until shutdown, then drains whatever is still
// queued and exits.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.execute(j)
		case <-s.drainCh:
			for {
				select {
				case j := <-s.queue:
					s.execute(j)
				default:
					return
				}
			}
		}
	}
}

// execute runs one job: exactly its own request list, each once, through
// the harness pool under the job's deadline.
func (s *Server) execute(j *Job) {
	s.running.Add(1)
	defer s.running.Add(-1)
	if h := s.cfg.startHook; h != nil {
		h(j)
	}
	j.setRunning()

	ctx, cancel := context.WithTimeout(context.Background(), j.deadline)
	defer cancel()
	if fault.Hit("server.cancel-run") {
		cancel() // injected fault: the deadline fires before any run starts
	}

	results := make([]RunResult, len(j.reqs))
	errs := make([]error, len(j.reqs))
	start := time.Now()
	j.suite.RunBatch(ctx, s.cfg.RunJobs, j.reqs, func(i int, res sim.Result, cached bool, err error) {
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
func (s *Server) suiteFor(cfg sim.Config) (*harness.Suite, uint64) {
	fp := cfg.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.suites[fp]; ok {
		return st, fp
	}
	st := harness.NewSuite(cfg)
	if s.store != nil {
		// Guarded assignment: a nil *tieredStore inside a non-nil
		// harness.Store interface would defeat the suite's nil check.
		st.Store = s.store
	}
	s.suites[fp] = st
	return st, fp
}

// --- HTTP handlers ----------------------------------------------------

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission holds the read half of the shutdown fence: after
	// Shutdown flips draining (under the write lock), no job can slip
	// into the queue behind the workers' final drain pass.
	s.admit.RLock()
	defer s.admit.RUnlock()
	if s.draining.Load() {
		s.metrics.rejectedDraining.Add(1)
		WriteJSONError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.rejectedInvalid.Add(1)
		WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}

	specs := req.Runs
	if req.Workload != "" || req.Policy != "" {
		if len(specs) > 0 {
			s.metrics.rejectedInvalid.Add(1)
			WriteJSONError(w, http.StatusBadRequest, "give either an inline workload/policy or a runs batch, not both")
			return
		}
		specs = []RunSpec{{Workload: req.Workload, Policy: req.Policy, Variant: req.Variant}}
	}
	if len(specs) == 0 {
		s.metrics.rejectedInvalid.Add(1)
		WriteJSONError(w, http.StatusBadRequest, "no runs submitted")
		return
	}

	reqs := make([]harness.RunRequest, 0, len(specs))
	for _, spec := range specs {
		if !s.workloads[spec.Workload] {
			s.metrics.rejectedInvalid.Add(1)
			WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("unknown workload %q", spec.Workload))
			return
		}
		if !s.policies[harness.Policy(spec.Policy)] {
			s.metrics.rejectedInvalid.Add(1)
			WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("unknown policy %q", spec.Policy))
			return
		}
		reqs = append(reqs, harness.RunRequest{
			Workload: spec.Workload,
			Policy:   harness.Policy(spec.Policy),
			Variant:  spec.Variant.toVariant(),
		})
	}

	cfg, err := req.Config.Apply(s.cfg.BaseConfig)
	if err != nil {
		s.metrics.rejectedInvalid.Add(1)
		WriteJSONError(w, http.StatusBadRequest, err.Error())
		return
	}

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}

	suite, fp := s.suiteFor(cfg)
	id := fmt.Sprintf("job-%06d", s.nextID.Add(1))
	job := newJob(id, reqs, suite, fp, deadline)

	s.mu.Lock()
	s.jobs[id] = job
	s.mu.Unlock()

	accepted := false
	if !fault.Hit("server.queue-overflow") { // injected fault: behave as if the queue were full
		select {
		case s.queue <- job:
			accepted = true
		default:
		}
	}
	if !accepted {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		s.metrics.rejectedFull.Add(1)
		w.Header().Set("Retry-After", "1")
		WriteJSONError(w, http.StatusTooManyRequests, "job queue full")
		return
	}

	s.metrics.jobsAccepted.Add(1)
	w.WriteHeader(http.StatusAccepted)
	WriteJSON(w, SubmitResponse{ID: id, Status: string(stateQueued), Runs: len(reqs), Fingerprint: fpHex(fp)})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		WriteJSONError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, j.status())
}

// handleEvents streams a job's event log as Server-Sent Events: the
// full history replays first (so late subscribers of a finished job
// still see everything), then live events until the job reaches a
// terminal state or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		WriteJSONError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteJSONError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	sent := 0
	for {
		events, state, changed := j.snapshot()
		for ; sent < len(events); sent++ {
			data, err := json.Marshal(events[sent].Data)
			if err != nil {
				data = []byte(fmt.Sprintf("%q", err.Error()))
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", events[sent].Type, data)
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
		Draining:      s.draining.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := metricsSnapshot{
		queueDepth: len(s.queue),
		draining:   s.draining.Load(),
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

func (s *Server) jobByID(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// WriteJSON writes v as indented JSON, defaulting the Content-Type to
// application/json. Shared by the daemon and the cluster router.
func WriteJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteJSONError answers code with a {"error": msg} JSON body.
func WriteJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
