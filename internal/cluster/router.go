package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"lattecc/internal/server"
	"lattecc/internal/sim"
)

// Config parameterises a Router.
type Config struct {
	// BaseConfig is the machine the fingerprint of a submission is
	// computed against (the same base the workers were started with —
	// typically sim.DefaultConfig, or the tiny machine in CI). A router
	// whose base differs from its workers' still routes correctly, just
	// with affinity keys that differ from the workers' own fingerprints.
	BaseConfig sim.Config
	// Policy names the routing policy: fingerprint (default) or
	// least-loaded.
	Policy string
	// MaxInFlight bounds cluster-wide admission: at most this many
	// non-terminal jobs at once; overflow answers 429 with Retry-After
	// (default 256).
	MaxInFlight int
	// RetryLimit is how many times one job may be re-placed on another
	// worker after losing its current one (default 3). Retries are safe
	// because any replica returns bit-identical results.
	RetryLimit int
	// HealthInterval is the worker probe cadence (default 1s);
	// ProbeTimeout bounds each probe round-trip (default 2s).
	HealthInterval time.Duration
	ProbeTimeout   time.Duration
	// DeadAfter is how many consecutive probe failures evict a worker
	// from the ring (default 3).
	DeadAfter int
	// PollInterval is the per-job status watch cadence (default 150ms).
	PollInterval time.Duration
	// RingReplicas is the virtual-node count per worker (<= 0 default).
	RingReplicas int
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// JobView is a cluster job as rendered to clients. The first five
// fields mirror server.JobStatus field for field, so a client written
// against a single worker (cmd/latteclient) works unchanged against the
// router.
type JobView struct {
	ID      string             `json:"id"`
	Status  string             `json:"status"`
	Error   string             `json:"error,omitempty"`
	Runs    int                `json:"runs"`
	Results []server.RunResult `json:"results,omitempty"`

	Fingerprint string `json:"fingerprint"`
	Worker      string `json:"worker,omitempty"`
	WorkerJob   string `json:"worker_job,omitempty"`
	Retries     int    `json:"retries"`
}

// RegisterRequest is the body of POST /v1/workers: a worker announcing
// its base URL.
type RegisterRequest struct {
	URL string `json:"url"`
}

// RegisterResponse acknowledges a (re-)registration.
type RegisterResponse struct {
	Registered bool `json:"registered"` // false: already known (heartbeat)
	Workers    int  `json:"workers"`
}

// cjob is one admitted cluster job: the original request body (kept so
// the job can be re-submitted verbatim to another worker), its current
// placement, and the latest status observed from the owning worker.
type cjob struct {
	id    string
	body  []byte
	fp    uint64
	fpHex string
	runs  int

	// mu guards the placement and status fields; critical sections are
	// pure field access so watchers and HTTP handlers never contend for
	// long.
	mu sync.Mutex //lint:mutex nocalls
	//lint:guards mu
	worker string
	//lint:guards mu
	workerJob string
	//lint:guards mu
	retries int
	//lint:guards mu
	terminal bool
	//lint:guards mu
	last server.JobStatus
}

func (j *cjob) owner() (worker, workerJob string, terminal bool) {
	j.mu.Lock()
	worker, workerJob, terminal = j.worker, j.workerJob, j.terminal
	j.mu.Unlock()
	return worker, workerJob, terminal
}

func (j *cjob) setOwner(worker, workerJob string) {
	j.mu.Lock()
	j.worker = worker
	j.workerJob = workerJob
	j.mu.Unlock()
}

func (j *cjob) noteRetry() int {
	j.mu.Lock()
	j.retries++
	n := j.retries
	j.mu.Unlock()
	return n
}

func (j *cjob) setSnapshot(st server.JobStatus) {
	j.mu.Lock()
	j.last = st
	j.mu.Unlock()
}

// finish marks the job terminal with its final status. Reports false if
// the job was already terminal (double finalization is a bug shield,
// not an expected path).
func (j *cjob) finish(st server.JobStatus) bool {
	j.mu.Lock()
	if j.terminal {
		j.mu.Unlock()
		return false
	}
	j.terminal = true
	j.last = st
	j.mu.Unlock()
	return true
}

func (j *cjob) view() JobView {
	j.mu.Lock()
	v := JobView{
		ID:          j.id,
		Status:      j.last.Status,
		Error:       j.last.Error,
		Runs:        j.runs,
		Results:     j.last.Results,
		Fingerprint: j.fpHex,
		Worker:      j.worker,
		WorkerJob:   j.workerJob,
		Retries:     j.retries,
	}
	j.mu.Unlock()
	if v.Status == "" {
		v.Status = "queued"
	}
	return v
}

// Router is the stateless front of a latteccd fleet: it holds no
// simulation state and no result cache of its own — only the routing
// table (live workers) and the in-flight job ledger that retry and
// drain need. Create with New, serve Handler(), stop with Shutdown.
type Router struct {
	cfg     Config
	mux     *http.ServeMux
	reg     *Registry
	policy  Policy
	client  *http.Client // forwards, status polls (bounded timeout)
	stream  *http.Client // SSE proxying (no timeout; request-context bound)
	metrics *routerMetrics

	mu sync.Mutex //lint:mutex nocalls
	//lint:guards mu
	jobs map[string]*cjob
	//lint:guards mu
	inflight int

	draining  atomic.Bool
	admit     sync.RWMutex // write-held by Shutdown to fence admission
	nextID    atomic.Uint64
	watcherWg sync.WaitGroup
	healthWg  sync.WaitGroup
	stopCh    chan struct{}
	stopOnce  sync.Once
}

// New builds a Router and starts its health-check loop.
func New(cfg Config) (*Router, error) {
	if cfg.Policy == "" {
		cfg.Policy = "fingerprint"
	}
	pol, err := PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.RetryLimit <= 0 {
		cfg.RetryLimit = 3
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 150 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	client := &http.Client{Timeout: 10 * time.Second}
	rt := &Router{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		reg:     NewRegistry(cfg.DeadAfter, cfg.RingReplicas, &http.Client{Timeout: cfg.ProbeTimeout}),
		policy:  pol,
		client:  client,
		stream:  &http.Client{},
		metrics: &routerMetrics{},
		jobs:    map[string]*cjob{},
		stopCh:  make(chan struct{}),
	}

	rt.mux.HandleFunc("POST /v1/runs", rt.handleSubmit)
	rt.mux.HandleFunc("GET /v1/runs/{id}", rt.handleStatus)
	rt.mux.HandleFunc("GET /v1/runs/{id}/events", rt.handleEvents)
	rt.mux.HandleFunc("POST /v1/workers", rt.handleRegister)
	rt.mux.HandleFunc("DELETE /v1/workers", rt.handleDeregister)
	rt.mux.HandleFunc("GET /v1/workers", rt.handleWorkers)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	rt.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if rt.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})

	rt.healthWg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Registry exposes the worker registry (tests, metrics).
func (rt *Router) Registry() *Registry { return rt.reg }

// healthLoop probes the fleet until the router is closed.
func (rt *Router) healthLoop() {
	defer rt.healthWg.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopCh:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
			rt.reg.ProbeAll(ctx)
			cancel()
		}
	}
}

// Shutdown drains the router: new submissions are rejected with 503
// immediately, in-flight jobs run to a terminal state (retrying onto
// surviving workers if theirs die mid-drain), and the health loop stops
// last. Returns an error if ctx expires first.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.admit.Lock()
	rt.draining.Store(true)
	rt.admit.Unlock()

	done := make(chan struct{})
	go func() {
		rt.watcherWg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("cluster: drain incomplete: %w", ctx.Err())
	}
	rt.Close()
	return nil
}

// Close hard-stops the router: watchers and the health loop exit at
// their next poll tick without waiting for jobs to finish. Shutdown
// calls it after a clean drain; tests call it directly.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	rt.healthWg.Wait()
}

// --- placement --------------------------------------------------------

// errRejected carries a worker's deterministic rejection (HTTP 4xx) of
// a forwarded submission back to the client verbatim: a request one
// worker rejects as malformed is rejected identically by every worker.
type errRejected struct {
	code int
	msg  string
}

func (e *errRejected) Error() string { return e.msg }

// place picks a worker for j (excluding the one a retry is fleeing) and
// forwards the original submission body. Placement failures rotate to
// the next candidate; a 4xx from a worker is final.
func (rt *Router) place(j *cjob, exclude string) error {
	for attempt := 0; attempt < rt.cfg.RetryLimit+1; attempt++ {
		target, err := rt.policy.Pick(j.fp, rt.reg, exclude)
		if err != nil {
			return err
		}
		wid, err := rt.forward(target, j.body)
		if err == nil {
			j.setOwner(target, wid)
			rt.reg.NoteAssigned(target, 1)
			rt.cfg.Logf("cluster: job %s -> %s (%s)", j.id, target, wid)
			return nil
		}
		var rej *errRejected
		if errors.As(err, &rej) && rej.code < http.StatusInternalServerError && rej.code != http.StatusTooManyRequests && rej.code != http.StatusServiceUnavailable {
			return err
		}
		// Connection failure, 429, 503, or 5xx: count it against the
		// worker and rotate to another candidate.
		if !errors.As(err, &rej) {
			rt.reg.ReportFailure(target)
		}
		exclude = target
	}
	return fmt.Errorf("cluster: no worker accepted job %s", j.id)
}

// forward submits j's body to one worker and returns the worker-local
// job ID.
func (rt *Router) forward(workerURL string, body []byte) (string, error) {
	resp, err := rt.client.Post(workerURL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", &errRejected{code: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	}
	var ack server.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return "", fmt.Errorf("cluster: bad submit ack from %s: %w", workerURL, err)
	}
	return ack.ID, nil
}

// errJobLost marks a worker that is reachable but no longer knows the
// job — it restarted and lost its in-memory state.
var errJobLost = errors.New("cluster: worker lost the job")

// fetchStatus polls one worker-local job.
func (rt *Router) fetchStatus(workerURL, workerJob string) (server.JobStatus, error) {
	resp, err := rt.client.Get(workerURL + "/v1/runs/" + workerJob)
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return server.JobStatus{}, errJobLost
	}
	if resp.StatusCode != http.StatusOK {
		return server.JobStatus{}, fmt.Errorf("cluster: status %d from %s", resp.StatusCode, workerURL)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.JobStatus{}, err
	}
	return st, nil
}

// watch drives one cluster job to a terminal state: poll the owning
// worker, mirror its status, and — when the worker dies or loses the
// job — re-place the job on another worker. Safe because of the
// determinism contract: a re-run returns bit-identical results, so a
// retry can only repeat the answer, never change it.
func (rt *Router) watch(j *cjob) {
	defer rt.watcherWg.Done()
	defer rt.release(j)
	failures := 0
	t := time.NewTicker(rt.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopCh:
			return
		case <-t.C:
		}
		worker, workerJob, terminal := j.owner()
		if terminal {
			return
		}
		st, err := rt.fetchStatus(worker, workerJob)
		switch {
		case err == nil && (st.Status == "done" || st.Status == "failed"):
			rt.finalize(j, st)
			return
		case err == nil:
			j.setSnapshot(st)
			failures = 0
		case errors.Is(err, errJobLost):
			if !rt.retryElsewhere(j, worker, "worker lost the job") {
				return
			}
			failures = 0
		default:
			failures++
			// Two consecutive data-path failures: give up on this
			// worker for this job (the registry eviction threshold
			// runs in parallel on its own probe counter).
			if failures >= 2 {
				rt.reg.ReportFailure(worker)
				if !rt.retryElsewhere(j, worker, err.Error()) {
					return
				}
				failures = 0
			}
		}
	}
}

// retryElsewhere re-places a lost job on another worker. Returns false
// when the job reached a terminal (failed) state instead — retry budget
// exhausted, or no live workers to retry on.
func (rt *Router) retryElsewhere(j *cjob, deadWorker, cause string) bool {
	rt.reg.NoteAssigned(deadWorker, -1)
	if n := j.noteRetry(); n > rt.cfg.RetryLimit {
		rt.finalize(j, server.JobStatus{
			Status: "failed",
			Error:  fmt.Sprintf("lost worker %d times (last: %s; worker %s)", n, cause, deadWorker),
		})
		return false
	}
	rt.metrics.retries.Add(1)
	rt.cfg.Logf("cluster: job %s lost worker %s (%s); retrying elsewhere", j.id, deadWorker, cause)
	if err := rt.place(j, deadWorker); err != nil {
		rt.finalize(j, server.JobStatus{
			Status: "failed",
			Error:  fmt.Sprintf("retry after losing %s failed: %v", deadWorker, err),
		})
		return false
	}
	return true
}

// finalize caches a job's terminal status and releases its admission
// slot.
func (rt *Router) finalize(j *cjob, st server.JobStatus) {
	if !j.finish(st) {
		return
	}
	if st.Status == "failed" {
		rt.metrics.jobsFailed.Add(1)
	} else {
		rt.metrics.jobsCompleted.Add(1)
	}
}

// release returns j's admission slot and load attribution when its
// watcher exits for any reason (terminal job, or router close).
func (rt *Router) release(j *cjob) {
	worker, _, terminal := j.owner()
	if terminal && worker != "" {
		rt.reg.NoteAssigned(worker, -1)
	}
	rt.mu.Lock()
	rt.inflight--
	rt.mu.Unlock()
}

// --- HTTP handlers ----------------------------------------------------

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Same admission fence as the worker daemon: Shutdown flips draining
	// under the write half, so no watcher can spawn behind the drain.
	rt.admit.RLock()
	defer rt.admit.RUnlock()
	if rt.draining.Load() {
		rt.metrics.rejectedDraining.Add(1)
		server.WriteJSONError(w, http.StatusServiceUnavailable, "router is draining")
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		rt.metrics.rejectedInvalid.Add(1)
		server.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	// Decode just enough to count runs and compute the affinity
	// fingerprint; full validation (workload/policy names) is the
	// worker's job, and its 4xx answers are relayed verbatim.
	var req server.SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		rt.metrics.rejectedInvalid.Add(1)
		server.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	runs := len(req.Runs)
	if req.Workload != "" || req.Policy != "" {
		runs = 1
	}
	if runs == 0 {
		rt.metrics.rejectedInvalid.Add(1)
		server.WriteJSONError(w, http.StatusBadRequest, "no runs submitted")
		return
	}
	cfg, err := req.Config.Apply(rt.cfg.BaseConfig)
	if err != nil {
		rt.metrics.rejectedInvalid.Add(1)
		server.WriteJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	fp := cfg.Fingerprint()

	rt.mu.Lock()
	full := rt.inflight >= rt.cfg.MaxInFlight
	if !full {
		rt.inflight++
	}
	rt.mu.Unlock()
	if full {
		rt.metrics.rejectedFull.Add(1)
		w.Header().Set("Retry-After", "1")
		server.WriteJSONError(w, http.StatusTooManyRequests, "cluster at max in-flight jobs")
		return
	}

	j := &cjob{
		id:    fmt.Sprintf("cjob-%06d", rt.nextID.Add(1)),
		body:  body,
		fp:    fp,
		fpHex: fmt.Sprintf("0x%016x", fp),
		runs:  runs,
	}
	if err := rt.place(j, ""); err != nil {
		rt.mu.Lock()
		rt.inflight--
		rt.mu.Unlock()
		var rej *errRejected
		switch {
		case errors.As(err, &rej):
			rt.metrics.rejectedInvalid.Add(1)
			server.WriteJSONError(w, rej.code, rej.msg)
		case errors.Is(err, ErrNoWorkers):
			rt.metrics.rejectedNoWorkers.Add(1)
			server.WriteJSONError(w, http.StatusServiceUnavailable, "no routable workers")
		default:
			rt.metrics.rejectedNoWorkers.Add(1)
			server.WriteJSONError(w, http.StatusServiceUnavailable, err.Error())
		}
		return
	}

	rt.mu.Lock()
	rt.jobs[j.id] = j
	rt.mu.Unlock()
	rt.watcherWg.Add(1)
	go rt.watch(j)

	rt.metrics.jobsRouted.Add(1)
	worker, _, _ := j.owner()
	w.WriteHeader(http.StatusAccepted)
	server.WriteJSON(w, JobView{
		ID:          j.id,
		Status:      "queued",
		Runs:        runs,
		Fingerprint: j.fpHex,
		Worker:      worker,
	})
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := rt.jobByID(r.PathValue("id"))
	if j == nil {
		server.WriteJSONError(w, http.StatusNotFound, "no such job")
		return
	}
	server.WriteJSON(w, j.view())
}

// handleEvents proxies the owning worker's SSE stream. If the worker
// dies mid-stream the proxy re-attaches to the job's new owner, whose
// replay starts from the beginning — frames are therefore delivered
// at-least-once across a retry, never lost. If the job is already
// terminal and its worker gone, a single synthetic terminal frame is
// emitted from the router's cached result.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := rt.jobByID(r.PathValue("id"))
	if j == nil {
		server.WriteJSONError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		server.WriteJSONError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		worker, workerJob, terminal := j.owner()
		if err := rt.proxyStream(r.Context(), w, fl, worker, workerJob); err == nil {
			return // worker stream completed: the job is terminal there
		}
		if r.Context().Err() != nil {
			return
		}
		if terminal {
			v := j.view()
			data, _ := json.Marshal(v)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", v.Status, data)
			fl.Flush()
			return
		}
		// Mid-retry: wait a tick for the new placement, then re-attach.
		select {
		case <-r.Context().Done():
			return
		case <-rt.stopCh:
			return
		case <-time.After(rt.cfg.PollInterval):
		}
	}
}

// proxyStream copies one worker's SSE byte stream to the client,
// flushing as frames arrive. A nil return means the worker closed the
// stream cleanly (its job reached a terminal state).
func (rt *Router) proxyStream(ctx context.Context, w io.Writer, fl http.Flusher, workerURL, workerJob string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, workerURL+"/v1/runs/"+workerJob+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := rt.stream.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: events status %d from %s", resp.StatusCode, workerURL)
	}
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return nil // client went away; treat as complete
			}
			fl.Flush()
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad register body: %v", err))
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		server.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("worker url must be absolute http(s), got %q", req.URL))
		return
	}
	workerURL := u.Scheme + "://" + u.Host
	if isNew := rt.reg.Register(workerURL); isNew {
		rt.metrics.workersRegistered.Add(1)
		rt.cfg.Logf("cluster: worker %s joined (%d live)", workerURL, len(rt.reg.Snapshot()))
	}
	server.WriteJSON(w, RegisterResponse{Registered: true, Workers: len(rt.reg.Snapshot())})
}

func (rt *Router) handleDeregister(w http.ResponseWriter, r *http.Request) {
	workerURL := r.URL.Query().Get("url")
	if workerURL == "" {
		server.WriteJSONError(w, http.StatusBadRequest, "missing url query parameter")
		return
	}
	rt.reg.Deregister(workerURL)
	rt.cfg.Logf("cluster: worker %s left (%d live)", workerURL, len(rt.reg.Snapshot()))
	server.WriteJSON(w, RegisterResponse{Registered: false, Workers: len(rt.reg.Snapshot())})
}

func (rt *Router) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, map[string]any{
		"policy":  rt.policy.Name(),
		"workers": rt.reg.Snapshot(),
	})
}

func (rt *Router) jobByID(id string) *cjob {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.jobs[id]
}

// Inflight reports the number of non-terminal cluster jobs (tests).
func (rt *Router) Inflight() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.inflight
}
