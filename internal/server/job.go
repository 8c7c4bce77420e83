package server

import (
	"fmt"
	"sync"
	"time"

	"lattecc/internal/harness"
	"lattecc/internal/sim"
)

// jobState is a job's lifecycle position. Transitions are linear:
// queued → running → done|failed.
type jobState string

const (
	stateQueued  jobState = "queued"
	stateRunning jobState = "running"
	stateDone    jobState = "done"
	stateFailed  jobState = "failed"
)

// Job is one admitted simulation batch. The daemon owns the job for its
// whole lifetime; HTTP handlers only ever read snapshots under mu.
type Job struct {
	id       string
	reqs     []harness.RunRequest
	fpx      string // suite fingerprint pre-rendered; immutable, so readable under mu without a call
	deadline time.Duration

	// mu guards every mutable field; it is never held across a call
	// (machine-checked: lattelint lock-contract), which is what makes
	// appendEvent's close-and-replace notify scheme deadlock-free.
	mu sync.Mutex //lint:mutex nocalls
	//lint:guards mu
	state jobState
	//lint:guards mu
	errMsg string
	//lint:guards mu
	results []RunResult
	//lint:guards mu
	events []Event
	//lint:guards mu
	notify chan struct{} // closed and replaced on every append
}

func newJob(id string, reqs []harness.RunRequest, fp uint64, deadline time.Duration) *Job {
	j := &Job{
		id:       id,
		reqs:     reqs,
		fpx:      fpHex(fp),
		deadline: deadline,
		state:    stateQueued,
		notify:   make(chan struct{}),
	}
	j.appendEvent(Event{Type: "queued", Data: map[string]any{"id": id, "runs": len(reqs)}})
	return j
}

// Event is one frame of a job's SSE stream.
type Event struct {
	Type string // queued | running | run | done | failed
	Data any    // JSON-marshalled into the frame's data line
}

// appendEvent records an event and wakes every stream blocked on the
// job. Callers must NOT hold j.mu.
func (j *Job) appendEvent(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// snapshot returns the append-only event log (safe to read up to its
// length), the current state, and a channel closed on the next change.
func (j *Job) snapshot() ([]Event, jobState, chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events, j.state, j.notify
}

// setRunning marks the job dispatched to a worker.
func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = stateRunning
	j.mu.Unlock()
	j.appendEvent(Event{Type: "running", Data: map[string]any{"id": j.id}})
}

// complete finishes the job with its results.
func (j *Job) complete(results []RunResult) {
	j.finish(stateDone, results, "", Event{Type: "done", Data: map[string]any{"id": j.id, "runs": len(results)}})
}

// fail finishes the job with an error.
func (j *Job) fail(msg string) {
	j.finish(stateFailed, nil, msg, Event{Type: "failed", Data: map[string]any{"id": j.id, "error": msg}})
}

// finish moves the job to a terminal state and appends the terminal
// event in one critical section: a snapshot that sees the terminal
// state always sees its event too, so an SSE stream that stops on the
// state never closes without the done/failed frame.
func (j *Job) finish(state jobState, results []RunResult, errMsg string, ev Event) {
	j.mu.Lock()
	j.state = state
	j.results = results
	j.errMsg = errMsg
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// status renders the job for GET /v1/runs/{id}.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		Status:      string(j.state),
		Error:       j.errMsg,
		Runs:        len(j.reqs),
		Results:     j.results,
		Fingerprint: j.fpx,
	}
}

// fpHex renders a machine-config fingerprint the way StateHashes are
// rendered: fixed-width hex, stable for text diffs.
func fpHex(fp uint64) string { return fmt.Sprintf("0x%016x", fp) }

// --- wire types -------------------------------------------------------

// RunSpec names one simulation in a submission.
type RunSpec struct {
	Workload string      `json:"workload"`
	Policy   string      `json:"policy"`
	Variant  VariantSpec `json:"variant,omitempty"`
}

// VariantSpec mirrors harness.Variant on the wire.
type VariantSpec struct {
	CapacityOnly    bool   `json:"capacity_only,omitempty"`
	LatencyOnly     bool   `json:"latency_only,omitempty"`
	ExtraHitLatency uint64 `json:"extra_hit_latency,omitempty"`
	SampleSeries    bool   `json:"sample_series,omitempty"`
}

func (v VariantSpec) toVariant() harness.Variant {
	return harness.Variant{
		CapacityOnly:    v.CapacityOnly,
		LatencyOnly:     v.LatencyOnly,
		ExtraHitLatency: v.ExtraHitLatency,
		SampleSeries:    v.SampleSeries,
	}
}

// SubmitRequest is the body of POST /v1/runs: either one inline run
// (workload/policy/variant at the top level) or a batch under "runs",
// plus optional machine-config overrides and a per-job deadline.
type SubmitRequest struct {
	Workload string      `json:"workload,omitempty"`
	Policy   string      `json:"policy,omitempty"`
	Variant  VariantSpec `json:"variant,omitempty"`

	Runs []RunSpec `json:"runs,omitempty"`

	Config     *ConfigOverrides `json:"config,omitempty"`
	DeadlineMS int64            `json:"deadline_ms,omitempty"`
}

// Machine overlays the request's config overrides on base and checks
// that each run's policy can run on the result (harness.CheckPolicy).
// latteccd and latteroute both admit a submission's machine through it.
func (req *SubmitRequest) Machine(base sim.Config) (sim.Config, error) {
	cfg, err := req.Config.Apply(base)
	if err != nil {
		return sim.Config{}, err
	}
	for _, r := range req.Runs {
		if err := harness.CheckPolicy(cfg, harness.Policy(r.Policy)); err != nil {
			return sim.Config{}, err
		}
	}
	return cfg, nil
}

// SubmitResponse acknowledges an admitted job. Fingerprint is the
// machine-config fingerprint the job's suite is keyed on — the same key
// the cluster router rendezvous-hashes for fingerprint-affinity
// placement, exposed so routing decisions are auditable end to end.
type SubmitResponse struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Runs        int    `json:"runs"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// LoadStatus is the GET /v1/load response the cluster router's health
// checker polls and the least-loaded routing policy weighs. Queued
// counts the jobs with a run waiting for a simulation slot, Running the
// other admitted, unfinished jobs; QueueCapacity is the configured
// QueueDepth.
type LoadStatus struct {
	Queued        int64 `json:"queued"`
	Running       int64 `json:"running"`
	QueueCapacity int64 `json:"queue_capacity"`
	Draining      bool  `json:"draining"`
}

// RunResult is one completed run in a job's result set.
type RunResult struct {
	Workload     string      `json:"workload"`
	Policy       string      `json:"policy"`
	Variant      VariantSpec `json:"variant,omitempty"`
	Cycles       uint64      `json:"cycles"`
	Instructions uint64      `json:"instructions"`
	IPC          float64     `json:"ipc"`
	HitRate      float64     `json:"hit_rate"`
	// StateHash is sim.Result.StateHash rendered as 0x%016x — the
	// determinism contract: byte-identical to a direct Suite.MustRun of
	// the same (workload, policy, variant, config).
	StateHash string `json:"state_hash"`
	// Cached is true when the resident suite's in-memory cache served
	// the run (a completed result, or a join of one in flight); a fresh
	// simulation or a result-store load is false. DurationMS is this
	// job's wait for the run, from the start of its batch.
	Cached     bool    `json:"cached"`
	DurationMS float64 `json:"duration_ms"`
}

// JobStatus renders a job's externally visible state. Fingerprint lets
// the cluster router verify that a worker's resident suite matches the
// affinity key it routed on.
type JobStatus struct {
	ID          string      `json:"id"`
	Status      string      `json:"status"`
	Error       string      `json:"error,omitempty"`
	Runs        int         `json:"runs"`
	Results     []RunResult `json:"results,omitempty"`
	Fingerprint string      `json:"fingerprint,omitempty"`
}

// ConfigOverrides is the subset of sim.Config a request may change.
// Pointer fields distinguish "absent" from zero; the overlaid config is
// validated before a suite is keyed on it.
type ConfigOverrides struct {
	NumSMs          *int    `json:"num_sms,omitempty"`
	MaxWarpsPerSM   *int    `json:"max_warps_per_sm,omitempty"`
	L1Ports         *int    `json:"l1_ports,omitempty"`
	MSHRs           *int    `json:"mshrs,omitempty"`
	L1SizeBytes     *int    `json:"l1_size_bytes,omitempty"`
	L2SizeBytes     *int    `json:"l2_size_bytes,omitempty"`
	WriteThroughL1  *bool   `json:"write_through_l1,omitempty"`
	MaxInstructions *uint64 `json:"max_instructions,omitempty"`
	MaxCycles       *uint64 `json:"max_cycles,omitempty"`
}

// Apply copies cfg, overlays the present overrides, and validates the
// result. The cluster router calls it too, to compute a submission's
// affinity fingerprint without owning a suite.
func (o *ConfigOverrides) Apply(cfg sim.Config) (sim.Config, error) {
	if o == nil {
		return cfg, nil
	}
	overlay(&cfg.NumSMs, o.NumSMs)
	overlay(&cfg.MaxWarpsPerSM, o.MaxWarpsPerSM)
	overlay(&cfg.L1Ports, o.L1Ports)
	overlay(&cfg.MSHRs, o.MSHRs)
	overlay(&cfg.Cache.SizeBytes, o.L1SizeBytes)
	overlay(&cfg.Mem.L2SizeBytes, o.L2SizeBytes)
	overlay(&cfg.WriteThroughL1, o.WriteThroughL1)
	overlay(&cfg.MaxInstructions, o.MaxInstructions)
	overlay(&cfg.MaxCycles, o.MaxCycles)
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, fmt.Errorf("config overrides: %w", err)
	}
	return cfg, nil
}

// overlay sets *dst to *v when the override is present.
func overlay[T any](dst, v *T) {
	if v != nil {
		*dst = *v
	}
}
