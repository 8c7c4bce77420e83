package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"lattecc/internal/server"
)

// WorkerInfo is one worker's externally visible state, as rendered by
// GET /v1/workers and consumed by the routing policies.
type WorkerInfo struct {
	URL      string `json:"url"`
	Draining bool   `json:"draining"`
	Queued   int64  `json:"queued"`
	Running  int64  `json:"running"`
	// Assigned counts jobs this router has routed to the worker since
	// its last successful health probe — the optimistic load signal that
	// spreads a burst before the next probe refreshes Queued/Running.
	Assigned int64 `json:"assigned"`
	// Failures is the count of consecutive failed health probes; the
	// worker is evicted when it reaches the registry's dead-after
	// threshold.
	Failures int `json:"failures"`
}

// Load is the worker's routable load: what it reported at the last
// probe plus what this router has optimistically assigned since.
func (w WorkerInfo) Load() int64 { return w.Queued + w.Running + w.Assigned }

// workerEntry is the registry's mutable record for one live worker.
type workerEntry struct {
	url      string
	queued   int64
	running  int64
	draining bool
	failures int
	assigned int64
}

// Registry tracks the live worker fleet: registration (idempotent, so
// worker heartbeats re-register), health probing against each worker's
// /v1/load endpoint, load bookkeeping for the least-loaded policy, and
// eviction of workers whose probes fail deadAfter times in a row.
// Evicted workers leave the hash ring, so fingerprint-affinity keys
// they owned fall through to their ring successors; if the process
// comes back it simply re-registers.
type Registry struct {
	deadAfter int
	client    *http.Client

	// mu guards the ring and the worker map. Probes run outside the
	// lock (an HTTP round-trip must never block routing) and re-acquire
	// it to apply results.
	mu      sync.Mutex
	workers map[string]*workerEntry
	ring    *Ring

	evictions atomic.Uint64
}

// NewRegistry builds an empty registry. deadAfter is how many
// consecutive probe failures evict a worker (<= 0 selects 3); client is
// used for health probes (nil selects a default with the caller's
// responsibility to set timeouts).
func NewRegistry(deadAfter int, replicas int, client *http.Client) *Registry {
	if deadAfter <= 0 {
		deadAfter = 3
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &Registry{
		deadAfter: deadAfter,
		client:    client,
		workers:   map[string]*workerEntry{},
		ring:      NewRing(replicas),
	}
}

// Register adds a worker by its base URL and reports whether it was
// new. Re-registering a live worker refreshes nothing but is cheap and
// legal — workers heartbeat by re-registering.
func (r *Registry) Register(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.workers[url]; ok {
		return false
	}
	r.workers[url] = &workerEntry{url: url}
	r.ring.Add(url)
	return true
}

// Deregister removes a worker gracefully (no eviction counted): the
// worker announced it is going away, typically at the top of its own
// drain. Jobs it still holds will finish there; it just receives no new
// ones.
func (r *Registry) Deregister(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.workers[url]; !ok {
		return
	}
	delete(r.workers, url)
	r.ring.Remove(url)
}

// Evict force-removes a dead worker and counts the eviction.
func (r *Registry) Evict(url string) {
	r.mu.Lock()
	_, ok := r.workers[url]
	if ok {
		delete(r.workers, url)
		r.ring.Remove(url)
	}
	r.mu.Unlock()
	if ok {
		r.evictions.Add(1)
	}
}

// Evictions reports how many workers have been force-removed.
func (r *Registry) Evictions() uint64 { return r.evictions.Load() }

// ReportFailure records one failed interaction with a worker (a status
// poll or job forward that got a connection error, not an HTTP error).
// It shares the probe failure counter, so a worker that is dead to the
// data path is evicted without waiting for deadAfter probe ticks.
// Reports whether the worker was evicted by this call.
func (r *Registry) ReportFailure(url string) bool {
	evict := false
	r.mu.Lock()
	if e, ok := r.workers[url]; ok {
		e.failures++
		evict = e.failures >= r.deadAfter
		if evict {
			delete(r.workers, url)
			r.ring.Remove(url)
		}
	}
	r.mu.Unlock()
	if evict {
		r.evictions.Add(1)
	}
	return evict
}

// NoteAssigned adjusts the optimistic in-flight count for a worker:
// +1 when the router places a job there, -1 when the job leaves it
// (terminal or retried elsewhere). Unknown workers are ignored — the
// job outlived its worker.
func (r *Registry) NoteAssigned(url string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.workers[url]; ok {
		e.assigned += delta
		if e.assigned < 0 {
			e.assigned = 0
		}
	}
}

// Snapshot returns every live worker sorted by URL.
func (r *Registry) Snapshot() []WorkerInfo {
	r.mu.Lock()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, e := range r.workers {
		out = append(out, WorkerInfo{
			URL:      e.url,
			Draining: e.draining,
			Queued:   e.queued,
			Running:  e.running,
			Assigned: e.assigned,
			Failures: e.failures,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Routable reports whether url is live and accepting work.
func (r *Registry) Routable(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.workers[url]
	return ok && !e.draining
}

// PickAffinity walks the ring from the fingerprint's position and
// returns the first routable worker, skipping exclude (the worker a
// retry is fleeing) and any worker that is draining. ok is false when
// no worker qualifies.
func (r *Registry) PickAffinity(fp uint64, exclude string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, url := range r.ring.Successors(fp) {
		if url == exclude {
			continue
		}
		if e, ok := r.workers[url]; ok && !e.draining {
			return url, true
		}
	}
	return "", false
}

// ProbeAll health-checks every worker once: GET {url}/v1/load with the
// registry's client. A reachable worker has its load and draining state
// refreshed (and its optimistic assigned count reset — the report now
// covers reality); an unreachable one accrues a failure and is evicted
// at deadAfter. The HTTP round-trips run outside the registry lock.
func (r *Registry) ProbeAll(ctx context.Context) {
	r.mu.Lock()
	urls := make([]string, 0, len(r.workers))
	for url := range r.workers {
		urls = append(urls, url)
	}
	r.mu.Unlock()
	sort.Strings(urls)

	for _, url := range urls {
		st, err := r.probe(ctx, url)
		r.mu.Lock()
		e, ok := r.workers[url]
		if !ok {
			r.mu.Unlock()
			continue
		}
		evict := false
		if err != nil {
			e.failures++
			evict = e.failures >= r.deadAfter
			if evict {
				delete(r.workers, url)
				r.ring.Remove(url)
			}
		} else {
			e.failures = 0
			e.queued = st.Queued
			e.running = st.Running
			e.draining = st.Draining
			e.assigned = 0
		}
		r.mu.Unlock()
		if evict {
			r.evictions.Add(1)
		}
	}
}

// probe fetches one worker's load report.
func (r *Registry) probe(ctx context.Context, url string) (server.LoadStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/load", nil)
	if err != nil {
		return server.LoadStatus{}, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return server.LoadStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.LoadStatus{}, fmt.Errorf("probe %s: status %d", url, resp.StatusCode)
	}
	var st server.LoadStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.LoadStatus{}, err
	}
	return st, nil
}
