// Package cluster turns latteccd into a fleet: a stateless router
// (cmd/latteroute) fronts N workers, placing jobs by rendezvous-hashing
// the machine-config fingerprint so each worker's resident Suite cache
// stays hot, with pluggable routing policies, health-checked worker
// registration, and retry-on-another-node for jobs lost to a worker
// death.
//
// The determinism contract is what makes the cluster trivially correct:
// every worker returns the bit-identical StateHash for the same
// (workload, policy, variant, config), so replicas are perfectly
// substitutable — a retried job cannot change its answer, only its
// latency. The router therefore never coordinates workers; it only
// places, watches, and (on loss) replaces.
//
// The package sits strictly above the determinism boundary: it may read
// clocks and speak HTTP, and lattelint bans any cycle-level package
// from importing it.
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
	urlHash  uint64 // fnv1a(url), the worker's half of its rendezvous score
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
// Fingerprint-affinity placement is read from the worker map alone
// (PickAffinity), so an evicted worker's keys fall to their next-highest
// scorer and no other key moves; if the process comes back it simply
// re-registers and gets its keys back.
type Registry struct {
	deadAfter int
	client    *http.Client

	// mu guards the worker map. Probes run outside the lock (an HTTP
	// round-trip must never block routing) and re-acquire it to apply
	// results.
	mu      sync.Mutex
	workers map[string]*workerEntry

	evictions atomic.Uint64
}

// NewRegistry builds an empty registry. deadAfter is how many
// consecutive probe failures evict a worker (<= 0 selects 3); client is
// used for health probes (nil selects a default with the caller's
// responsibility to set timeouts).
func NewRegistry(deadAfter int, client *http.Client) *Registry {
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
	r.workers[url] = &workerEntry{url: url, urlHash: fnv1a(url)}
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
}

// Evictions reports how many workers have been force-removed.
func (r *Registry) Evictions() uint64 { return r.evictions.Load() }

// ReportFailure records one failed interaction with a worker (a status
// poll or job forward that got a connection error, not an HTTP error).
// It shares the probe failure counter, so a worker that is dead to the
// data path is evicted without waiting for deadAfter probe ticks.
// Reports whether the worker was evicted by this call.
func (r *Registry) ReportFailure(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.workers[url]
	return ok && r.failLocked(e)
}

// failLocked counts one failed interaction with e and evicts it once
// the failures reach deadAfter, reporting whether it did. r.mu must be
// held.
func (r *Registry) failLocked(e *workerEntry) bool {
	e.failures++
	if e.failures < r.deadAfter {
		return false
	}
	delete(r.workers, e.url)
	r.evictions.Add(1)
	return true
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

// PickAffinity places fingerprint fp by rendezvous (highest-random-
// weight) hashing: of the routable workers — not draining, not exclude
// (the worker a retry is fleeing) — it returns the one with the highest
// score(fp, url), ties broken by the lower URL. Each worker's score for
// a key is independent of every other worker, so a join takes only the
// keys the newcomer now outscores, a leave moves only the leaver's keys
// (each to its runner-up), and the same fleet maps the same key to the
// same worker in any process. ok is false when no worker qualifies.
func (r *Registry) PickAffinity(fp uint64, exclude string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *workerEntry
	var bestScore uint64
	for _, e := range r.workers {
		if e.draining || e.url == exclude {
			continue
		}
		s := score(fp, e.urlHash)
		if best == nil || s > bestScore || (s == bestScore && e.url < best.url) {
			best, bestScore = e, s
		}
	}
	if best == nil {
		return "", false
	}
	return best.url, true
}

// score is worker urlHash's rendezvous weight for fingerprint fp: the
// two folded together through the splitmix64 finalizer, so one bit of
// either input flips about half the output bits.
func score(fp, urlHash uint64) uint64 {
	z := fp ^ urlHash
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv1a hashes a worker URL with 64-bit FNV-1a: stable across processes
// and Go versions, which makes placement reproducible in tests and
// across router restarts.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
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
		if err != nil {
			r.failLocked(e)
		} else {
			e.failures = 0
			e.queued = st.Queued
			e.running = st.Running
			e.draining = st.Draining
			e.assigned = 0
		}
		r.mu.Unlock()
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
