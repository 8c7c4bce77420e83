package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lattecc/internal/resultstore"
)

// metrics is latteccd's observability registry: a fixed set of counters
// and gauges plus per-workload run-latency histograms, rendered in
// Prometheus text exposition format by write(). It is deliberately
// stdlib-only — the daemon takes no dependency on client_golang.
//
// The fresh-simulation and cache-hit counters are NOT stored here: they
// are read at scrape time straight from the suites' own
// Simulations()/CacheHits() counters, so /metrics can never drift from
// the harness's ground truth.
type metrics struct {
	jobsAccepted  atomic.Uint64
	jobsCompleted atomic.Uint64
	jobsFailed    atomic.Uint64

	rejectedFull    atomic.Uint64 // 429: job queue at capacity
	rejectedInvalid atomic.Uint64 // 400: malformed submission

	mu sync.Mutex //lint:mutex nocalls
	//lint:guards mu
	runs map[string]*histogram // per-workload latency of fresh simulations
}

func newMetrics() *metrics {
	return &metrics{runs: map[string]*histogram{}}
}

// runBuckets are the histogram upper bounds in seconds. Tiny-machine
// smoke runs land in the first buckets, full Table II runs in the tail.
var runBuckets = []float64{0.005, 0.02, 0.1, 0.5, 2, 10, 60}

// histogram is one cumulative-on-render latency histogram. counts[i]
// holds observations in (runBuckets[i-1], runBuckets[i]]; the final
// slot is the +Inf overflow.
type histogram struct {
	counts []uint64 // len(runBuckets)+1
	sum    float64
	count  uint64
}

// observeRun records a job's wall-clock wait for one run the in-memory
// cache did not serve (a fresh simulation or a result-store load).
func (m *metrics) observeRun(workload string, d time.Duration) {
	s := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.runs[workload]
	if h == nil {
		h = &histogram{counts: make([]uint64, len(runBuckets)+1)}
		m.runs[workload] = h
	}
	h.sum += s
	h.count++
	for i, ub := range runBuckets {
		if s <= ub {
			h.counts[i]++
			return
		}
	}
	h.counts[len(runBuckets)]++
}

// snapshot values the render pass reads from the rest of the server.
type metricsSnapshot struct {
	queueDepth int
	suites     int
	fresh      uint64 // sum of Suite.Simulations() over all suites
	cacheHits  uint64 // sum of Suite.CacheHits() over all suites
	storeHits  uint64 // sum of Suite.StoreHits() over all suites
	gate       *Gate  // draining state and its 503 count

	// Persistent-store activity; rendered only when a store is
	// configured (hasStore), so memory-only daemons scrape identically
	// to pre-store builds.
	hasStore   bool
	store      resultstore.Counters
	peerHits   uint64
	peerMisses uint64
}

// write renders the registry in Prometheus text format. Workloads are
// emitted in sorted order so scrapes are byte-stable for tests.
func (m *metrics) write(w io.Writer, snap metricsSnapshot) {
	WriteMetric(w, "counter", "latteccd_jobs_accepted_total", "Jobs admitted to the queue.", m.jobsAccepted.Load())
	WriteMetric(w, "counter", "latteccd_jobs_completed_total", "Jobs that finished with results.", m.jobsCompleted.Load())
	WriteMetric(w, "counter", "latteccd_jobs_failed_total", "Jobs that ended in an error (bad run, deadline).", m.jobsFailed.Load())

	fmt.Fprintf(w, "# HELP latteccd_jobs_rejected_total Submissions refused at admission, by reason.\n")
	fmt.Fprintf(w, "# TYPE latteccd_jobs_rejected_total counter\n")
	fmt.Fprintf(w, "latteccd_jobs_rejected_total{reason=\"queue_full\"} %d\n", m.rejectedFull.Load())
	fmt.Fprintf(w, "latteccd_jobs_rejected_total{reason=\"draining\"} %d\n", snap.gate.Refused())
	fmt.Fprintf(w, "latteccd_jobs_rejected_total{reason=\"invalid\"} %d\n", m.rejectedInvalid.Load())

	WriteMetric(w, "gauge", "latteccd_queue_depth", "Jobs waiting for a worker.", snap.queueDepth)
	WriteMetric(w, "gauge", "latteccd_suites", "Resident suites (one per distinct machine config).", snap.suites)
	drain := 0
	if snap.gate.Draining() {
		drain = 1
	}
	WriteMetric(w, "gauge", "latteccd_draining", "1 while shutdown is draining in-flight jobs.", drain)

	WriteMetric(w, "counter", "latteccd_simulations_fresh_total",
		"Run requests answered with a fresh result: simulated, or a one-mode Kernel-OPT copied from its static run (Suite.Simulations over all suites).", snap.fresh)
	WriteMetric(w, "counter", "latteccd_simulation_cache_hits_total",
		"Run requests served from the result cache (Suite.CacheHits over all suites).", snap.cacheHits)
	WriteMetric(w, "counter", "latteccd_simulation_store_hits_total",
		"Run requests served from the persistent result store (Suite.StoreHits over all suites).", snap.storeHits)

	if snap.hasStore {
		WriteMetric(w, "counter", "latteccd_store_hits_total", "Store loads served from a validated disk entry.", snap.store.Hits)
		WriteMetric(w, "counter", "latteccd_store_misses_total", "Store loads with no entry on disk.", snap.store.Misses)
		WriteMetric(w, "counter", "latteccd_store_corrupt_total",
			"Entries discarded by fail-closed validation (truncation, checksum, StateHash, key mismatch).", snap.store.Corrupt)
		WriteMetric(w, "counter", "latteccd_store_evictions_total", "Entries deleted by the LRU size bound.", snap.store.Evictions)
		WriteMetric(w, "counter", "latteccd_store_saves_total", "Entries written to disk.", snap.store.Saves)
		WriteMetric(w, "gauge", "latteccd_store_entries", "Entries currently indexed by the store.", snap.store.Entries)
		WriteMetric(w, "gauge", "latteccd_store_bytes", "Total bytes of indexed store entries.", snap.store.Bytes)
		WriteMetric(w, "counter", "latteccd_store_peer_hits_total", "Local store misses rescued by a cluster peer's entry.", snap.peerHits)
		WriteMetric(w, "counter", "latteccd_store_peer_misses_total", "Local store misses no cluster peer could serve.", snap.peerMisses)
	}

	// Snapshot the histograms under mu, render outside: mu is nocalls,
	// so holding it across Fprintf to a caller-supplied writer (an HTTP
	// response — an arbitrarily slow network peer) is a contract
	// violation lattelint rejects.
	m.mu.Lock()
	names := make([]string, 0, len(m.runs))
	hists := make(map[string]histogram, len(m.runs))
	for name, h := range m.runs {
		names = append(names, name)
		hists[name] = histogram{
			counts: append([]uint64(nil), h.counts...),
			sum:    h.sum,
			count:  h.count,
		}
	}
	m.mu.Unlock()

	sort.Strings(names)
	fmt.Fprintf(w, "# HELP latteccd_run_seconds Wall-clock wait for runs not served from the in-memory cache, per workload.\n")
	fmt.Fprintf(w, "# TYPE latteccd_run_seconds histogram\n")
	for _, name := range names {
		h := hists[name]
		cum := uint64(0)
		for i, ub := range runBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "latteccd_run_seconds_bucket{workload=%q,le=\"%g\"} %d\n", name, ub, cum)
		}
		cum += h.counts[len(runBuckets)]
		fmt.Fprintf(w, "latteccd_run_seconds_bucket{workload=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "latteccd_run_seconds_sum{workload=%q} %g\n", name, h.sum)
		fmt.Fprintf(w, "latteccd_run_seconds_count{workload=%q} %d\n", name, h.count)
	}
}
