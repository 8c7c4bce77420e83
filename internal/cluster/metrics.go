package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"lattecc/internal/server"
)

// routerMetrics is latteroute's own counter set, rendered ahead of the
// aggregated per-worker scrape in /metrics. Stdlib-only, like the
// worker daemon's registry.
type routerMetrics struct {
	jobsRouted        atomic.Uint64
	jobsCompleted     atomic.Uint64
	jobsFailed        atomic.Uint64
	retries           atomic.Uint64
	workersRegistered atomic.Uint64

	rejectedFull      atomic.Uint64 // 429: cluster at max in-flight
	rejectedInvalid   atomic.Uint64 // 4xx: malformed or worker-rejected
	rejectedNoWorkers atomic.Uint64 // 503: empty or unroutable fleet
}

// handleMetrics renders the router's own counters, a per-worker up/load
// gauge set, and the sum-aggregated scrape of every live worker's
// /metrics — so one scrape of the router observes the whole fleet.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	workers := rt.reg.Snapshot()
	rt.mu.Lock()
	inflight := rt.inflight
	rt.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m := rt.metrics
	server.WriteMetric(w, "counter", "latteroute_jobs_routed_total", "Cluster jobs admitted and placed on a worker.", m.jobsRouted.Load())
	server.WriteMetric(w, "counter", "latteroute_jobs_completed_total", "Cluster jobs that reached done.", m.jobsCompleted.Load())
	server.WriteMetric(w, "counter", "latteroute_jobs_failed_total", "Cluster jobs that reached failed.", m.jobsFailed.Load())
	server.WriteMetric(w, "counter", "latteroute_retries_total", "Jobs re-placed on another worker after losing theirs.", m.retries.Load())
	server.WriteMetric(w, "counter", "latteroute_workers_registered_total", "Distinct worker registrations accepted.", m.workersRegistered.Load())
	server.WriteMetric(w, "counter", "latteroute_worker_evictions_total", "Workers force-removed after failed health probes.", rt.reg.Evictions())

	fmt.Fprintf(w, "# HELP latteroute_jobs_rejected_total Submissions refused at admission, by reason.\n")
	fmt.Fprintf(w, "# TYPE latteroute_jobs_rejected_total counter\n")
	fmt.Fprintf(w, "latteroute_jobs_rejected_total{reason=\"max_inflight\"} %d\n", m.rejectedFull.Load())
	fmt.Fprintf(w, "latteroute_jobs_rejected_total{reason=\"draining\"} %d\n", rt.gate.Refused())
	fmt.Fprintf(w, "latteroute_jobs_rejected_total{reason=\"invalid\"} %d\n", m.rejectedInvalid.Load())
	fmt.Fprintf(w, "latteroute_jobs_rejected_total{reason=\"no_workers\"} %d\n", m.rejectedNoWorkers.Load())

	server.WriteMetric(w, "gauge", "latteroute_inflight_jobs", "Non-terminal cluster jobs.", inflight)
	fmt.Fprintf(w, "# HELP latteroute_workers Live workers by state.\n# TYPE latteroute_workers gauge\n")
	alive, draining := 0, 0
	for _, wk := range workers {
		if wk.Draining {
			draining++
		} else {
			alive++
		}
	}
	fmt.Fprintf(w, "latteroute_workers{state=\"alive\"} %d\n", alive)
	fmt.Fprintf(w, "latteroute_workers{state=\"draining\"} %d\n", draining)

	fmt.Fprintf(w, "# HELP latteroute_worker_up Reachability of each registered worker at its last probe.\n# TYPE latteroute_worker_up gauge\n")
	for _, wk := range workers {
		up := 1
		if wk.Failures > 0 {
			up = 0
		}
		fmt.Fprintf(w, "latteroute_worker_up{worker=%q} %d\n", wk.URL, up)
	}

	agg := newAggregate()
	for _, wk := range workers {
		resp, err := rt.client.Get(wk.URL + "/metrics")
		if err != nil {
			continue
		}
		agg.consume(resp.Body)
		resp.Body.Close()
	}
	agg.render(w)
}

// aggregate sums Prometheus text-format scrapes from several workers
// into one fleet-wide series set: series with identical name+labels add
// (valid for counters and histogram buckets alike; gauges become fleet
// totals, e.g. latteccd_queue_depth is the cluster-wide queue depth).
type aggregate struct {
	values map[string]float64 // "name{labels}" -> summed value
	help   map[string]string  // metric name -> first-seen HELP text
	typ    map[string]string  // metric name -> first-seen TYPE
}

func newAggregate() *aggregate {
	return &aggregate{
		values: map[string]float64{},
		help:   map[string]string{},
		typ:    map[string]string{},
	}
}

// consume parses one scrape. Unparseable lines are skipped — a half-
// written scrape from a dying worker must not poison the aggregate.
func (a *aggregate) consume(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 4 {
				switch fields[1] {
				case "HELP":
					if _, ok := a.help[fields[2]]; !ok {
						a.help[fields[2]] = fields[3]
					}
				case "TYPE":
					if _, ok := a.typ[fields[2]]; !ok {
						a.typ[fields[2]] = fields[3]
					}
				}
			}
			continue
		}
		// A sample line is "name value" or "name{labels} value"; the
		// value is everything after the last space.
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			continue
		}
		series, valText := line[:cut], line[cut+1:]
		v, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			continue
		}
		a.values[series] += v
	}
}

// seriesName strips the label set from a series key.
func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// render emits the aggregate sorted by series key, with each metric's
// HELP/TYPE header ahead of its first series.
func (a *aggregate) render(w io.Writer) {
	keys := make([]string, 0, len(a.values))
	for k := range a.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lastName := ""
	for _, k := range keys {
		name := seriesName(k)
		if name != lastName {
			if help, ok := a.help[name]; ok {
				fmt.Fprintf(w, "# HELP %s %s\n", name, help)
			}
			if typ, ok := a.typ[name]; ok {
				fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
			}
			lastName = name
		}
		fmt.Fprintf(w, "%s %s\n", k, strconv.FormatFloat(a.values[k], 'g', -1, 64))
	}
}
