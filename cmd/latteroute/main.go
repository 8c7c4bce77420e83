// Command latteroute fronts a fleet of latteccd workers with a
// stateless routing layer: jobs are placed by rendezvous-hashing the
// machine-config fingerprint over the live workers (so each worker's
// resident Suite cache stays hot), workers register themselves and are
// evicted by health checks when they die, and jobs lost to a worker
// death are retried on another node — safe because every worker returns
// bit-identical StateHashes for the same (workload, policy, variant,
// config).
//
// Usage:
//
//	latteroute                             # route on :8500, fingerprint affinity
//	latteroute -policy least-loaded        # spread a homogeneous stream
//	latteccd -tiny -addr :8501 -join http://127.0.0.1:8500   # a worker joins
//
// API (client-compatible with a single latteccd worker):
//
//	POST   /v1/runs              submit a run or batch; 202 with a cluster job ID
//	GET    /v1/runs/{id}         job status and results
//	GET    /v1/runs/{id}/events  SSE progress, proxied from the owning worker
//	POST   /v1/workers           worker registration (latteccd -join does this)
//	DELETE /v1/workers?url=...   graceful worker departure
//	GET    /v1/workers           fleet membership and load
//	GET    /metrics              router counters + aggregated worker scrapes
//	GET    /healthz, /readyz     probes (readyz answers 503 while draining)
//
// SIGINT/SIGTERM drains: new submissions get 503, in-flight jobs run to
// completion (retrying onto surviving workers if theirs die), then the
// process exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lattecc/internal/cluster"
	"lattecc/internal/server"
	"lattecc/internal/sim"
)

func main() {
	var (
		addr     = flag.String("addr", ":8500", "listen address")
		policy   = flag.String("policy", "fingerprint", "routing policy: fingerprint | least-loaded")
		inflight = flag.Int("max-inflight", 256, "cluster-wide cap on non-terminal jobs (overflow answers 429)")
		retries  = flag.Int("retries", 3, "times one job may be re-placed after losing its worker")
		health   = flag.Duration("health-interval", time.Second, "worker health-probe cadence")
		dead     = flag.Int("dead-after", 3, "consecutive failed probes before a worker is evicted")
		poll     = flag.Duration("poll", 150*time.Millisecond, "per-job status watch cadence")
		drain    = flag.Duration("drain", 2*time.Minute, "shutdown drain budget for in-flight jobs")
		quick    = flag.Bool("quick", false, "fingerprint against the smaller 2-SM machine (match the workers' -quick)")
		tiny     = flag.Bool("tiny", false, "fingerprint against the CI golden-gate machine (match the workers' -tiny)")
	)
	flag.Parse()

	rt, err := cluster.New(cluster.Config{
		BaseConfig:     sim.ScaledConfig(*quick, *tiny),
		Policy:         *policy,
		MaxInFlight:    *inflight,
		RetryLimit:     *retries,
		HealthInterval: *health,
		DeadAfter:      *dead,
		PollInterval:   *poll,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "latteroute: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "latteroute: routing on %s (policy=%s max-inflight=%d)\n", *addr, *policy, *inflight)
	os.Exit(server.Serve("latteroute", *addr, rt.Handler(), *drain, rt.Shutdown))
}
