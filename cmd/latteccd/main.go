// Command latteccd serves the LATTE-CC simulation harness as a daemon:
// a long-lived process that keeps one result cache (harness.Suite) per
// machine configuration and accepts simulation jobs over HTTP/JSON.
// Repeated runs of the same (workload, policy, variant, config) are
// served from the resident cache instead of re-simulating, and every
// result carries the same StateHash a direct CLI run would report.
//
// Usage:
//
//	latteccd                          # paper machine on :8437
//	latteccd -tiny -addr :9000        # CI smoke machine
//	latteccd -workers 4 -jobs 8       # 4 concurrent jobs, 8-wide sim pool
//	latteccd -store /var/lattecc      # persist results across restarts
//
// API:
//
//	POST /v1/runs              submit a run or batch; 202 with a job ID
//	GET  /v1/runs/{id}         job status and results
//	GET  /v1/runs/{id}/events  SSE progress stream
//	GET  /v1/results/{key}     raw result-store entry (cache-peer protocol)
//	GET  /v1/load              queue/running/draining report the router probes
//	GET  /metrics              Prometheus text format
//	GET  /healthz, /readyz     probes (readyz answers 503 while draining)
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, queued and
// in-flight jobs complete (bounded by -drain), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"lattecc/internal/resultstore"
	"lattecc/internal/server"
	"lattecc/internal/sim"
	"lattecc/internal/tracefile"
)

// defaultAdvertise derives the URL a router on the same host can dial
// this worker at from its -addr flag: ":8437" and "0.0.0.0:8437"
// advertise the loopback address, explicit hosts advertise themselves.
func defaultAdvertise(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://127.0.0.1" + addr // addr was ":port"-less junk; let the URL check reject it
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

func main() {
	var (
		addr      = flag.String("addr", ":8437", "listen address")
		workers   = flag.Int("workers", 2, "jobs executing concurrently")
		jobs      = flag.Int("jobs", 0, "simulation pool width per job (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "admission queue depth (overflow answers 429)")
		deadline  = flag.Duration("deadline", 5*time.Minute, "default per-job deadline")
		drain     = flag.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight jobs")
		quick     = flag.Bool("quick", false, "use a smaller GPU (2 SMs) for a fast smoke pass")
		tiny      = flag.Bool("tiny", false, "use the CI golden-gate machine (2 SMs, 120k-instruction cap)")
		join      = flag.String("join", "", "cluster router base URL to register with (e.g. http://127.0.0.1:8500)")
		advertise = flag.String("advertise", "", "base URL the router should dial this worker at (default http://127.0.0.1:<addr port>)")
		heartbeat = flag.Duration("heartbeat", 5*time.Second, "re-registration cadence while joined to a router")
		storeDir  = flag.String("store", "", "persistent result-store directory (empty = memory-only)")
		storeMax  = flag.Int64("store-max-bytes", 0, "result-store size bound in bytes; least-recently-used entries are evicted (0 = unbounded)")
		traceDir  = flag.String("trace-dir", "", "trace-corpus directory: register every <NAME>.lct/<NAME>.json pair as a replay workload")
	)
	flag.Parse()
	if *traceDir != "" {
		// Registered before server.New snapshots the workload list —
		// registry writes are startup-only (no lock below the determinism
		// boundary).
		names, err := tracefile.RegisterCorpus(*traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "latteccd: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "latteccd: trace corpus: %d workload(s) registered\n", len(names))
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "latteccd: -workers must be >= 1, got %d\n", *workers)
		os.Exit(2)
	}
	if *queue < 1 {
		fmt.Fprintf(os.Stderr, "latteccd: -queue must be >= 1, got %d\n", *queue)
		os.Exit(2)
	}

	// The advertise URL does double duty: it is what the registrar
	// announces to the router AND the self-exclusion key for the
	// cache-peer lookup, so it is resolved before the server is built.
	adv := *advertise
	if adv == "" {
		adv = defaultAdvertise(*addr)
	}

	srvCfg := server.Config{
		BaseConfig:      sim.ScaledConfig(*quick, *tiny),
		Workers:         *workers,
		RunJobs:         *jobs,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
	}
	if *storeDir != "" {
		st, err := resultstore.Open(*storeDir, resultstore.Options{MaxBytes: *storeMax})
		if err != nil {
			fmt.Fprintf(os.Stderr, "latteccd: opening result store: %v\n", err)
			os.Exit(2)
		}
		srvCfg.Store = st
		if *join != "" {
			// Clustered and stored: rescue local misses from every other
			// registered worker's store before simulating.
			srvCfg.Peers = server.RouterPeers(*join, adv)
		}
		c := st.Counters()
		fmt.Fprintf(os.Stderr, "latteccd: result store %s (%d entries, %d bytes)\n",
			*storeDir, c.Entries, c.Bytes)
	}
	srv := server.New(srvCfg)

	// Cluster membership: announce this worker to the router and keep
	// heartbeating. The router that is not up yet is retried forever —
	// worker and router start order is deliberately free.
	shutdown := srv.Shutdown
	if *join != "" {
		registrar, err := server.StartRegistrar(*join, adv, *heartbeat, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "latteccd: %v\n", err)
			os.Exit(2)
		}
		shutdown = func(ctx context.Context) error {
			// Deregister first so the router reroutes new jobs immediately
			// instead of noticing the drain at its next health probe.
			registrar.Stop(ctx)
			return srv.Shutdown(ctx)
		}
	}

	fmt.Fprintf(os.Stderr, "latteccd: serving on %s (workers=%d queue=%d)\n", *addr, *workers, *queue)
	os.Exit(server.Serve("latteccd", *addr, srv.Handler(), *drain, shutdown))
}
