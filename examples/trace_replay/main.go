// Trace replay: record the L1 access stream of one full simulation, then
// answer "what would policy X have done?" by replaying the trace through
// the compressed cache alone — orders of magnitude faster than
// re-simulating.
//
//	go run ./examples/trace_replay
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"lattecc"
)

func main() {
	cfg := lattecc.DefaultConfig()
	cfg.NumSMs = 4 // keep the recording quick for the example

	// 1. Record: one execution-driven run of BO with tracing on.
	var buf bytes.Buffer
	tw, err := lattecc.NewTraceWriter(&buf, "BO")
	if err != nil {
		log.Fatal(err)
	}
	cfg.Trace = tw
	start := time.Now()
	w, err := lattecc.WorkloadByName("BO")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := lattecc.RunWorkload(cfg, w, lattecc.Uncompressed); err != nil {
		log.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d accesses (%d KB) in %v\n\n",
		tw.Count(), buf.Len()/1024, time.Since(start).Round(time.Millisecond))

	// 2. Replay: the same access stream under every replayable policy
	// (Kernel-OPT needs full simulations, so it is not one of them).
	fmt.Printf("%-13s %9s %8s %10s %9s %8s\n", "policy", "accesses", "hit-rate", "comp-ratio", "evictions", "replay")
	for _, p := range []lattecc.Policy{lattecc.Uncompressed, lattecc.StaticBDI, lattecc.StaticSC, lattecc.LatteCC} {
		r, err := lattecc.NewTraceReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		rep, err := lattecc.ReplayTrace(r, cfg, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13s %9d %8.3f %10.2f %9d %8v\n", p, rep.Cache.Accesses, rep.Cache.HitRate(),
			rep.Cache.AvgCompressionRatio(), rep.Cache.Evictions, time.Since(start).Round(time.Millisecond))
	}
}
