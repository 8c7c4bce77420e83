// Command lattesim runs one benchmark under one compression-management
// policy on the simulated GPU and reports performance, cache, memory, and
// energy statistics.
//
// Usage:
//
//	lattesim -workload SS -policy LATTE-CC
//	lattesim -workload FW -policy Static-BDI -sms 8 -l1 48
//	lattesim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lattecc/internal/energy"
	"lattecc/internal/harness"
	"lattecc/internal/modes"
	"lattecc/internal/sim"
	"lattecc/internal/stats"
	"lattecc/internal/tracefile"
	"lattecc/internal/workload"
)

func main() {
	var (
		list         = flag.Bool("list", false, "list workloads and policies")
		workloadName = flag.String("workload", "SS", "benchmark abbreviation (see -list)")
		specFile     = flag.String("spec", "", "run a JSON workload definition instead of a built-in benchmark")
		policyName   = flag.String("policy", "LATTE-CC", "compression policy (see -list)")
		sms          = flag.Int("sms", 0, "override SM count (0: Table II's 15)")
		l1KB         = flag.Int("l1", 0, "override L1 size in KB (0: Table II's 16)")
		capOnly      = flag.Bool("capacity-only", false, "zero decompression latency (Figure 3 study)")
		latOnly      = flag.Bool("latency-only", false, "no capacity benefit (Figure 4 study)")
		extraHit     = flag.Uint64("extra-hit-latency", 0, "added L1 hit latency (Figure 1 study)")
		jsonOut      = flag.Bool("json", false, "emit the full result as JSON")
		traceDir     = flag.String("trace-dir", "", "trace-corpus directory: register every <NAME>.lct/<NAME>.json pair as a replay workload")
	)
	flag.Parse()

	if *traceDir != "" {
		// Startup-only registration, before any suite exists.
		if _, err := tracefile.RegisterCorpus(*traceDir); err != nil {
			fatal(2, err)
		}
	}

	if *list {
		fmt.Println("workloads:", strings.Join(harness.Workloads(), " "))
		fmt.Print("policies: ")
		for _, p := range harness.Policies() {
			fmt.Print(" ", p)
		}
		fmt.Println()
		return
	}

	cfg := sim.DefaultConfig()
	if *sms != 0 {
		cfg.NumSMs = *sms
	}
	if *l1KB != 0 {
		cfg.Cache.SizeBytes = *l1KB * 1024
	}
	if err := cfg.Validate(); err != nil {
		fatal(2, err)
	}
	if err := harness.CheckPolicy(cfg, harness.Policy(*policyName)); err != nil {
		fatal(2, err)
	}
	if *specFile != "" {
		// A spec runs like a built-in: registered under its own name.
		spec, err := workload.LoadSpecFile(*specFile)
		if err == nil {
			err = workload.RegisterExternal(spec)
		}
		if err != nil {
			fatal(1, err)
		}
		*workloadName = spec.Name()
	}
	suite := harness.NewSuite(cfg)
	v := harness.Variant{CapacityOnly: *capOnly, LatencyOnly: *latOnly, ExtraHitLatency: *extraHit}

	start := time.Now()
	res, err := suite.Run(*workloadName, harness.Policy(*policyName), v)
	var base sim.Result
	if err == nil {
		base, err = suite.Run(*workloadName, harness.Uncompressed, harness.Variant{})
	}
	if err != nil {
		fatal(1, err)
	}
	wall := time.Since(start)

	params := energy.DefaultParams()
	eRun := energy.Evaluate(res, params)
	eBase := energy.Evaluate(base, params)

	if *jsonOut {
		out := struct {
			sim.Result
			Speedup          float64          `json:"speedup"`
			NormalizedEnergy float64          `json:"normalizedEnergy"`
			Energy           energy.Breakdown `json:"energy"`
			WallTime         string           `json:"wallTime"`
		}{
			Result:           res,
			Speedup:          float64(base.Cycles) / float64(res.Cycles),
			NormalizedEnergy: energy.Normalized(eRun, eBase),
			Energy:           eRun,
			WallTime:         wall.Round(time.Millisecond).String(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(1, err)
		}
		return
	}

	t := stats.NewTable("metric", "value")
	t.AddRow("workload", res.Workload)
	t.AddRow("policy", res.Policy)
	t.AddRow("cycles", res.Cycles)
	t.AddRow("instructions", res.Instructions)
	t.AddRow("IPC", res.IPC())
	t.AddRow("speedup vs baseline", float64(base.Cycles)/float64(res.Cycles))
	t.AddRow("L1 accesses", res.Cache.Accesses)
	t.AddRow("L1 hit rate", res.Cache.HitRate())
	t.AddRow("L1 miss reduction", 1-float64(res.Cache.Misses)/float64(max(base.Cache.Misses, 1)))
	t.AddRow("avg compression ratio", res.Cache.AvgCompressionRatio())
	t.AddRow("compressed hits", res.Cache.CompressedHits)
	t.AddRow("decompression queue wait", res.Cache.DecompWait)
	t.AddRow("L2 accesses", res.Mem.L2Accesses)
	t.AddRow("DRAM reads", res.Mem.DRAMReads)
	t.AddRow("energy vs baseline", energy.Normalized(eRun, eBase))
	for _, m := range modes.All() {
		t.AddRow(fmt.Sprintf("inserts in %v mode", m), res.Cache.InsertsByMode[m])
	}
	if n := res.ModeEPs[0] + res.ModeEPs[1] + res.ModeEPs[2]; n > 0 {
		for _, m := range modes.All() {
			t.AddRow(fmt.Sprintf("adaptive EPs won by %v", m), res.ModeEPs[m])
		}
		t.AddRow("mode switches", res.Switches)
	}
	t.AddRow("simulation wall time", wall.Round(time.Millisecond).String())
	fmt.Print(t.String())
}

// fatal prints err as lattesim's one-line message and exits with code.
func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "lattesim:", err)
	os.Exit(code)
}
