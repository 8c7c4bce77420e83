// Command sweep runs a configuration-parameter sweep over selected
// workloads and a policy, emitting one CSV row per point — the tool
// behind the sensitivity studies (Section V-E style).
//
// Usage:
//
//	sweep -param l1kb -values 8,16,32,48 -workloads SS,FW -policy LATTE-CC
//	sweep -param decomp-ii -values 1,2,4,8,14 -workloads SS -jobs 8
//	sweep -list-params
//
// Every (value, workload) run is enumerated up front and drained
// through one shared worker pool across the per-value suites, then the
// CSV rows print serially from the caches — row order and contents are
// independent of -jobs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"lattecc/internal/harness"
	"lattecc/internal/resultstore"
	"lattecc/internal/sim"
	"lattecc/internal/tracefile"
)

// params maps sweepable parameter names to config mutators. min is the
// smallest value the simulator can be built with; sweep rejects smaller
// ones before the first run.
var params = map[string]struct {
	desc  string
	min   int
	apply func(cfg *sim.Config, v int)
}{
	"sms": {"number of SMs", 1,
		func(c *sim.Config, v int) { c.NumSMs = v }},
	"l1kb": {"L1 data cache size in KB", 1,
		func(c *sim.Config, v int) { c.Cache.SizeBytes = v * 1024 }},
	"l1ports": {"LSU transactions per cycle", 1,
		func(c *sim.Config, v int) { c.L1Ports = v }},
	"mshrs": {"outstanding misses per SM", 1,
		func(c *sim.Config, v int) { c.MSHRs = v }},
	// decomp-ii starts at 1: cache.Config reads 0 as "default 2", so a
	// 0 would simulate the 2 point again under another fingerprint.
	"decomp-ii": {"decompressor initiation interval (cycles)", 1,
		func(c *sim.Config, v int) { c.Cache.DecompInitInterval = uint64(v) }},
	"extra-hit-latency": {"added L1 hit latency (cycles)", 0,
		func(c *sim.Config, v int) { c.Cache.ExtraHitLatency = uint64(v) }},
	"warps": {"max warps per SM", 1,
		func(c *sim.Config, v int) { c.MaxWarpsPerSM = v }},
	"l2kb": {"L2 size in KB", minL2KB(),
		func(c *sim.Config, v int) { c.Mem.L2SizeBytes = v * 1024 }},
}

// minL2KB is the smallest whole-KB L2 holding one set in every bank of
// the default machine.
func minL2KB() int {
	m := sim.DefaultConfig().Mem
	return (m.LineSize*m.L2Ways*m.L2Banks + 1023) / 1024
}

// parseValues parses a -values list for param, rejecting any value below
// the parameter's minimum.
func parseValues(param, list string) ([]int, error) {
	p, ok := params[param]
	if !ok {
		return nil, fmt.Errorf("unknown parameter %q (use -list-params)", param)
	}
	var vals []int
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", f, err)
		}
		if v < p.min {
			return nil, fmt.Errorf("-param %s needs values >= %d, got %d", param, p.min, v)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

func main() {
	var (
		listParams = flag.Bool("list-params", false, "list sweepable parameters")
		param      = flag.String("param", "", "parameter to sweep (see -list-params)")
		values     = flag.String("values", "", "comma-separated integer values")
		workloads  = flag.String("workloads", "SS,FW", "comma-separated benchmark names")
		policyName = flag.String("policy", "LATTE-CC", "policy to measure (speedup vs Uncompressed)")
		jobs       = flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent simulations (must be >= 1)")
		store      = flag.String("store", "", "persistent result-store directory shared by every sweep point (empty = off)")
		traceDir   = flag.String("trace-dir", "", "trace-corpus directory: register every <NAME>.lct/<NAME>.json pair as a replay workload")
	)
	flag.Parse()
	if *traceDir != "" {
		// Startup-only registration, before any suite exists.
		if _, err := tracefile.RegisterCorpus(*traceDir); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(2)
		}
	}
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "sweep: -jobs must be >= 1, got %d\n", *jobs)
		os.Exit(2)
	}
	if *listParams {
		names := make([]string, 0, len(params))
		for n := range params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-18s %s\n", n, params[n].desc)
		}
		return
	}

	vals, err := parseValues(*param, *values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	p := params[*param]
	var names []string
	for _, n := range strings.Split(*workloads, ",") {
		names = append(names, strings.TrimSpace(n))
	}

	// All sweep points share one store: each suite's config fingerprint
	// keys its entries, so points never collide and a repeated sweep (or
	// one overlapping an earlier sweep's points) loads instead of
	// re-simulating.
	var st *resultstore.Store
	if *store != "" {
		var err error
		st, err = resultstore.Open(*store, resultstore.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: opening result store: %v\n", err)
			os.Exit(2)
		}
	}

	// One suite per sweep point; prefetch every (value, workload) pair,
	// then drain them all through a single shared pool.
	suites := make([]*harness.Suite, len(vals))
	for i, v := range vals {
		cfg := sim.DefaultConfig()
		p.apply(&cfg, v)
		suites[i] = harness.NewSuite(cfg)
		if st != nil {
			suites[i].Store = st
		}
		suites[i].Prefetch(append(
			reqsFor(names, harness.Uncompressed),
			reqsFor(names, harness.Policy(*policyName))...)...)
	}
	if err := harness.RunAllSuites(*jobs, suites...); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	fmt.Printf("param,value,workload,policy,cycles,ipc,hitrate,speedup\n")
	for i, v := range vals {
		suite := suites[i]
		for _, name := range names {
			base, err := suite.Run(name, harness.Uncompressed, harness.Variant{})
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				os.Exit(1)
			}
			res, err := suite.Run(name, harness.Policy(*policyName), harness.Variant{})
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				os.Exit(1)
			}
			fmt.Printf("%s,%d,%s,%s,%d,%.4f,%.4f,%.4f\n",
				*param, v, name, *policyName,
				res.Cycles, res.IPC(), res.Cache.HitRate(),
				float64(base.Cycles)/float64(res.Cycles))
		}
	}
}

// reqsFor enumerates names under one policy with the plain variant.
func reqsFor(names []string, p harness.Policy) []harness.RunRequest {
	reqs := make([]harness.RunRequest, len(names))
	for i, n := range names {
		reqs[i] = harness.RunRequest{Workload: n, Policy: p}
	}
	return reqs
}
