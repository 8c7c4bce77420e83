// Command sweep runs a configuration-parameter sweep over selected
// workloads and a policy, emitting one CSV row per point — the tool
// behind the sensitivity studies (Section V-E style).
//
// Usage:
//
//	sweep -param l1_size_bytes -values 8192,16384,32768,49152 -workloads SS,FW -policy LATTE-CC
//	sweep -param decomp_init_interval -values 1,2,4,8,14 -workloads SS -jobs 8
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

// params maps sweepable parameter names to config mutators, under the
// wire's names and units; the last two knobs are sweep's alone.
var params = map[string]struct {
	desc  string
	apply func(cfg *sim.Config, v int)
}{
	"num_sms":              {"number of SMs", func(c *sim.Config, v int) { c.NumSMs = v }},
	"max_warps_per_sm":     {"max warps per SM", func(c *sim.Config, v int) { c.MaxWarpsPerSM = v }},
	"l1_ports":             {"LSU transactions per cycle", func(c *sim.Config, v int) { c.L1Ports = v }},
	"mshrs":                {"outstanding misses per SM", func(c *sim.Config, v int) { c.MSHRs = v }},
	"l1_size_bytes":        {"L1 data cache size in bytes", func(c *sim.Config, v int) { c.Cache.SizeBytes = v }},
	"l2_size_bytes":        {"L2 size in bytes", func(c *sim.Config, v int) { c.Mem.L2SizeBytes = v }},
	"decomp_init_interval": {"decompressor initiation interval (cycles)", func(c *sim.Config, v int) { c.Cache.DecompInitInterval = uint64(v) }},
	"extra_hit_latency":    {"added L1 hit latency (cycles)", func(c *sim.Config, v int) { c.Cache.ExtraHitLatency = uint64(v) }},
}

// parseValues parses a -values list for param, refusing any value that
// does not build a machine (sim.Config.Validate) before the first run.
func parseValues(param, list string) ([]int, error) {
	p, ok := params[param]
	if !ok {
		return nil, fmt.Errorf("unknown parameter %q (use -list-params)", param)
	}
	var vals []int
	for _, f := range strings.Split(list, ",") {
		// Unsigned, so a negative latency cannot wrap into a huge one.
		u, err := strconv.ParseUint(strings.TrimSpace(f), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", f, err)
		}
		v := int(u)
		// A 0 interval is cache.Config's "default 2" under another fingerprint.
		if param == "decomp_init_interval" && v == 0 {
			return nil, fmt.Errorf("-param %s needs values >= 1, got 0", param)
		}
		cfg := sim.DefaultConfig()
		p.apply(&cfg, v)
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("-param %s %d: %v", param, v, err)
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
			fatal(2, err)
		}
	}
	if *jobs < 1 {
		fatal(2, fmt.Errorf("-jobs must be >= 1, got %d", *jobs))
	}
	if *listParams {
		names := make([]string, 0, len(params))
		for n := range params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-22s %s\n", n, params[n].desc)
		}
		return
	}

	vals, err := parseValues(*param, *values)
	if err != nil {
		fatal(2, err)
	}
	p := params[*param]
	for _, v := range vals {
		cfg := sim.DefaultConfig()
		p.apply(&cfg, v)
		if err := harness.CheckPolicy(cfg, harness.Policy(*policyName)); err != nil {
			fatal(2, fmt.Errorf("-param %s %d: %v", *param, v, err))
		}
	}
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
			fatal(2, fmt.Errorf("opening result store: %v", err))
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
		fatal(1, err)
	}

	fmt.Printf("param,value,workload,policy,cycles,ipc,hitrate,speedup\n")
	for i, v := range vals {
		suite := suites[i]
		for _, name := range names {
			base, err := suite.Run(name, harness.Uncompressed, harness.Variant{})
			if err != nil {
				fatal(1, err)
			}
			res, err := suite.Run(name, harness.Policy(*policyName), harness.Variant{})
			if err != nil {
				fatal(1, err)
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

// fatal prints err as sweep's one-line message and exits with code.
func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(code)
}
