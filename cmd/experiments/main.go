// Command experiments regenerates every table and figure of the LATTE-CC
// paper's evaluation on the synthetic benchmark suite. See DESIGN.md for
// the experiment index and EXPERIMENTS.md for recorded paper-vs-measured
// comparisons.
//
// Runs are enumerated up front and drained through the harness's
// parallel pool (-jobs workers, single-flight deduplicated), then
// rendered serially from the cache — output is byte-identical for any
// -jobs value.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig11            # one experiment
//	experiments -all                  # everything, paper order
//	experiments -all -jobs 8 -v       # parallel, with progress/ETA
//	experiments -exp fig11 -quick     # smaller machine for a fast pass
//	experiments -all -store .rcache   # persist results; reruns load from disk
//	experiments -all -tiny -golden testdata/golden_tiny.txt           # CI gate
//	experiments -all -tiny -golden testdata/golden_tiny.txt -update   # regenerate
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"lattecc/internal/harness"
	"lattecc/internal/resultstore"
	"lattecc/internal/sim"
	"lattecc/internal/tracefile"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		exp      = flag.String("exp", "", "experiment id to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "use a smaller GPU (2 SMs) for a fast smoke pass")
		tiny     = flag.Bool("tiny", false, "use the CI golden-gate machine (2 SMs, 120k-instruction cap)")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent simulations (must be >= 1)")
		verbose  = flag.Bool("v", false, "print per-run progress with ETA (stderr)")
		csv      = flag.Bool("csv", false, "emit machine-readable CSV instead of aligned tables")
		hashes   = flag.Bool("hashes", false, "print per-run StateHash lines instead of tables (daemon parity checks)")
		golden   = flag.String("golden", "", "compare the rendered text output against this golden file")
		update   = flag.Bool("update", false, "with -golden: rewrite the golden file instead of comparing")
		store    = flag.String("store", "", "persistent result-store directory: reuse results across invocations (empty = off)")
		traceDir = flag.String("trace-dir", "", "trace-corpus directory: register every <NAME>.lct/<NAME>.json pair as a replay workload")
	)
	flag.Parse()
	if *traceDir != "" {
		// Registered before the suite exists — the registry contract is
		// startup-only (no lock below the determinism boundary).
		names, err := tracefile.RegisterCorpus(*traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "experiments: trace corpus: %s\n", strings.Join(names, " "))
		}
	}
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -jobs must be >= 1, got %d\n", *jobs)
		os.Exit(2)
	}
	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *golden != "" && *csv {
		fmt.Fprintln(os.Stderr, "experiments: -golden compares text output; drop -csv")
		os.Exit(2)
	}

	suite := harness.NewSuite(sim.ScaledConfig(*quick, *tiny))
	suite.Jobs = *jobs
	if *verbose {
		suite.Reporter = harness.NewProgressReporter(os.Stderr)
	}
	if *store != "" {
		st, err := resultstore.Open(*store, resultstore.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: opening result store: %v\n", err)
			os.Exit(2)
		}
		suite.Store = st
	}

	var selected []harness.Experiment
	switch {
	case *all:
		selected = harness.Experiments()
	case *exp != "":
		e, ok := harness.ExperimentByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		selected = []harness.Experiment{e}
	default:
		flag.Usage()
		os.Exit(2)
	}

	// Pre-submit the union of every selected experiment's run set and
	// drain it through the pool; rendering below then hits the cache.
	for _, e := range selected {
		if e.Runs != nil {
			suite.Prefetch(e.Runs()...)
		}
	}
	if err := suite.RunAll(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	if *hashes {
		if err := printHashes(suite, selected); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var goldenBuf strings.Builder
	for _, e := range selected {
		start := time.Now()
		if *csv {
			if e.Table == nil {
				fmt.Fprintf(os.Stderr, "%s has no tabular form; skipping in CSV mode\n", e.ID)
				continue
			}
			tab, err := e.Table(suite)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Printf("# %s: %s\n%s\n", e.ID, e.Title, tab.CSV())
			continue
		}
		out, err := e.Run(suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		section := fmt.Sprintf("== %s: %s ==\n%s\n", e.ID, e.Title, out)
		if *golden != "" {
			goldenBuf.WriteString(section)
			continue
		}
		fmt.Print(section)
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *golden != "" {
		if err := checkGolden(*golden, goldenBuf.String(), *update); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
}

// printHashes emits one sorted "hash <workload> <policy> <variant>
// 0x<state-hash>" line per distinct run in the selected experiments.
// This is the machine-readable ground truth the latteccd smoke test
// compares daemon results against.
func printHashes(suite *harness.Suite, selected []harness.Experiment) error {
	seen := map[string]bool{}
	var lines []string
	for _, e := range selected {
		if e.Runs == nil {
			continue
		}
		for _, r := range e.Runs() {
			res, err := suite.Run(r.Workload, r.Policy, r.Variant)
			if err != nil {
				return err
			}
			line := fmt.Sprintf("hash %s %s %s 0x%016x", r.Workload, r.Policy, variantTag(r.Variant), res.StateHash())
			if !seen[line] {
				seen[line] = true
				lines = append(lines, line)
			}
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	return nil
}

// variantTag renders a Variant as a stable single token ("-" when zero).
func variantTag(v harness.Variant) string {
	var parts []string
	if v.CapacityOnly {
		parts = append(parts, "cap")
	}
	if v.LatencyOnly {
		parts = append(parts, "lat")
	}
	if v.ExtraHitLatency != 0 {
		parts = append(parts, fmt.Sprintf("xhl=%d", v.ExtraHitLatency))
	}
	if v.SampleSeries {
		parts = append(parts, "series")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ",")
}

// checkGolden compares got against the golden file (or rewrites it when
// update is set). Mismatches report the first differing line so CI logs
// show where determinism drifted.
func checkGolden(path, got string, update bool) error {
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			return err
		}
		fmt.Printf("golden: wrote %s (%d bytes)\n", path, len(got))
		return nil
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading golden file: %w (regenerate with -update)", err)
	}
	if string(want) == got {
		fmt.Printf("golden: OK, output matches %s (%d bytes)\n", path, len(got))
		return nil
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			return fmt.Errorf("output diverges from %s at line %d:\n  golden: %q\n  got:    %q\n(intentional change? regenerate with -update)",
				path, i+1, w, g)
		}
	}
	return fmt.Errorf("output diverges from %s (length %d vs %d)", path, len(want), len(got))
}
