// Command lattelint runs LATTE-CC's simulator-aware static analyses
// (package internal/lint) over the module: determinism, panic-audit,
// config-mutation, stats-integrity, lock-contract (with the module-wide
// lock-order companion), goroutine-hygiene, and hotpath-alloc. See
// DESIGN.md § Determinism & verification and § Machine-checked
// concurrency and allocation contracts for what each rule enforces and
// how to suppress a finding with //lint:allow.
//
// Usage:
//
//	lattelint ./...                 # whole module
//	lattelint ./internal/sim        # one package
//	lattelint -rules                # list rules and exit
//
//	lattelint -escape               # escape gate over ./internal/...
//	lattelint -escape -escape-update  # regenerate the baseline
//
// The escape gate compiles the requested packages with
// -gcflags=-m=2, attributes the compiler's heap-escape diagnostics to
// //lint:hotpath functions, and diffs the resulting report against
// internal/lint/testdata/escapes_baseline.txt. -escape-current writes
// the freshly generated report to a file (CI uploads it as an artifact
// on failure).
//
// Exit status is 1 when any finding (or an unjustified //lint:allow, or
// an escape-baseline drift) remains, 0 on a clean tree.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"lattecc/internal/lint"
)

func main() {
	listRules := flag.Bool("rules", false, "list rules and exit")
	escape := flag.Bool("escape", false, "run the -gcflags=-m=2 escape gate instead of the AST rules")
	escapeBaseline := flag.String("escape-baseline", filepath.Join("internal", "lint", "testdata", "escapes_baseline.txt"),
		"baseline report path, relative to the module root")
	escapeUpdate := flag.Bool("escape-update", false, "rewrite the escape baseline instead of diffing against it")
	escapeCurrent := flag.String("escape-current", "", "also write the current escape report to this file")
	flag.Parse()

	if *listRules {
		for _, r := range lint.Rules() {
			fmt.Printf("%-18s %s\n", r.Name, r.Doc)
		}
		return
	}

	patterns := flag.Args()
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lattelint:", err)
		os.Exit(2)
	}

	if *escape {
		os.Exit(runEscapeGate(root, patterns, *escapeBaseline, *escapeUpdate, *escapeCurrent))
	}

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lattelint:", err)
		os.Exit(2)
	}

	findings := lint.Run(pkgs)
	for _, p := range pkgs {
		findings = append(findings, lint.MissingReasons(p)...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "lattelint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// runEscapeGate builds the target packages with escape-analysis
// diagnostics enabled, renders the per-//lint:hotpath-function report,
// and compares (or rewrites) the committed baseline. Returns the
// process exit code.
func runEscapeGate(root string, patterns []string, baselinePath string, update bool, currentPath string) int {
	if len(patterns) == 0 {
		// The annotated hot paths live under internal/; cmd/ binaries
		// are cold by definition.
		patterns = []string{"./internal/cache", "./internal/compress", "./internal/sim"}
	}
	pkgs, err := lint.Load(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lattelint: -escape:", err)
		return 2
	}
	funcs := lint.HotpathFuncs(pkgs, root)
	if len(funcs) == 0 {
		fmt.Fprintln(os.Stderr, "lattelint: -escape: no //lint:hotpath functions in", strings.Join(patterns, " "))
		return 2
	}

	args := append([]string{"build", "-gcflags=-m=2"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lattelint: -escape: go %s failed: %v\n%s", strings.Join(args, " "), err, out)
		return 2
	}
	diags, err := lint.ParseEscapes(strings.NewReader(string(out)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lattelint: -escape:", err)
		return 2
	}
	report := lint.EscapeReport(funcs, diags)

	if currentPath != "" {
		if err := os.WriteFile(currentPath, []byte(report), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lattelint: -escape:", err)
			return 2
		}
	}

	baselineFile := filepath.Join(root, baselinePath)
	if update {
		if err := os.WriteFile(baselineFile, []byte(report), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lattelint: -escape:", err)
			return 2
		}
		fmt.Printf("lattelint: wrote %s (%d hotpath function(s))\n", baselinePath, len(funcs))
		return 0
	}

	baseline, err := os.ReadFile(baselineFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lattelint: -escape: %v (run with -escape-update to create it)\n", err)
		return 2
	}
	if diff := lint.DiffReports(string(baseline), report); diff != "" {
		fmt.Printf("lattelint: escape report drifted from %s:\n%s", baselinePath, diff)
		fmt.Fprintln(os.Stderr, "lattelint: escape gate failed; regenerate with -escape -escape-update if the change is intended")
		return 1
	}
	fmt.Printf("lattelint: escape gate clean (%d hotpath function(s))\n", len(funcs))
	return 0
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}
