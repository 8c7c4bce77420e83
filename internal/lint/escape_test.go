package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseEscapes: only top-level "escapes to heap" / "moved to heap"
// diagnostics count; "does not escape", "leaking param", and indented
// -m=2 flow-detail lines are all excluded.
func TestParseEscapes(t *testing.T) {
	input := strings.Join([]string{
		"internal/compress/bdi.go:120:18: make([]byte, 8) escapes to heap:",
		"internal/compress/bdi.go:120:18:   flow: {heap} = &{storage for make([]byte, 8)}:",
		"internal/compress/bdi.go:120:18:     from make([]byte, 8) (spill) at ./bdi.go:120:18",
		"./internal/compress/fpc.go:60:6: moved to heap: w",
		"internal/compress/fpc.go:58:20: leaking param: line",
		"internal/compress/fpc.go:70:14: words does not escape",
		"# lattecc/internal/compress",
		"internal/compress/sc.go:90:10: \"sc\" escapes to heap",
	}, "\n")
	got, err := ParseEscapes(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("want 3 diagnostics, got %d: %+v", len(got), got)
	}
	if got[0].File != "internal/compress/bdi.go" || got[0].Line != 120 ||
		got[0].Msg != "make([]byte, 8) escapes to heap" {
		t.Errorf("diag 0 = %+v", got[0])
	}
	if got[1].File != "internal/compress/fpc.go" || got[1].Msg != "moved to heap: w" {
		t.Errorf("diag 1 = %+v", got[1])
	}
}

// TestEscapeReportAndDiff: clean and regressed reports render stably
// and DiffReports shows exactly the drifted lines.
func TestEscapeReportAndDiff(t *testing.T) {
	funcs := []HotpathFunc{
		{PkgPath: "lattecc/internal/compress", Name: "(*BDI).Measure", File: "internal/compress/bdi.go", StartLine: 100, EndLine: 140},
		{PkgPath: "lattecc/internal/compress", Name: "(*FPC).Measure", File: "internal/compress/fpc.go", StartLine: 50, EndLine: 80},
	}
	clean := EscapeReport(funcs, nil)
	if !strings.Contains(clean, "lattecc/internal/compress.(*BDI).Measure: clean\n") ||
		!strings.Contains(clean, "lattecc/internal/compress.(*FPC).Measure: clean\n") {
		t.Fatalf("clean report malformed:\n%s", clean)
	}
	if d := DiffReports(clean, clean); d != "" {
		t.Fatalf("identical reports must diff empty, got:\n%s", d)
	}

	regressed := EscapeReport(funcs, []EscapeDiag{
		{File: "internal/compress/bdi.go", Line: 120, Msg: "make([]byte, 8) escapes to heap"},
		{File: "internal/compress/bdi.go", Line: 121, Msg: "make([]byte, 8) escapes to heap"}, // dedups
		{File: "internal/compress/other.go", Line: 120, Msg: "unrelated escapes to heap"},     // wrong file
		{File: "internal/compress/bdi.go", Line: 99, Msg: "outside escapes to heap"},          // outside range
	})
	if !strings.Contains(regressed, "(*BDI).Measure: 1 escape(s)\n    make([]byte, 8) escapes to heap\n") {
		t.Fatalf("regressed report malformed:\n%s", regressed)
	}
	diff := DiffReports(clean, regressed)
	if !strings.Contains(diff, "-lattecc/internal/compress.(*BDI).Measure: clean") ||
		!strings.Contains(diff, "+lattecc/internal/compress.(*BDI).Measure: 1 escape(s)") ||
		strings.Contains(diff, "FPC") {
		t.Fatalf("diff malformed:\n%s", diff)
	}
}

// runEscapeBuild mirrors cmd/lattelint's driver: go build -gcflags=-m=2
// from the module root, diagnostics on stderr. The Go build cache
// replays the full diagnostic stream on cached builds, so this is
// byte-stable across runs.
func runEscapeBuild(t *testing.T, root string, patterns ...string) []EscapeDiag {
	t.Helper()
	args := append([]string{"build", "-gcflags=-m=2"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s failed: %v\n%s", strings.Join(args, " "), err, out)
	}
	diags, err := ParseEscapes(strings.NewReader(string(out)))
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func moduleRootForTest(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestEscapeGateRealTree is the acceptance lock: the committed baseline
// matches a fresh -m=2 run over the annotated packages, and every
// annotated codec/cache/scheduler/memory function in it is clean.
func TestEscapeGateRealTree(t *testing.T) {
	root := moduleRootForTest(t)
	patterns := []string{"./internal/cache", "./internal/compress", "./internal/mem", "./internal/sim"}
	pkgs, err := Load(root, patterns)
	if err != nil {
		t.Fatal(err)
	}
	funcs := HotpathFuncs(pkgs, root)
	if len(funcs) < 8 {
		t.Fatalf("expected the codec/cache hot paths to be annotated, found %d //lint:hotpath functions", len(funcs))
	}
	diags := runEscapeBuild(t, root, patterns...)
	current := EscapeReport(funcs, diags)

	baseline, err := os.ReadFile(filepath.Join("testdata", "escapes_baseline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if diff := DiffReports(string(baseline), current); diff != "" {
		t.Fatalf("escape report drifted from testdata/escapes_baseline.txt:\n%s\nregenerate with: go run ./cmd/lattelint -escape -escape-update", diff)
	}
	for _, l := range strings.Split(current, "\n") {
		if l == "" || strings.HasPrefix(l, "#") || strings.HasPrefix(l, "    ") {
			continue
		}
		if !strings.HasSuffix(l, ": clean") {
			t.Errorf("annotated hot-path function is not escape-free: %s", l)
		}
	}
}

// TestEscapeGateCatchesRegression: the deliberately regressed fixture
// package produces a non-clean report that fails against its clean
// expectation.
func TestEscapeGateCatchesRegression(t *testing.T) {
	root := moduleRootForTest(t)
	pkgs, err := Load(root, []string{"./internal/lint/testdata/escapefixture"})
	if err != nil {
		t.Fatal(err)
	}
	funcs := HotpathFuncs(pkgs, root)
	if len(funcs) != 1 || funcs[0].Name != "Leak" {
		t.Fatalf("fixture should expose exactly Leak, got %+v", funcs)
	}
	diags := runEscapeBuild(t, root, "./internal/lint/testdata/escapefixture")
	report := EscapeReport(funcs, diags)
	if !strings.Contains(report, "Leak: 1 escape(s)") || !strings.Contains(report, "escapes to heap") {
		t.Fatalf("regressed fixture must report its escape, got:\n%s", report)
	}
	clean := EscapeReport(funcs, nil)
	if diff := DiffReports(clean, report); diff == "" {
		t.Fatal("gate must fail the regressed fixture against a clean baseline")
	}
}
