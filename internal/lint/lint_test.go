package lint

import (
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture parses one testdata file standalone and type-checks it
// under an artificial package path so package-scoped rules fire. The
// optional asName overrides the filename seen by the analyses (used to
// prove _test.go files are skipped).
func loadFixture(t *testing.T, file, pkgPath, asName string) *Package {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Join("testdata", file)
	if asName != "" {
		name = filepath.Join("testdata", asName)
	}
	// Rooted at the module, so a fixture may import its packages.
	im := newModuleImporter("lattecc", filepath.Join("..", ".."))
	f, err := parser.ParseFile(im.fset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := types.Config{Importer: im}
	tpkg, err := cfg.Check(pkgPath, im.fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", file, err)
	}
	return &Package{PkgPath: pkgPath, Fset: im.fset, Files: []*ast.File{f}, Info: info, Types: tpkg}
}

// ruleFindings runs the full driver (including //lint:allow handling)
// and keeps only one rule's findings.
func ruleFindings(p *Package, rule string) []Finding {
	var out []Finding
	for _, f := range Run([]*Package{p}) {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

func TestRulesOnFixtures(t *testing.T) {
	cases := []struct {
		file string
		rule string
		// wantSubstrings must each appear in exactly the flagged
		// messages, in source order; the count doubles as the expected
		// number of findings after suppression.
		wantSubstrings []string
	}{
		{
			file: "determinism_fix.go",
			rule: "determinism",
			wantSubstrings: []string{
				"time.Now",
				"rand.Intn",
				"range over map",
			},
		},
		{
			file: "panicaudit_fix.go",
			rule: "panic-audit",
			wantSubstrings: []string{
				"panic in tick",
				"panic in loadFile",
			},
		},
		{
			file: "configmutation_fix.go",
			rule: "config-mutation",
			wantSubstrings: []string{
				"method resize writes CacheConfig",
				"method replace writes CacheConfig",
				"copies component by value",
				"range copies component",
			},
		},
		{
			file: "statsintegrity_fix.go",
			rule: "stats-integrity",
			wantSubstrings: []string{
				"float accumulation into m.ipc",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			p := loadFixture(t, tc.file, "lattecc/internal/sim", "")
			got := ruleFindings(p, tc.rule)
			if len(got) != len(tc.wantSubstrings) {
				t.Fatalf("want %d findings, got %d:\n%s",
					len(tc.wantSubstrings), len(got), renderAll(got))
			}
			for i, want := range tc.wantSubstrings {
				if !strings.Contains(got[i].Message, want) {
					t.Errorf("finding %d: want message containing %q, got %q", i, want, got[i].Message)
				}
			}
		})
	}
}

func TestAllowSuppressesSameAndPreviousLine(t *testing.T) {
	// Each fixture carries one deliberately suppressed violation; the
	// unsuppressed counts in TestRulesOnFixtures prove they stay
	// hidden. This test pins the mechanism itself: strip the allow
	// comments and the extra findings reappear.
	src, err := os.ReadFile(filepath.Join("testdata", "determinism_fix.go"))
	if err != nil {
		t.Fatal(err)
	}
	stripped := strings.ReplaceAll(string(src), "//lint:allow", "// lint disabled:")
	im := newModuleImporter("lattecc", "unused")
	f, err := parser.ParseFile(im.fset, "testdata/stripped.go", stripped, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := (&types.Config{Importer: im}).Check("lattecc/internal/sim", im.fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	p := &Package{PkgPath: "lattecc/internal/sim", Fset: im.fset, Files: []*ast.File{f}, Info: info, Types: tpkg}
	got := ruleFindings(p, "determinism")
	// 3 unsuppressed + 2 previously allowed (sorted-keys range, same-line time.Now).
	if len(got) != 5 {
		t.Fatalf("stripping //lint:allow should surface 5 findings, got %d:\n%s", len(got), renderAll(got))
	}
}

func TestRulesSkipTestFiles(t *testing.T) {
	p := loadFixture(t, "determinism_fix.go", "lattecc/internal/sim", "determinism_fix_test.go")
	if got := ruleFindings(p, "determinism"); len(got) != 0 {
		t.Fatalf("_test.go files must be exempt, got:\n%s", renderAll(got))
	}
}

func TestRulesScopedToCyclePackages(t *testing.T) {
	// The same violations under a non-cycle-level package path (e.g.
	// cmd/ tooling) are out of scope for determinism and
	// stats-integrity.
	p := loadFixture(t, "determinism_fix.go", "lattecc/cmd/sweep", "")
	if got := ruleFindings(p, "determinism"); len(got) != 0 {
		t.Fatalf("determinism must only police cycle-level packages, got:\n%s", renderAll(got))
	}
	p = loadFixture(t, "statsintegrity_fix.go", "lattecc/cmd/sweep", "")
	if got := ruleFindings(p, "stats-integrity"); len(got) != 0 {
		t.Fatalf("stats-integrity must only police cycle-level packages, got:\n%s", renderAll(got))
	}
}

// loadFixtureParseOnly parses a fixture without type-checking, for
// rules (the boundary-import check) that must fire syntactically. The
// Info maps are present but empty, exactly like a package whose
// imports failed to resolve.
func loadFixtureParseOnly(t *testing.T, file, pkgPath string) *Package {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	im := newModuleImporter("lattecc", "unused")
	f, err := parser.ParseFile(im.fset, filepath.Join("testdata", file), src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	return &Package{PkgPath: pkgPath, Fset: im.fset, Files: []*ast.File{f}, Info: info, Types: types.NewPackage(pkgPath, "fixture")}
}

// TestDeterminismBoundaryImports: a cycle-level package importing the
// serving stack (internal/server, internal/harness, net/http) trips the
// determinism rule — once per banned import, reported syntactically so
// even a package that fails to type-check cannot smuggle the edge in.
func TestDeterminismBoundaryImports(t *testing.T) {
	p := loadFixtureParseOnly(t, "determinism_boundary_fix.go", "lattecc/internal/sim")
	got := checkDeterminism(p)
	want := []string{
		"net/http",
		"lattecc/internal/cluster",
		"lattecc/internal/harness",
		"lattecc/internal/resultstore",
		"lattecc/internal/server",
	}
	if len(got) != len(want) {
		t.Fatalf("want %d boundary findings, got %d:\n%s", len(want), len(got), renderAll(got))
	}
	for i, frag := range want {
		if !strings.Contains(got[i].Message, frag) {
			t.Errorf("finding %d: want message naming %q, got %q", i, frag, got[i].Message)
		}
		if !strings.Contains(got[i].Message, "determinism boundary") {
			t.Errorf("finding %d: message %q does not name the boundary", i, got[i].Message)
		}
	}

	// Same imports under cache (also cycle-level) still fire; under the
	// server's own path they are of course legal.
	if got := checkDeterminism(loadFixtureParseOnly(t, "determinism_boundary_fix.go", "lattecc/internal/cache")); len(got) != len(want) {
		t.Errorf("cache package: want %d findings, got %d", len(want), len(got))
	}
	if got := checkDeterminism(loadFixtureParseOnly(t, "determinism_boundary_fix.go", "lattecc/internal/server")); len(got) != 0 {
		t.Errorf("server package must be above the boundary, got:\n%s", renderAll(got))
	}
}

// TestOracleDeterminismOnlyExemption pins the oracle's lint posture:
// internal/oracle is held to the determinism rules (it sits below the
// boundary so divergences replay from a seed) but not to the
// performance rules — its reference models are deliberately naive and
// panic on internal drift. The same fixture under a cycle-level path
// must additionally trip panic-audit.
func TestOracleDeterminismOnlyExemption(t *testing.T) {
	wantBoundary := []string{
		"net/http",
		"lattecc/internal/cluster",
		"lattecc/internal/harness",
		"lattecc/internal/resultstore",
		"lattecc/internal/server",
	}

	oracle := loadFixture(t, "oracle_exempt_fix.go", "lattecc/internal/oracle", "")
	got := checkDeterminism(oracle)
	if len(got) != len(wantBoundary) {
		t.Fatalf("oracle: want %d boundary findings, got %d:\n%s", len(wantBoundary), len(got), renderAll(got))
	}
	for i, frag := range wantBoundary {
		if !strings.Contains(got[i].Message, frag) {
			t.Errorf("oracle finding %d: want message naming %q, got %q", i, frag, got[i].Message)
		}
	}
	if got := checkPanicAudit(oracle); len(got) != 0 {
		t.Errorf("oracle is exempt from panic-audit, got:\n%s", renderAll(got))
	}
	if got := checkStatsIntegrity(oracle); len(got) != 0 {
		t.Errorf("oracle is exempt from stats-integrity, got:\n%s", renderAll(got))
	}

	// The identical file inside the simulator core is held to both rule
	// families: same three boundary findings plus the hot-path panic.
	sim := loadFixture(t, "oracle_exempt_fix.go", "lattecc/internal/sim", "")
	if got := checkDeterminism(sim); len(got) != len(wantBoundary) {
		t.Errorf("sim: want %d boundary findings, got %d:\n%s", len(wantBoundary), len(got), renderAll(got))
	}
	pa := checkPanicAudit(sim)
	if len(pa) != 1 || !strings.Contains(pa[0].Message, "panic in tick") {
		t.Errorf("sim: want one panic-audit finding in tick, got:\n%s", renderAll(pa))
	}
}

// TestDeterminismConcurrency: a sync import, a go statement, and a
// wall-clock read are findings in every cycle-level package, internal/sim
// included — the simulator ticks its SMs serially, and parallelism lives
// above the boundary, across separate simulations. Above the boundary
// nothing fires.
func TestDeterminismConcurrency(t *testing.T) {
	want := []string{
		"import of sync",
		"go statement",
		"time.Now",
	}
	for _, pkg := range []string{"lattecc/internal/cache", "lattecc/internal/sim"} {
		p := loadFixture(t, "determinism_conc_fix.go", pkg, "")
		got := ruleFindings(p, "determinism")
		if len(got) != len(want) {
			t.Fatalf("%s: want %d findings, got %d:\n%s", pkg, len(want), len(got), renderAll(got))
		}
		for i, frag := range want {
			if !strings.Contains(got[i].Message, frag) {
				t.Errorf("%s finding %d: want message containing %q, got %q", pkg, i, frag, got[i].Message)
			}
		}
	}

	p := loadFixture(t, "determinism_conc_fix.go", "lattecc/internal/harness", "")
	if got := ruleFindings(p, "determinism"); len(got) != 0 {
		t.Fatalf("harness sits above the boundary, got:\n%s", renderAll(got))
	}
}

// TestDeterminismLegalInServer pins the other half of the boundary
// contract: wall-clock reads, global rand, and map iteration — all
// banned below the boundary — produce zero findings under the
// daemon's package path.
func TestDeterminismLegalInServer(t *testing.T) {
	p := loadFixture(t, "determinism_fix.go", "lattecc/internal/server", "")
	if got := ruleFindings(p, "determinism"); len(got) != 0 {
		t.Fatalf("wall-clock/rand/maps are legal in internal/server, got:\n%s", renderAll(got))
	}
}

func TestMissingReasonReported(t *testing.T) {
	src := `package fixture
func f() int {
	//lint:allow determinism
	return 0
}
`
	im := newModuleImporter("lattecc", "unused")
	f, err := parser.ParseFile(im.fset, "testdata/inline.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	p := &Package{PkgPath: "lattecc/internal/sim", Fset: im.fset, Files: []*ast.File{f}}
	got := MissingReasons(p)
	if len(got) != 1 || got[0].Rule != "allow-reason" {
		t.Fatalf("want one allow-reason finding, got %v", got)
	}
}

// TestModuleTreeIsClean is the regression lock for the whole PR: the
// repaired tree must produce zero findings, so any future reintroduction
// of a clock read, hot-path panic, config write, or ad-hoc float
// accumulator fails `go test` as well as CI's lattelint step.
func TestModuleTreeIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loader found only %d packages; module walk is broken", len(pkgs))
	}
	findings := Run(pkgs)
	for _, p := range pkgs {
		findings = append(findings, MissingReasons(p)...)
	}
	if len(findings) != 0 {
		t.Fatalf("module tree has %d lint findings:\n%s", len(findings), renderAll(findings))
	}
}

func renderAll(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	return b.String()
}
