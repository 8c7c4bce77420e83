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

// TestLockContractFixture runs the full driver over the typed fixture:
// seven violations survive suppression, in source order — a lock-free
// map read, a use-after-unlock, a call under a nocalls mutex, a
// partially-released branch merge, a lock-free package-var read, and
// lock-free reads of a generic type's field in its method and on an
// instance.
func TestLockContractFixture(t *testing.T) {
	p := loadFixture(t, "lockcontract_fix.go", "lattecc/internal/sim", "")
	got := ruleFindings(p, "lock-contract")
	want := []string{
		"r.entries is guarded by mu",
		"r.order is guarded by mu",
		"call to r.refresh while holding r.mu",
		"r.entries is guarded by mu",
		"package var table is guarded by tableMu",
		"t.m is guarded by mu",
		"t.m is guarded by mu",
	}
	if len(got) != len(want) {
		t.Fatalf("want %d findings, got %d:\n%s", len(want), len(got), renderAll(got))
	}
	for i, frag := range want {
		if !strings.Contains(got[i].Message, frag) {
			t.Errorf("finding %d: want message containing %q, got %q", i, frag, got[i].Message)
		}
	}

	// Acceptance pin: the seeded violation is reported with exact
	// file:line — the line carrying the "want: r.entries accessed
	// without holding r.mu" marker in the fixture source.
	src, err := os.ReadFile(filepath.Join("testdata", "lockcontract_fix.go"))
	if err != nil {
		t.Fatal(err)
	}
	wantLine := 0
	for i, l := range strings.Split(string(src), "\n") {
		if strings.Contains(l, "// want: r.entries accessed without holding r.mu") {
			wantLine = i + 1
			break
		}
	}
	if wantLine == 0 {
		t.Fatal("fixture lost its want-marker line")
	}
	if got[0].Pos.Line != wantLine || !strings.HasSuffix(got[0].Pos.Filename, "lockcontract_fix.go") {
		t.Errorf("seeded violation reported at %s:%d, want testdata/lockcontract_fix.go:%d",
			got[0].Pos.Filename, got[0].Pos.Line, wantLine)
	}
}

// TestLockContractAllowSuppression: stripping the //lint:allow comment
// surfaces the eighth finding (the racy len read in snapshotLen).
func TestLockContractAllowSuppression(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "lockcontract_fix.go"))
	if err != nil {
		t.Fatal(err)
	}
	stripped := strings.ReplaceAll(string(src), "//lint:allow", "// lint disabled:")
	im := newModuleImporter("lattecc", "unused")
	f, err := parser.ParseFile(im.fset, "testdata/stripped_lock.go", stripped, parser.ParseComments)
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
	if got := ruleFindings(p, "lock-contract"); len(got) != 8 {
		t.Fatalf("stripping //lint:allow should surface 8 findings, got %d:\n%s", len(got), renderAll(got))
	}
}

// TestLockOrderFixture: the opposite-order pair (one side through a
// callee's acquire-set) yields a cycle, and re-acquiring a held lock
// through a call yields a self-deadlock.
func TestLockOrderFixture(t *testing.T) {
	p := loadFixture(t, "lockorder_fix.go", "lattecc/internal/sim", "")
	got := ruleFindings(p, "lock-order")
	if len(got) != 2 {
		t.Fatalf("want 2 findings, got %d:\n%s", len(got), renderAll(got))
	}
	if !strings.Contains(got[0].Message, "lock acquisition order cycle") ||
		!strings.Contains(got[0].Message, "sim.g.a -> lattecc/internal/sim.g.b") {
		t.Errorf("finding 0: want canonical a->b cycle, got %q", got[0].Message)
	}
	if !strings.Contains(got[1].Message, "may self-deadlock") {
		t.Errorf("finding 1: want self-deadlock, got %q", got[1].Message)
	}
}

// TestGoroutineHygieneFixture: two bounded spawns pass; the unbounded
// literal, the unbounded method that shares the drainer's name, the
// unresolvable target, and the dropped CancelFunc are reported; the
// //lint:allow'd fire-and-forget stays quiet.
func TestGoroutineHygieneFixture(t *testing.T) {
	p := loadFixture(t, "goroutine_fix.go", "lattecc/internal/server", "")
	got := ruleFindings(p, "goroutine-hygiene")
	want := []string{
		"goroutine … has no bounded lifecycle",
		"goroutine s.drain has no bounded lifecycle",
		"not resolvable",
		"CancelFunc from WithCancel is discarded",
	}
	if len(got) != len(want) {
		t.Fatalf("want %d findings, got %d:\n%s", len(want), len(got), renderAll(got))
	}
	for i, frag := range want {
		if !strings.Contains(got[i].Message, frag) {
			t.Errorf("finding %d: want message containing %q, got %q", i, frag, got[i].Message)
		}
	}
}

// TestGoroutineHygieneScope: the same spawns outside the policed
// packages are out of scope. Cycle-level packages such as internal/sim
// are not policed here: the determinism rule bans their goroutines
// outright (TestDeterminismConcurrency).
func TestGoroutineHygieneScope(t *testing.T) {
	for _, pkg := range []string{"lattecc/cmd/sweep", "lattecc/internal/sim"} {
		p := loadFixture(t, "goroutine_fix.go", pkg, "")
		if got := ruleFindings(p, "goroutine-hygiene"); len(got) != 0 {
			t.Fatalf("%s: goroutine-hygiene must only police goroutinePackages, got:\n%s", pkg, renderAll(got))
		}
	}
}

// TestHotpathAllocFixture: every allocating construct in the annotated
// function is reported; the append-into-scratch idiom and unannotated
// functions pass; the justified make() is suppressed.
func TestHotpathAllocFixture(t *testing.T) {
	p := loadFixture(t, "hotpath_fix.go", "lattecc/internal/compress", "")
	got := ruleFindings(p, "hotpath-alloc")
	want := []string{
		"make()",
		"slice literal",
		"fmt.Sprintf()",
		"map literal",
		"&entry{...}",
	}
	if len(got) != len(want) {
		t.Fatalf("want %d findings, got %d:\n%s", len(want), len(got), renderAll(got))
	}
	for i, frag := range want {
		if !strings.Contains(got[i].Message, frag) {
			t.Errorf("finding %d: want message containing %q, got %q", i, frag, got[i].Message)
		}
	}
}

// TestGuardsAnnotationValidated: a //lint:guards naming a nonexistent
// mutex is itself a finding — annotations are machine-checked too.
func TestGuardsAnnotationValidated(t *testing.T) {
	src := `package fixture

import "sync"

type s struct {
	mu sync.Mutex
	//lint:guards lock
	data []int
}
`
	im := newModuleImporter("lattecc", "unused")
	f, err := parser.ParseFile(im.fset, "testdata/inline_guards.go", src, parser.ParseComments)
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
	got := checkLockContract(p)
	if len(got) != 1 || !strings.Contains(got[0].Message, `//lint:guards names "lock"`) {
		t.Fatalf("want one bad-annotation finding, got:\n%s", renderAll(got))
	}
}
