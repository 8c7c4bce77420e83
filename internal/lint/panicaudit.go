package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkPanicAudit flags panic() calls outside construction/validation
// paths. In cycle-level packages a panic on the hot path kills a
// multi-hour sweep; in the harness it hides file-I/O failures the cmd/
// binaries should surface as errors. Panics remain legitimate in:
//
//   - constructors (New*) and deliberate Must* wrappers, where a bad
//     geometry means the experiment itself is misconfigured;
//   - validation helpers (names containing Validate/validate/check),
//     which exist to fail fast on impossible configurations.
func checkPanicAudit(p *Package) []Finding {
	if !cyclePackages[p.PkgPath] && !harnessPackages[p.PkgPath] {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		if p.isTestFile(file.Pos()) {
			continue
		}
		for _, fn := range enclosingFuncs(file) {
			if fn.Body == nil || panicAllowedIn(fn.Name.Name) {
				continue
			}
			name := fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && isBuiltinUse(p, id) {
					out = append(out, Finding{
						Pos:     p.Fset.Position(call.Pos()),
						Rule:    "panic-audit",
						Message: fmt.Sprintf("panic in %s: not a constructor or validation path; return an error instead", name),
					})
				}
				return true
			})
		}
	}
	return out
}

// isBuiltinUse reports whether the identifier resolves to the builtin
// of the same name (and not, say, a local function shadowing it).
func isBuiltinUse(p *Package, id *ast.Ident) bool {
	_, ok := p.Info.Uses[id].(*types.Builtin)
	return ok
}

// panicAllowedIn reports whether a function name marks a path where
// panicking on impossible input is the contract.
func panicAllowedIn(name string) bool {
	if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "Must") {
		return true
	}
	lower := strings.ToLower(name)
	return strings.Contains(lower, "validate") || strings.Contains(lower, "check")
}
