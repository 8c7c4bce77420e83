package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// goroutine-hygiene: the daemon, the router, the harness, and the
// result store own every goroutine the project spawns, and the shutdown
// paths (drain/deadline/SIGTERM in the daemon, pool close in the
// harness) only work if each of them has a bounded lifecycle. The rule
// enforces two properties in the packages of goroutinePackages:
//
//  1. Every `go` statement's target must be resolvable in-package (a
//     function literal, or a same-package function or method found
//     through its types.Func) and its body must contain at least one
//     lifecycle signal: a ctx.Done()/ctx.Err() check, a WaitGroup
//     Done/Wait, a close(), or a channel operation.
//     A goroutine with none of those can neither be told to stop nor
//     observed to finish — exactly the leak -race cannot see.
//
//  2. lostcancel: a context.CancelFunc returned by WithCancel /
//     WithTimeout / WithDeadline must not be dropped (assigned to _) and
//     must be referenced somewhere in the enclosing function.
//
// The lifecycle evidence is syntactic (method names Done/Wait/Err,
// channel sends/receives); lostcancel resolves the constructor to the
// context package.

// goroutinePackages are the packages whose goroutines must be bounded.
var goroutinePackages = map[string]bool{
	"lattecc/internal/server":  true,
	"lattecc/internal/harness": true,
	// The cluster router (PR 8) spawns a health-probe loop and one
	// status watcher per in-flight job; drain only terminates if every
	// one of them has a bounded lifecycle.
	"lattecc/internal/cluster": true,
	// The persistent result store (PR 9) is hit concurrently by every
	// pool worker on a suite miss; its locking is also policed by the
	// lock-contract rule (//lint:mutex nocalls + //lint:guards).
	"lattecc/internal/resultstore": true,
}

func checkGoroutineHygiene(p *Package) []Finding {
	if !goroutinePackages[p.PkgPath] {
		return nil
	}
	var out []Finding
	bodies := funcBodies(p)
	for _, file := range p.Files {
		if p.isTestFile(file.Pos()) {
			continue
		}
		for _, fd := range enclosingFuncs(file) {
			if fd.Body == nil {
				continue
			}
			out = append(out, checkGoStmts(p, bodies, fd)...)
			out = append(out, checkLostCancel(p, fd)...)
		}
	}
	return out
}

// funcBodies indexes the package's function and method bodies by their
// types.Func, so two types' same-named methods stay distinct.
func funcBodies(p *Package) map[*types.Func]*ast.BlockStmt {
	bodies := map[*types.Func]*ast.BlockStmt{}
	for _, file := range p.Files {
		for _, fd := range enclosingFuncs(file) {
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok && fd.Body != nil {
				bodies[fn] = fd.Body
			}
		}
	}
	return bodies
}

func checkGoStmts(p *Package, bodies map[*types.Func]*ast.BlockStmt, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		body := goTargetBody(p, bodies, gs.Call)
		switch {
		case body == nil:
			out = append(out, Finding{
				Pos:  p.Fset.Position(gs.Pos()),
				Rule: "goroutine-hygiene",
				Message: fmt.Sprintf("goroutine target %s is not resolvable in this package; its lifecycle cannot be verified as bounded",
					exprString(gs.Call.Fun)),
			})
		case !boundedLifecycle(body):
			out = append(out, Finding{
				Pos:  p.Fset.Position(gs.Pos()),
				Rule: "goroutine-hygiene",
				Message: fmt.Sprintf("goroutine %s has no bounded lifecycle: no ctx.Done/Err check, WaitGroup Done/Wait, close, or channel operation in its body",
					exprString(gs.Call.Fun)),
			})
		}
		return true
	})
	return out
}

// goTargetBody resolves the spawned callable to a body we can inspect:
// a function literal, or a same-package function or method.
func goTargetBody(p *Package, bodies map[*types.Func]*ast.BlockStmt, call *ast.CallExpr) *ast.BlockStmt {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	// Origin maps a method of an instantiated generic type back to its
	// declaration; functions of other packages are not in bodies.
	if fn, ok := p.Info.Uses[id].(*types.Func); ok {
		return bodies[fn.Origin()]
	}
	return nil
}

// lifecycleMethodNames are method calls accepted as evidence that the
// goroutine participates in a shutdown/completion protocol.
var lifecycleMethodNames = map[string]bool{
	"Done": true, // ctx.Done(), wg.Done()
	"Wait": true, // wg.Wait()
	"Err":  true, // ctx.Err()
}

// boundedLifecycle reports whether a goroutine body shows any lifecycle
// signal. Nested function literals count: the signal is reachable from
// the spawn site.
func boundedLifecycle(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				if lifecycleMethodNames[fun.Sel.Name] {
					found = true
				}
			case *ast.Ident:
				if fun.Name == "close" {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.SendStmt:
			found = true
		case *ast.RangeStmt:
			// for v := range ch receives until the channel closes.
			found = true
		}
		return !found
	})
	return found
}

// cancelFactoryNames are the context constructors that return a
// CancelFunc which must not be lost.
var cancelFactoryNames = map[string]bool{
	"WithCancel":   true,
	"WithTimeout":  true,
	"WithDeadline": true,
}

func checkLostCancel(p *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !cancelFactoryNames[sel.Sel.Name] {
			return true
		}
		if fn, isFn := p.Info.Uses[sel.Sel].(*types.Func); !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		cancel, ok := as.Lhs[1].(*ast.Ident)
		if !ok {
			return true
		}
		if cancel.Name == "_" {
			out = append(out, Finding{
				Pos:     p.Fset.Position(cancel.Pos()),
				Rule:    "goroutine-hygiene",
				Message: fmt.Sprintf("the context.CancelFunc from %s is discarded; the context and its timer leak until the parent is done", sel.Sel.Name),
			})
			return true
		}
		if !cancelUsed(p, fd, cancel) {
			out = append(out, Finding{
				Pos:     p.Fset.Position(cancel.Pos()),
				Rule:    "goroutine-hygiene",
				Message: fmt.Sprintf("%s is never called; defer %s() after %s", cancel.Name, cancel.Name, sel.Sel.Name),
			})
		}
		return true
	})
	return out
}

// cancelUsed reports whether the cancel variable is referenced anywhere
// else in the enclosing function (a defer cancel() or an error-path
// call both count), by object identity.
func cancelUsed(p *Package, fd *ast.FuncDecl, def *ast.Ident) bool {
	obj := types.Object(p.Info.Defs[def])
	if obj == nil {
		obj = p.Info.Uses[def] // plain = assignment to an existing var
	}
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if used {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id == def {
			return true
		}
		used = p.Info.Uses[id] == obj
		return !used
	})
	return used
}
