package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lock-contract turns the prose locking comments in internal/harness and
// internal/server into machine-checked annotations:
//
//	//lint:guards mu      — on a struct field or package var: every read
//	                        or write must happen while mu is held.
//	//lint:mutex nocalls  — on the mutex itself: no function or method
//	                        call may happen while it is held (builtins,
//	                        type conversions, and sync/atomic operations
//	                        are exempt — none of them can block).
//
// The checker is flow-sensitive per function: it tracks the set of held
// mutexes statement by statement, forking the state at branches and
// merging with set-intersection, so the common
//
//	mu.Lock(); if hit { mu.Unlock(); return }; ...; mu.Unlock()
//
// shape is handled precisely. defer mu.Unlock() keeps the lock held to
// the end of the function. Loop bodies are analyzed once with the
// loop-entry state (locks are assumed balanced across iterations), and
// function literals spawned with `go` start with an empty held set.
//
// Identity is intentionally syntactic: the held set is keyed by the
// rendered receiver expression ("s.mu", "srv.admit"), so guarding
// s.results requires a lock of s.mu through the same base expression.
// Aliasing a suite pointer and locking through the alias defeats the
// checker; the repo's style (lock through the receiver) keeps this
// sound in practice.

// lockContracts holds one package's collected annotations.
type lockContracts struct {
	fieldGuard map[types.Object]string // guarded field -> mutex field name
	varGuard   map[types.Object]string // guarded package var -> mutex var name
	nocallsObj map[types.Object]bool   // mutex fields/vars declared nocalls
	errs       []Finding               // malformed/unsatisfiable annotations
}

func (c *lockContracts) empty() bool {
	return len(c.fieldGuard) == 0 && len(c.varGuard) == 0 && len(c.nocallsObj) == 0
}

// directiveArgs extracts the arguments of a "//lint:<name> ..." comment
// from a comment group, e.g. directiveArgs(cg, "guards") -> "mu".
func directiveArgs(cg *ast.CommentGroup, name string) (string, bool) {
	if cg == nil {
		return "", false
	}
	prefix := "//lint:" + name
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, prefix)
		if !ok {
			continue
		}
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue // e.g. //lint:guardsx
		}
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// fieldDirective checks both the doc comment above a field/spec and the
// trailing same-line comment.
func fieldDirective(doc, comment *ast.CommentGroup, name string) (string, bool) {
	if args, ok := directiveArgs(doc, name); ok {
		return args, true
	}
	return directiveArgs(comment, name)
}

// collectLockContracts walks the package's struct types and var blocks
// for //lint:guards and //lint:mutex annotations, validating that every
// named mutex actually exists alongside the guarded declaration.
func collectLockContracts(p *Package) *lockContracts {
	c := &lockContracts{
		fieldGuard: map[types.Object]string{},
		varGuard:   map[types.Object]string{},
		nocallsObj: map[types.Object]bool{},
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.TYPE:
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					c.collectStruct(p, ts.Name.Name, st)
				}
			case token.VAR:
				c.collectVars(p, gd)
			}
		}
	}
	return c
}

func (c *lockContracts) collectStruct(p *Package, typeName string, st *ast.StructType) {
	fields := map[string]bool{}
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			fields[n.Name] = true
		}
	}
	for _, f := range st.Fields.List {
		if mux, ok := fieldDirective(f.Doc, f.Comment, "guards"); ok {
			if mux == "" || !fields[mux] {
				c.errs = append(c.errs, Finding{
					Pos:     p.Fset.Position(f.Pos()),
					Rule:    "lock-contract",
					Message: fmt.Sprintf("//lint:guards names %q, which is not a field of %s", mux, typeName),
				})
			} else {
				for _, n := range f.Names {
					if obj := p.Info.Defs[n]; obj != nil {
						c.fieldGuard[obj] = mux
					}
				}
			}
		}
		if args, ok := fieldDirective(f.Doc, f.Comment, "mutex"); ok {
			if args != "nocalls" {
				c.errs = append(c.errs, Finding{
					Pos:     p.Fset.Position(f.Pos()),
					Rule:    "lock-contract",
					Message: fmt.Sprintf("unknown //lint:mutex flag %q (only \"nocalls\" is defined)", args),
				})
				continue
			}
			for _, n := range f.Names {
				if obj := p.Info.Defs[n]; obj != nil {
					c.nocallsObj[obj] = true
				}
			}
		}
	}
}

func (c *lockContracts) collectVars(p *Package, gd *ast.GenDecl) {
	names := map[string]bool{}
	for _, spec := range gd.Specs {
		if vs, ok := spec.(*ast.ValueSpec); ok {
			for _, n := range vs.Names {
				names[n.Name] = true
			}
		}
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if mux, ok := fieldDirective(vs.Doc, vs.Comment, "guards"); ok {
			if mux == "" || !names[mux] {
				c.errs = append(c.errs, Finding{
					Pos:     p.Fset.Position(vs.Pos()),
					Rule:    "lock-contract",
					Message: fmt.Sprintf("//lint:guards names %q, which is not declared in the same var block", mux),
				})
			} else {
				for _, n := range vs.Names {
					if obj := p.Info.Defs[n]; obj != nil {
						c.varGuard[obj] = mux
					}
				}
			}
		}
		if args, ok := fieldDirective(vs.Doc, vs.Comment, "mutex"); ok {
			if args != "nocalls" {
				c.errs = append(c.errs, Finding{
					Pos:     p.Fset.Position(vs.Pos()),
					Rule:    "lock-contract",
					Message: fmt.Sprintf("unknown //lint:mutex flag %q (only \"nocalls\" is defined)", args),
				})
				continue
			}
			for _, n := range vs.Names {
				if obj := p.Info.Defs[n]; obj != nil {
					c.nocallsObj[obj] = true
				}
			}
		}
	}
}

// heldLock is one mutex currently held on the path being analyzed.
type heldLock struct {
	nocalls bool
	id      string // global id ("pkg.Type.field" / "pkg.var"), "" if unresolved
}

// lockState maps rendered mutex expressions ("s.mu") to held locks.
type lockState map[string]heldLock

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s lockState) replaceWith(o lockState) {
	for k := range s {
		delete(s, k)
	}
	for k, v := range o {
		s[k] = v
	}
}

// intersectAll keeps only locks held on every non-terminated path.
func intersectAll(states []lockState) lockState {
	if len(states) == 0 {
		return lockState{}
	}
	out := states[0].clone()
	for _, st := range states[1:] {
		for k := range out {
			if _, ok := st[k]; !ok {
				delete(out, k)
			}
		}
	}
	return out
}

// checkLockContract is the per-package rule entry point: it validates
// annotations, then scans every non-test function for guarded-field
// accesses outside the lock and for calls made while a nocalls mutex is
// held.
func checkLockContract(p *Package) []Finding {
	c := collectLockContracts(p)
	out := c.errs
	if c.empty() {
		return out
	}
	for _, file := range p.Files {
		if p.isTestFile(file.Pos()) {
			continue
		}
		for _, fd := range enclosingFuncs(file) {
			if fd.Body == nil {
				continue
			}
			out = append(out, scanFuncLockContract(p, c, fd)...)
		}
	}
	return out
}

func scanFuncLockContract(p *Package, c *lockContracts, fd *ast.FuncDecl) []Finding {
	var out []Finding
	seen := map[string]bool{} // "line:message" — dedups x = append(x, ...) double hits
	report := func(f Finding) {
		key := fmt.Sprintf("%s:%d:%s", f.Pos.Filename, f.Pos.Line, f.Message)
		if !seen[key] {
			seen[key] = true
			out = append(out, f)
		}
	}
	sc := &lockScanner{p: p, c: c}
	sc.visit = func(n ast.Node, held lockState) {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			mux, owner, ok := sc.guardOf(n)
			if !ok {
				return
			}
			need := exprString(n.X) + "." + mux
			if _, held := held[need]; !held {
				report(Finding{
					Pos:  p.Fset.Position(n.Pos()),
					Rule: "lock-contract",
					Message: fmt.Sprintf("%s.%s is guarded by %s (//lint:guards) but accessed without holding %s",
						owner, n.Sel.Name, mux, need),
				})
			}
		case *ast.Ident:
			obj := p.Info.Uses[n]
			if obj == nil {
				return
			}
			mux, ok := c.varGuard[obj]
			if !ok {
				return
			}
			if _, held := held[mux]; !held {
				report(Finding{
					Pos:  p.Fset.Position(n.Pos()),
					Rule: "lock-contract",
					Message: fmt.Sprintf("package var %s is guarded by %s (//lint:guards) but accessed without holding it",
						n.Name, mux),
				})
			}
		case *ast.CallExpr:
			var lock string
			for key, h := range held {
				if h.nocalls {
					lock = key
					break
				}
			}
			if lock == "" || sc.exemptCall(n) {
				return
			}
			report(Finding{
				Pos:  p.Fset.Position(n.Pos()),
				Rule: "lock-contract",
				Message: fmt.Sprintf("call to %s while holding %s, which is declared //lint:mutex nocalls",
					exprString(n.Fun), lock),
			})
		}
	}
	sc.scanBody(fd.Body)
	return out
}

// guardOf resolves a selector expression to a guarded field, returning
// the mutex name and a description of the owning type.
func (sc *lockScanner) guardOf(n *ast.SelectorExpr) (mux, owner string, ok bool) {
	sel := sc.p.Info.Selections[n]
	if sel == nil || sel.Kind() != types.FieldVal {
		return "", "", false
	}
	// Origin maps a field of an instantiated generic type (Table[int].m)
	// back to the declared field the annotation was recorded on.
	mux, ok = sc.c.fieldGuard[sel.Obj().(*types.Var).Origin()]
	if !ok {
		return "", "", false
	}
	return mux, exprString(n.X), true
}

// exemptCall reports whether a call is allowed while a nocalls mutex is
// held: builtins, type conversions, and sync/atomic operations cannot
// block, so the critical section stays bounded.
func (sc *lockScanner) exemptCall(call *ast.CallExpr) bool {
	p := sc.p
	// Type conversion, e.g. time.Duration(x).
	if p.Info.Types[call.Fun].IsType() {
		return true
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		_, isBuiltin := p.Info.Uses[fun].(*types.Builtin)
		return isBuiltin
	case *ast.SelectorExpr:
		fn, isFn := p.Info.Uses[fun.Sel].(*types.Func)
		return isFn && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
	}
	return false
}

// lockKind classifies a mutex method call.
type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

// lockScanner walks a function body tracking the held-mutex set.
type lockScanner struct {
	p *Package
	c *lockContracts

	// visit is called on every expression node in evaluation order with
	// the current held set (lock/unlock calls themselves excluded).
	visit func(n ast.Node, held lockState)
	// onAcquire is called when a mutex is locked (id may be "" when the
	// mutex cannot be resolved to a package-level declaration).
	onAcquire func(id string, pos token.Pos, held lockState)
	// onCall is called for every non-lock call expression.
	onCall func(call *ast.CallExpr, held lockState)
	// async suppresses onAcquire/onCall inside go/defer function
	// literals, whose events are not synchronous with the caller.
	async int
}

func (sc *lockScanner) scanBody(body *ast.BlockStmt) {
	sc.block(body.List, lockState{})
}

// block scans a statement list; the returned bool reports whether the
// path terminated (return/panic/branch) before falling off the end.
func (sc *lockScanner) block(list []ast.Stmt, held lockState) bool {
	for _, st := range list {
		if sc.stmt(st, held) {
			return true
		}
	}
	return false
}

func (sc *lockScanner) stmt(st ast.Stmt, held lockState) bool {
	switch st := st.(type) {
	case nil:
		return false
	case *ast.ExprStmt:
		sc.expr(st.X, held)
		return sc.isPanicCall(st.X)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			sc.expr(e, held)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave this block; the path does not fall
		// through to the next statement.
		return true
	case *ast.DeferStmt:
		sc.deferStmt(st, held)
		return false
	case *ast.GoStmt:
		for _, a := range st.Call.Args {
			sc.expr(a, held)
		}
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			sc.async++
			sc.block(fl.Body.List, lockState{})
			sc.async--
		}
		return false
	case *ast.BlockStmt:
		return sc.block(st.List, held)
	case *ast.LabeledStmt:
		return sc.stmt(st.Stmt, held)
	case *ast.IfStmt:
		return sc.ifStmt(st, held)
	case *ast.ForStmt:
		if st.Init != nil {
			sc.stmt(st.Init, held)
		}
		if st.Cond != nil {
			sc.expr(st.Cond, held)
		}
		body := held.clone()
		sc.block(st.Body.List, body)
		if st.Post != nil {
			sc.stmt(st.Post, body)
		}
		return false
	case *ast.RangeStmt:
		sc.expr(st.X, held)
		sc.block(st.Body.List, held.clone())
		return false
	case *ast.SwitchStmt:
		if st.Init != nil {
			sc.stmt(st.Init, held)
		}
		if st.Tag != nil {
			sc.expr(st.Tag, held)
		}
		return sc.caseClauses(st.Body.List, held)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			sc.stmt(st.Init, held)
		}
		sc.stmt(st.Assign, held)
		return sc.caseClauses(st.Body.List, held)
	case *ast.SelectStmt:
		return sc.selectStmt(st, held)
	default:
		// Assign/Decl/IncDec/Send and anything else: scan contained
		// expressions with the current state.
		sc.exprNode(st, held)
		return false
	}
}

func (sc *lockScanner) ifStmt(st *ast.IfStmt, held lockState) bool {
	if st.Init != nil {
		sc.stmt(st.Init, held)
	}
	sc.expr(st.Cond, held)
	thenHeld := held.clone()
	thenTerm := sc.block(st.Body.List, thenHeld)
	elseHeld := held.clone()
	elseTerm := false
	if st.Else != nil {
		elseTerm = sc.stmt(st.Else, elseHeld)
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		held.replaceWith(elseHeld)
	case elseTerm:
		held.replaceWith(thenHeld)
	default:
		held.replaceWith(intersectAll([]lockState{thenHeld, elseHeld}))
	}
	return false
}

// caseClauses merges switch/type-switch case bodies: each runs on a
// copy of the entry state; the post-state is the intersection of every
// non-terminated body (plus the entry state if there is no default).
func (sc *lockScanner) caseClauses(list []ast.Stmt, held lockState) bool {
	var states []lockState
	hasDefault := false
	for _, s := range list {
		cc, ok := s.(*ast.CaseClause)
		if !ok {
			continue
		}
		h := held.clone()
		for _, e := range cc.List {
			sc.expr(e, h)
		}
		if cc.List == nil {
			hasDefault = true
		}
		if !sc.block(cc.Body, h) {
			states = append(states, h)
		}
	}
	if !hasDefault {
		states = append(states, held.clone())
	}
	if len(states) == 0 {
		return true
	}
	held.replaceWith(intersectAll(states))
	return false
}

func (sc *lockScanner) selectStmt(st *ast.SelectStmt, held lockState) bool {
	var states []lockState
	for _, s := range st.Body.List {
		cc, ok := s.(*ast.CommClause)
		if !ok {
			continue
		}
		h := held.clone()
		if cc.Comm != nil {
			sc.stmt(cc.Comm, h)
		}
		if !sc.block(cc.Body, h) {
			states = append(states, h)
		}
	}
	if len(states) == 0 {
		return true
	}
	held.replaceWith(intersectAll(states))
	return false
}

// deferStmt: defer mu.Unlock() keeps the mutex held to the end of the
// function (no state change). Other deferred calls run at exit with
// unknowable held state, so only their arguments are scanned now.
func (sc *lockScanner) deferStmt(st *ast.DeferStmt, held lockState) {
	if _, kind := sc.lockMethod(st.Call); kind != lockNone {
		return
	}
	for _, a := range st.Call.Args {
		sc.expr(a, held)
	}
	if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
		sc.async++
		sc.block(fl.Body.List, lockState{})
		sc.async--
	}
}

// exprNode scans every expression hanging off a statement node.
func (sc *lockScanner) exprNode(n ast.Node, held lockState) {
	ast.Inspect(n, func(child ast.Node) bool {
		if e, ok := child.(ast.Expr); ok {
			sc.expr(e, held)
			return false
		}
		return true
	})
}

// expr walks one expression in pre-order, applying lock transitions and
// invoking the visit callback.
func (sc *lockScanner) expr(e ast.Expr, held lockState) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Immediately-invoked literals are rare; analyzed with a
			// fresh state either way, which is conservative for guards.
			sc.block(n.Body.List, lockState{})
			return false
		case *ast.CallExpr:
			if base, kind := sc.lockMethod(n); kind != lockNone {
				key := exprString(base)
				switch kind {
				case lockAcquire:
					h := sc.resolveMutex(base)
					held[key] = h
					if sc.onAcquire != nil && sc.async == 0 {
						sc.onAcquire(h.id, n.Pos(), held)
					}
				case lockRelease:
					delete(held, key)
				}
				return false
			}
			if sc.visit != nil {
				sc.visit(n, held)
			}
			if sc.onCall != nil && sc.async == 0 {
				sc.onCall(n, held)
			}
			return true
		case *ast.SelectorExpr:
			if sc.visit != nil {
				sc.visit(n, held)
			}
			// Descend into X only: the Sel ident must not be re-checked
			// as a standalone identifier.
			sc.expr(n.X, held)
			return false
		case *ast.Ident:
			if sc.visit != nil {
				sc.visit(n, held)
			}
			return false
		}
		return true
	})
}

// lockMethod recognizes mu.Lock/RLock/Unlock/RUnlock calls: the method
// must come from package sync.
func (sc *lockScanner) lockMethod(call *ast.CallExpr) (ast.Expr, lockKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, lockNone
	}
	var kind lockKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return nil, lockNone
	}
	if fn, isFn := sc.p.Info.Uses[sel.Sel].(*types.Func); !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, lockNone
	}
	return sel.X, kind
}

// resolveMutex identifies the locked mutex: its nocalls flag and a
// package-qualified id for the cross-package lock-order analysis.
func (sc *lockScanner) resolveMutex(base ast.Expr) heldLock {
	p := sc.p
	switch b := base.(type) {
	case *ast.SelectorExpr:
		if sel := p.Info.Selections[b]; sel != nil && sel.Kind() == types.FieldVal {
			obj := sel.Obj().(*types.Var).Origin()
			id := ""
			if named := namedRecvType(sel.Recv()); named != "" {
				id = p.PkgPath + "." + named + "." + obj.Name()
			}
			return heldLock{nocalls: sc.c.nocallsObj[obj], id: id}
		}
	case *ast.Ident:
		obj := p.Info.Uses[b]
		if v, isVar := obj.(*types.Var); isVar && v.Parent() == p.Types.Scope() {
			return heldLock{nocalls: sc.c.nocallsObj[obj], id: p.PkgPath + "." + v.Name()}
		}
		return heldLock{nocalls: sc.c.nocallsObj[obj]}
	}
	return heldLock{}
}

// namedRecvType renders the defining type name of a field selection's
// receiver ("Server" for s.mu where s is a *Server).
func namedRecvType(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		default:
			return ""
		}
	}
}

// isPanicCall reports whether an expression statement is a panic(...),
// which terminates the path like a return.
func (sc *lockScanner) isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := sc.p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}
