package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lock-order analysis: a lightweight, module-wide call graph over every
// statically resolvable call (direct function calls and concrete method
// calls — interface dispatch is skipped), combined with the per-function
// held-lock scan from lockcontract.go.
//
// For every function we record (a) which package-level locks it
// acquires directly and where, and (b) every call site together with
// the locks held at it. A fixed-point pass then computes each
// function's transitive acquire-set, and an edge L -> M is added to the
// lock-order graph whenever M can be acquired (directly or through a
// callee) while L is held. A cycle in that graph is a potential
// deadlock; holding L while calling code that re-acquires L is a
// potential self-deadlock (for sync.Mutex always, for RWMutex whenever
// a writer is queued between the two acquisitions).
//
// Lock identity is declaration-based ("pkg.Type.field" or "pkg.var"),
// not instance-based: two different Suite values share the id
// lattecc/internal/harness.Suite.mu. That is deliberately conservative
// — a real per-instance ordering scheme (e.g. locking parent before
// child suites) would need an //lint:allow with its justification.

// orderCall is one call site with the locks held when it executes.
type orderCall struct {
	callee string // types.Func FullName
	pos    token.Pos
	held   []string // lock ids held at the call (resolved ones only)
}

// orderAcquire is one direct lock acquisition.
type orderAcquire struct {
	lock string
	pos  token.Pos
	held []string // lock ids already held
}

// fnLockSummary is the per-function slice of the call graph.
type fnLockSummary struct {
	pkg      *Package
	calls    []orderCall
	acquires []orderAcquire
}

// heldIDs extracts the resolved lock ids from a held-state map, sorted
// for determinism.
func heldIDs(held lockState) []string {
	var ids []string
	for _, h := range held {
		if h.id != "" {
			ids = append(ids, h.id)
		}
	}
	sort.Strings(ids)
	return ids
}

// calleeName resolves a call expression to the *types.Func it invokes,
// if that target is statically known and has a body we may have
// summarized. Interface method calls return "".
func calleeName(p *Package, call *ast.CallExpr) string {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := p.Info.Selections[fun]; sel != nil {
			if sel.Kind() != types.MethodVal {
				return ""
			}
			if types.IsInterface(sel.Recv()) {
				return ""
			}
		}
		obj = p.Info.Uses[fun.Sel]
	default:
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	return fn.FullName()
}

// summarizeLocks builds the lock summaries for every function in every
// package. Keys are types.Func full names, which are stable strings
// across the loader's per-package type-check universes.
func summarizeLocks(pkgs []*Package) map[string]*fnLockSummary {
	sums := map[string]*fnLockSummary{}
	for _, p := range pkgs {
		c := collectLockContracts(p)
		for _, file := range p.Files {
			if p.isTestFile(file.Pos()) {
				continue
			}
			for _, fd := range enclosingFuncs(file) {
				if fd.Body == nil {
					continue
				}
				fnObj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sum := &fnLockSummary{pkg: p}
				sc := &lockScanner{p: p, c: c}
				sc.onAcquire = func(id string, pos token.Pos, held lockState) {
					if id == "" {
						return
					}
					ids := heldIDs(held)
					// held already includes the new lock; drop it.
					filtered := ids[:0]
					for _, h := range ids {
						if h != id {
							filtered = append(filtered, h)
						}
					}
					sum.acquires = append(sum.acquires, orderAcquire{lock: id, pos: pos, held: filtered})
				}
				sc.onCall = func(call *ast.CallExpr, held lockState) {
					callee := calleeName(p, call)
					if callee == "" {
						return
					}
					sum.calls = append(sum.calls, orderCall{callee: callee, pos: call.Pos(), held: heldIDs(held)})
				}
				sc.scanBody(fd.Body)
				sums[fnObj.FullName()] = sum
			}
		}
	}
	return sums
}

// checkLockOrder runs the module-wide analysis and reports lock-order
// cycles and potential self-deadlocks.
func checkLockOrder(pkgs []*Package) []Finding {
	sums := summarizeLocks(pkgs)
	if len(sums) == 0 {
		return nil
	}

	// Transitive acquire-sets by fixed point over the call graph.
	acq := map[string]map[string]bool{}
	for name, sum := range sums {
		set := map[string]bool{}
		for _, a := range sum.acquires {
			set[a.lock] = true
		}
		acq[name] = set
	}
	for changed := true; changed; {
		changed = false
		for name, sum := range sums {
			set := acq[name]
			for _, c := range sum.calls {
				for l := range acq[c.callee] {
					if !set[l] {
						set[l] = true
						changed = true
					}
				}
			}
		}
	}

	// Build the lock-order graph and collect self-deadlock witnesses.
	type edgeKey struct{ from, to string }
	edges := map[edgeKey]token.Position{}
	addEdge := func(from, to string, pos token.Position) {
		k := edgeKey{from, to}
		if old, ok := edges[k]; !ok || pos.Filename < old.Filename ||
			(pos.Filename == old.Filename && pos.Line < old.Line) {
			edges[k] = pos
		}
	}
	var out []Finding
	fnNames := make([]string, 0, len(sums))
	for name := range sums {
		fnNames = append(fnNames, name)
	}
	sort.Strings(fnNames)
	for _, name := range fnNames {
		sum := sums[name]
		for _, a := range sum.acquires {
			pos := sum.pkg.Fset.Position(a.pos)
			for _, h := range a.held {
				if h == a.lock {
					continue
				}
				addEdge(h, a.lock, pos)
			}
		}
		for _, c := range sum.calls {
			if len(c.held) == 0 {
				continue
			}
			callee := acq[c.callee]
			if len(callee) == 0 {
				continue
			}
			pos := sum.pkg.Fset.Position(c.pos)
			locks := make([]string, 0, len(callee))
			for l := range callee {
				locks = append(locks, l)
			}
			sort.Strings(locks)
			for _, l := range locks {
				for _, h := range c.held {
					if h == l {
						out = append(out, Finding{
							Pos:  pos,
							Rule: "lock-order",
							Message: fmt.Sprintf("calling %s while holding %s may self-deadlock: the callee acquires the same lock",
								shortFn(c.callee), l),
						})
					} else {
						addEdge(h, l, pos)
					}
				}
			}
		}
	}

	// Cycle detection over the lock-order graph.
	adj := map[string][]string{}
	for k := range edges {
		adj[k.from] = append(adj[k.from], k.to)
	}
	for _, succ := range adj {
		sort.Strings(succ)
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	reported := map[string]bool{}
	var dfs func(n string)
	dfs = func(n string) {
		color[n] = gray
		stack = append(stack, n)
		for _, m := range adj[n] {
			switch color[m] {
			case white:
				dfs(m)
			case gray:
				// Found a cycle: stack suffix from m to n, closed by n->m.
				i := len(stack) - 1
				for i >= 0 && stack[i] != m {
					i--
				}
				cycle := append(append([]string{}, stack[i:]...), m)
				canon := canonicalCycle(cycle)
				if !reported[canon] {
					reported[canon] = true
					pos := edges[edgeKey{n, m}]
					out = append(out, Finding{
						Pos:     pos,
						Rule:    "lock-order",
						Message: fmt.Sprintf("lock acquisition order cycle: %s (closing edge acquired here)", canon),
					})
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range nodes {
		if color[n] == white {
			dfs(n)
		}
	}
	return out
}

// canonicalCycle renders a cycle rotated to start at its smallest lock
// id so the same cycle found from different entry points dedups.
func canonicalCycle(cycle []string) string {
	// cycle is [a b c a]; drop the duplicate tail.
	ring := cycle[:len(cycle)-1]
	min := 0
	for i := range ring {
		if ring[i] < ring[min] {
			min = i
		}
	}
	parts := make([]string, 0, len(ring)+1)
	for i := 0; i <= len(ring); i++ {
		parts = append(parts, ring[(min+i)%len(ring)])
	}
	return strings.Join(parts, " -> ")
}

// shortFn trims the module prefix from a function's full name for
// readable messages.
func shortFn(full string) string {
	return strings.ReplaceAll(full, "lattecc/internal/", "")
}
