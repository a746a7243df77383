// Cross-package facts: the module-wide layer under the partsafe and
// bindcheck analyzers.
//
// The per-package analyzers (detclock, mapiter, nilrecorder) are
// syntactic: everything they need is visible
// in one type-checked package. The invariants the parallel engine
// (DESIGN.md §11) and the goroutine-bound run scope (§10, §12) introduced
// are not package-local — whether a function runs inside partitioned
// dispatch, or whether a spawned goroutine eventually builds an engine,
// depends on callers and callees in other packages.
//
// The Module bridges that gap. Built once per Run over every loaded
// package in dependency order (the same `go list -deps` order Load already
// computes), it exports one FuncFacts summary per function body — static
// callees, contained function literals, function values handed to the
// engine's dispatch APIs, `go` launch sites, package-level-variable
// writes, and whether the body binds the run scope or creates an engine.
// Downstream packages' analyses import those facts through Pass.Module: a
// lightweight static call graph, in the x/tools facts spirit, with no
// dependency outside the standard library.
//
// The graph is deliberately conservative in both directions and the
// analyzers that consume it document which way they lean:
//
//   - Calls resolve only static callees (declared functions and methods).
//     A function value stored in a variable, field, or parameter is lost,
//     so reachability under-approximates dynamic behavior.
//   - A function literal is treated as callable by its enclosing function
//     (a containment edge), which over-approximates: the literal might
//     never run.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// A NodeID names one function body in the module: types.Func.FullName for
// declared functions and methods (stable across the packages that mention
// them), or a position-derived id for function literals.
type NodeID string

// GoSite is one `go` statement: where it is, and the node it launches
// (empty when the launched expression is not statically resolvable, e.g. a
// function value from a variable).
type GoSite struct {
	Pos, End token.Pos
	Target   NodeID
}

// GlobalWrite is one assignment whose left-hand side is rooted at a
// package-level variable: `v = x`, `v.f = x`, `v[k] = x`, `v++`,
// `delete(v, k)` all count, through any chain of selectors and indexes.
type GlobalWrite struct {
	Pos, End token.Pos
	// Name is the written variable, package-qualified for diagnostics.
	Name string
}

// FuncFacts is the exported per-function summary.
type FuncFacts struct {
	ID  NodeID
	Pkg string // import path of the owning package
	// Name is a human-readable label ("(*Engine).SendTo", "func@file:3:9").
	Name string
	Pos  token.Pos

	// Calls lists static callees; Contains lists function literals defined
	// inside this body. Together they are the call-graph edges.
	Calls    []NodeID
	Contains []NodeID

	// DispatchArgs are the function values this body hands to the sim
	// engine's dispatch surface (Go/GoOn/At/After/SendTo and the
	// process-lifecycle tap): the roots of partitioned-dispatch
	// reachability.
	DispatchArgs []NodeID
	// GoSites are the `go` statements launched from this body.
	GoSites []GoSite
	// GlobalWrites are the package-level-variable writes in this body.
	GlobalWrites []GlobalWrite

	// BindsScope reports that the body binds the goroutine's run scope: a
	// call to sim.CollectStats, sim.WithTelemetry or telemetry.Collect
	// (which wraps sim.WithTelemetry, so the bind is seen even when
	// telemetry's body is not loaded), or to the bind function returned
	// by sim.Inherit.
	BindsScope bool
	// CreatesEngine reports a direct call to sim.NewEngine, the one point
	// where a goroutine's run scope is read.
	CreatesEngine bool
}

// Module is the cross-package fact base handed to every Pass.
type Module struct {
	// Pkgs holds the loaded packages in dependency order: every package
	// appears after the packages it imports (among those loaded).
	Pkgs []*Package

	// Funcs maps every function body in the loaded packages to its facts.
	Funcs map[NodeID]*FuncFacts

	byPkg map[string][]NodeID

	reachOnce     sync.Once
	dispatchReach map[NodeID]bool
}

// NewModule builds the fact base over the given packages: sorts them into
// dependency order, then walks each package's functions exporting their
// FuncFacts. The result is shared by every analyzer in one Run.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:  depOrder(pkgs),
		Funcs: map[NodeID]*FuncFacts{},
		byPkg: map[string][]NodeID{},
	}
	for _, pkg := range m.Pkgs {
		m.factPackage(pkg)
	}
	return m
}

// depOrder sorts packages so imports precede importers (among the loaded
// set), with import-path order breaking ties deterministically. Facts are
// exported in this order, so by the time a package is walked, every
// package it imports has already published its summaries.
func depOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	out := make([]*Package, 0, len(pkgs))
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		switch state[p.ImportPath] {
		case 1, 2:
			return // cycle (impossible in valid Go) or done
		}
		state[p.ImportPath] = 1
		imps := p.Pkg.Imports()
		paths := make([]string, 0, len(imps))
		for _, imp := range imps {
			paths = append(paths, imp.Path())
		}
		sort.Strings(paths)
		for _, path := range paths {
			if dep, ok := byPath[path]; ok {
				visit(dep)
			}
		}
		state[p.ImportPath] = 2
		out = append(out, p)
	}
	for _, p := range sorted {
		visit(p)
	}
	return out
}

// FuncsOf returns the fact IDs exported by one package, in source order.
func (m *Module) FuncsOf(importPath string) []NodeID {
	return m.byPkg[importPath]
}

// dispatchAPIs is the sim engine surface whose function arguments execute
// inside partitioned dispatch: spawned process bodies, scheduled
// callbacks, cross-partition messages, and the process-lifecycle tap the
// engine invokes while dispatching. The surface lives on two receivers:
// Engine (the ambient forms) and Proc (SendTo, which sends from the
// process's own partition).
var dispatchAPIs = map[string]bool{
	"Go": true, "GoOn": true,
	"At": true, "After": true, "SendTo": true,
	"SetProcTap": true,
}

// funcID returns the NodeID for a declared function or method.
func funcID(fn *types.Func) NodeID { return NodeID(fn.FullName()) }

// litID returns the position-derived NodeID for a function literal.
func litID(fset *token.FileSet, lit *ast.FuncLit) NodeID {
	return NodeID("func@" + fset.Position(lit.Pos()).String())
}

// factPackage walks one package's files and exports a FuncFacts per
// function body.
func (m *Module) factPackage(pkg *Package) {
	bindVars := collectBindVars(pkg)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				ff := m.newFacts(funcID(obj), pkg, displayName(obj), d.Name.Pos())
				m.walkBody(pkg, bindVars, ff, d.Body)
			case *ast.GenDecl:
				// Function literals in package-level var initializers get
				// their own nodes (no containing function).
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						ff := m.newFacts(litID(pkg.Fset, lit), pkg, string(litID(pkg.Fset, lit)), lit.Pos())
						m.walkBody(pkg, bindVars, ff, lit.Body)
						return false
					}
					return true
				})
			}
		}
	}
}

func (m *Module) newFacts(id NodeID, pkg *Package, name string, pos token.Pos) *FuncFacts {
	ff := &FuncFacts{ID: id, Pkg: pkg.ImportPath, Name: name, Pos: pos}
	m.Funcs[id] = ff
	m.byPkg[pkg.ImportPath] = append(m.byPkg[pkg.ImportPath], id)
	return ff
}

// displayName renders a concise label for diagnostics: method receivers
// keep their type, package qualifiers are dropped.
func displayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "(" + types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" }) + ")." + fn.Name()
	}
	return fn.Name()
}

// collectBindVars finds variables assigned from sim.Inherit() anywhere in
// the package: invoking such a variable is the worker-pool bind idiom
// (`bind := sim.Inherit(); go func() { detach := bind(); ... }`).
func collectBindVars(pkg *Package) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isInherit(pkg.TypesInfo, call) {
				return true
			}
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if obj := pkg.TypesInfo.Defs[id]; obj != nil {
					out[obj] = true
				} else if obj := pkg.TypesInfo.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
			return true
		})
	}
	return out
}

// isInherit reports whether call is sim.Inherit(), whose result is a bind
// function.
func isInherit(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == "sim" && fn.Name() == "Inherit"
}

// calleeFunc resolves a call's static callee to its types.Func, or nil
// for builtins, conversions, and dynamic function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// walkBody visits one function body, exporting facts to ff and creating
// separate nodes (with containment edges) for nested function literals.
func (m *Module) walkBody(pkg *Package, bindVars map[types.Object]bool, ff *FuncFacts, body *ast.BlockStmt) {
	info := pkg.TypesInfo
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			id := litID(pkg.Fset, s)
			ff.Contains = append(ff.Contains, id)
			sub := m.newFacts(id, pkg, string(id), s.Pos())
			m.walkBody(pkg, bindVars, sub, s.Body)
			return false
		case *ast.GoStmt:
			site := GoSite{Pos: s.Pos(), End: s.Call.End()}
			site.Target = m.launchTarget(pkg, bindVars, ff, s.Call)
			ff.GoSites = append(ff.GoSites, site)
			// The call's arguments still run on the spawning goroutine.
			for _, arg := range s.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.CallExpr:
			m.factCall(pkg, bindVars, ff, s)
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if gw, ok := globalWrite(info, lhs); ok {
					ff.GlobalWrites = append(ff.GlobalWrites, gw)
				}
			}
		case *ast.IncDecStmt:
			if gw, ok := globalWrite(info, s.X); ok {
				gw.Pos, gw.End = s.Pos(), s.End()
				ff.GlobalWrites = append(ff.GlobalWrites, gw)
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// launchTarget resolves the node a `go` statement starts: the literal
// itself, a declared function, or "" when dynamic. A launched literal is
// walked as its own node but is NOT a containment edge of the spawner —
// it runs on a different goroutine, which is exactly the distinction
// bindcheck needs.
func (m *Module) launchTarget(pkg *Package, bindVars map[types.Object]bool, ff *FuncFacts, call *ast.CallExpr) NodeID {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		id := litID(pkg.Fset, lit)
		sub := m.newFacts(id, pkg, string(id), lit.Pos())
		m.walkBody(pkg, bindVars, sub, lit.Body)
		return id
	}
	if fn := calleeFunc(pkg.TypesInfo, call); fn != nil {
		return funcID(fn)
	}
	return ""
}

// factCall exports the facts of one call expression: the call edge, the
// dispatch-argument roots, engine creation, and run-scope binds.
func (m *Module) factCall(pkg *Package, bindVars map[types.Object]bool, ff *FuncFacts, call *ast.CallExpr) {
	info := pkg.TypesInfo

	// Bind-function invocation: `bind()` where bind came from
	// sim.Inherit().
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && bindVars[info.Uses[id]] {
		ff.BindsScope = true
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		// Builtins: delete(m, k) on a package-level map is a write.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, isB := info.Uses[id].(*types.Builtin); isB && b.Name() == "delete" && len(call.Args) > 0 {
				if gw, ok := globalWrite(info, call.Args[0]); ok {
					gw.Pos, gw.End = call.Pos(), call.End()
					ff.GlobalWrites = append(ff.GlobalWrites, gw)
				}
			}
		}
		return
	}
	ff.Calls = append(ff.Calls, funcID(fn))

	if fn.Pkg() != nil && fn.Pkg().Name() == "telemetry" && fn.Name() == "Collect" {
		ff.BindsScope = true
	}
	if fn.Pkg() != nil && fn.Pkg().Name() == "sim" {
		switch fn.Name() {
		case "NewEngine":
			ff.CreatesEngine = true
		case "CollectStats", "WithTelemetry":
			ff.BindsScope = true
		}
		if dispatchAPIs[fn.Name()] && (recvNamed(fn, "Engine") || recvNamed(fn, "Proc")) {
			for _, arg := range call.Args {
				if tv, ok := info.Types[arg]; ok {
					if _, isSig := tv.Type.Underlying().(*types.Signature); !isSig {
						continue
					}
				}
				switch a := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					ff.DispatchArgs = append(ff.DispatchArgs, litID(pkg.Fset, a))
				default:
					if afn := exprFunc(info, a); afn != nil {
						ff.DispatchArgs = append(ff.DispatchArgs, funcID(afn))
					}
				}
			}
		}
	}
}

// recvNamed reports whether fn is a method whose receiver's named type is
// called name.
func recvNamed(fn *types.Func, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedOf(sig.Recv().Type())
	return n != nil && n.Obj().Name() == name
}

// exprFunc resolves an expression used as a value to a declared function
// or method (a method value like `w.run` included), or nil.
func exprFunc(info *types.Info, e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

// globalWrite classifies an lvalue expression: ok when its root resolves
// to a package-level variable.
func globalWrite(info *types.Info, lhs ast.Expr) (GlobalWrite, bool) {
	root := lhs
	for {
		switch x := ast.Unparen(root).(type) {
		case *ast.IndexExpr:
			root = x.X
			continue
		case *ast.StarExpr:
			root = x.X
			continue
		case *ast.SelectorExpr:
			// pkg.Var keeps the selector; v.f recurses to v.
			if id, isID := ast.Unparen(x.X).(*ast.Ident); isID {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					root = x.Sel
					continue
				}
			}
			root = x.X
			continue
		}
		break
	}
	id, ok := ast.Unparen(root).(*ast.Ident)
	if !ok || id.Name == "_" {
		return GlobalWrite{}, false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return GlobalWrite{}, false
	}
	return GlobalWrite{Pos: lhs.Pos(), End: lhs.End(), Name: v.Pkg().Name() + "." + v.Name()}, true
}

// DispatchReachable returns the set of nodes reachable from partitioned
// dispatch: every function value handed to the engine's dispatch surface,
// closed over call and containment edges. Computed once per Module.
func (m *Module) DispatchReachable() map[NodeID]bool {
	m.reachOnce.Do(func() {
		var seeds []NodeID
		for _, ff := range m.Funcs {
			seeds = append(seeds, ff.DispatchArgs...)
		}
		// The closure is order-independent, but keep the worklist
		// deterministic anyway (and mapiter-clean).
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		m.dispatchReach = m.closure(seeds)
	})
	return m.dispatchReach
}

// Reach returns the closure of call + containment edges from one node
// (the node itself included).
func (m *Module) Reach(start NodeID) map[NodeID]bool {
	return m.closure([]NodeID{start})
}

func (m *Module) closure(seeds []NodeID) map[NodeID]bool {
	seen := map[NodeID]bool{}
	queue := append([]NodeID(nil), seeds...)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		ff, ok := m.Funcs[id]
		if !ok {
			continue // callee outside the loaded source set (stdlib, export data)
		}
		queue = append(queue, ff.Calls...)
		queue = append(queue, ff.Contains...)
	}
	return seen
}

// directiveLines returns, per filename, the set of lines carrying the
// given //armvirt: directive in the pass's files. Analyzers use it for
// line-scoped escapes (a directive on the flagged line or the line above
// suppresses the finding).
func directiveLines(fset *token.FileSet, files []*ast.File, directive string) map[string]map[int]bool {
	want := "//armvirt:" + directive
	out := map[string]map[int]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text != want && !hasPrefixSpace(c.Text, want) {
					continue
				}
				pos := fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = map[int]bool{}
				}
				out[pos.Filename][pos.Line] = true
			}
		}
	}
	return out
}

func hasPrefixSpace(s, prefix string) bool {
	return len(s) > len(prefix) && s[:len(prefix)] == prefix && s[len(prefix)] == ' '
}

// suppressedAt reports whether a directive appears on the position's line
// or the line above it.
func suppressedAt(lines map[string]map[int]bool, pos token.Position) bool {
	fl := lines[pos.Filename]
	return fl != nil && (fl[pos.Line] || fl[pos.Line-1])
}
