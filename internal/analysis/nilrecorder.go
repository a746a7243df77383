// nilrecorder: enforce the nil-recorder zero-cost idiom on both sides of
// the obs.Recorder and telemetry.Sampler APIs.
//
// A nil *obs.Recorder is a valid recorder that records nothing, and a nil
// *telemetry.Sampler is a valid sampler that samples nothing, so
// instrumentation hooks stay in place at zero cost when observability is
// off. That contract has two halves:
//
//  1. Definition side: every exported pointer-receiver method on
//     obs.Recorder or telemetry.Sampler — and on any type that embeds
//     one — must begin with the nil-receiver guard
//     (`if r == nil { return ... }`, optionally with extra ||-joined
//     cheap conditions), so calling through a nil receiver can never
//     dereference it.
//  2. Call side: the guard only makes the *call* free; arguments are
//     evaluated before the callee runs. A composite literal or
//     fmt.Sprintf argument allocates on every call even when the
//     recorder is nil, which is exactly the hot-path cost the idiom
//     exists to avoid. Such arguments must be precomputed once, derived
//     without allocating, or the call site guarded.
package analysis

import (
	"go/ast"
	"go/types"
)

// Nilrecorder is the nil-recorder idiom analyzer.
var Nilrecorder = &Analyzer{
	Name: "nilrecorder",
	Doc: "exported obs.Recorder and telemetry.Sampler methods must open with the nil-receiver guard, and " +
		"their call sites must not allocate arguments (composite literals, fmt.Sprintf)",
	Run: runNilrecorder,
}

func runNilrecorder(pass *Pass) error {
	checkRecorderMethods(pass)
	checkRecorderCallSites(pass)
	return nil
}

// guardKind classifies a type under the nil-is-a-no-op contract:
// "recorder" for *obs.Recorder (or a struct embedding one), "sampler" for
// *telemetry.Sampler (or an embedder), "" for everything else.
func guardKind(t types.Type) string {
	if isRecorderType(t) {
		return "recorder"
	}
	if isSamplerType(t) {
		return "sampler"
	}
	n := namedOf(t)
	if n == nil {
		return ""
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Anonymous() {
			continue
		}
		if isRecorderType(f.Type()) {
			return "recorder"
		}
		if isSamplerType(f.Type()) {
			return "sampler"
		}
	}
	return ""
}

// guardTypeName is the qualified type name used in call-site diagnostics.
func guardTypeName(kind string) string {
	if kind == "sampler" {
		return "(*telemetry.Sampler)"
	}
	return "(*obs.Recorder)"
}

func checkRecorderMethods(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) == 0 || !fn.Name.IsExported() {
				continue
			}
			recvField := fn.Recv.List[0]
			if len(recvField.Names) == 0 {
				continue // unnamed receiver: cannot be dereferenced by name
			}
			recvName := recvField.Names[0].Name
			if recvName == "_" {
				continue
			}
			rt := pass.TypesInfo.TypeOf(recvField.Type)
			if rt == nil {
				continue
			}
			if _, isPtr := types.Unalias(rt).(*types.Pointer); !isPtr {
				continue // value receivers cannot be nil
			}
			kind := guardKind(rt)
			if kind == "" {
				continue
			}
			if fn.Body == nil || !startsWithNilGuard(fn.Body, recvName) {
				pass.Reportf(fn.Name.Pos(),
					"exported %s method %s must begin with the nil-receiver guard `if %s == nil { return ... }` so a nil %s stays a free no-op",
					kind, fn.Name.Name, recvName, kind)
			}
		}
	}
}

// startsWithNilGuard reports whether the body's first statement is an if
// whose condition contains `recv == nil` as one of its ||-joined operands
// and whose body is just a return.
func startsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil || ifs.Else != nil {
		return false
	}
	if len(ifs.Body.List) != 1 {
		return false
	}
	if _, isRet := ifs.Body.List[0].(*ast.ReturnStmt); !isRet {
		return false
	}
	return condHasNilCheck(ifs.Cond, recv)
}

// condHasNilCheck looks for `recv == nil` among the operands of a
// ||-joined condition.
func condHasNilCheck(cond ast.Expr, recv string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op.String() {
		case "||":
			return condHasNilCheck(e.X, recv) || condHasNilCheck(e.Y, recv)
		case "==":
			return isIdentNamed(e.X, recv) && isNilIdent(e.Y) ||
				isIdentNamed(e.Y, recv) && isNilIdent(e.X)
		}
	}
	return false
}

func isIdentNamed(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

func isNilIdent(e ast.Expr) bool { return isIdentNamed(e, "nil") }

func checkRecorderCallSites(pass *Pass) {
	for _, f := range pass.Files {
		walkGuarded(pass, f, map[string]bool{})
	}
}

// walkGuarded descends the AST tracking which expressions are lexically
// known non-nil (the then-branch of `if x != nil`, possibly &&-joined).
// A recorder call under such a guard for its own receiver is the blessed
// remediation shape, so its arguments may allocate freely.
func walkGuarded(pass *Pass, n ast.Node, guarded map[string]bool) {
	if ifs, ok := n.(*ast.IfStmt); ok {
		if ifs.Init != nil {
			walkGuarded(pass, ifs.Init, guarded)
		}
		walkGuarded(pass, ifs.Cond, guarded)
		inner := guarded
		if exprs := nonNilConjuncts(ifs.Cond); len(exprs) > 0 {
			inner = make(map[string]bool, len(guarded)+len(exprs))
			for k := range guarded {
				inner[k] = true
			}
			for _, e := range exprs {
				inner[types.ExprString(e)] = true
			}
		}
		walkGuarded(pass, ifs.Body, inner)
		if ifs.Else != nil {
			walkGuarded(pass, ifs.Else, guarded)
		}
		return
	}
	if call, ok := n.(*ast.CallExpr); ok {
		// Only exported methods are entry points whose arguments evaluate
		// before any guard: unexported helpers run behind a guarded
		// exported method by construction.
		if recv, sel, ok := isMethodCall(pass.TypesInfo, call); ok &&
			sel.Obj().Exported() &&
			!guarded[types.ExprString(ast.Unparen(recv))] {
			rt := pass.TypesInfo.TypeOf(recv)
			var kind string
			switch {
			case isRecorderType(rt):
				kind = "recorder"
			case isSamplerType(rt):
				kind = "sampler"
			}
			if kind != "" {
				for _, arg := range call.Args {
					if why := allocatingArg(pass, arg); why != "" {
						pass.Reportf(arg.Pos(),
							"%s argument to %s.%s allocates before the nil guard can run; precompute it or guard the call with a %s != nil check",
							why, guardTypeName(kind), sel.Obj().Name(), kind)
					}
				}
			}
		}
	}
	// Generic descent for everything that is not an if statement.
	ast.Inspect(n, func(child ast.Node) bool {
		if child == n || child == nil {
			return child == n
		}
		switch child.(type) {
		case *ast.IfStmt, *ast.CallExpr:
			walkGuarded(pass, child, guarded)
			return false
		}
		return true
	})
}

// nonNilConjuncts extracts the expressions proven non-nil by a condition:
// the `x != nil` operands of an &&-joined chain.
func nonNilConjuncts(cond ast.Expr) []ast.Expr {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op.String() {
		case "&&":
			return append(nonNilConjuncts(e.X), nonNilConjuncts(e.Y)...)
		case "!=":
			if isNilIdent(e.Y) {
				return []ast.Expr{ast.Unparen(e.X)}
			}
			if isNilIdent(e.X) {
				return []ast.Expr{ast.Unparen(e.Y)}
			}
		}
	}
	return nil
}

// allocatingArg classifies arguments that allocate eagerly at a recorder
// call site; "" means the argument is fine.
func allocatingArg(pass *Pass, arg ast.Expr) string {
	switch e := ast.Unparen(arg).(type) {
	case *ast.CompositeLit:
		return "composite-literal"
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			if _, isLit := ast.Unparen(e.X).(*ast.CompositeLit); isLit {
				return "composite-literal"
			}
		}
	case *ast.CallExpr:
		if path, name, ok := pkgFunc(pass.TypesInfo, e.Fun); ok && path == "fmt" &&
			(name == "Sprintf" || name == "Sprint" || name == "Sprintln") {
			return "fmt." + name
		}
	}
	return ""
}
