// Package analysis is armvirt-vet's static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus a package loader built on
// `go list -export` and the standard library's gc export-data importer.
//
// The module deliberately has no external dependencies, so the framework
// is built only on go/ast, go/types and the go tool itself. The API is
// kept shape-compatible with x/tools so the analyzers could be ported to
// a stock multichecker by swapping the import path.
//
// The suite exists to enforce, at compile time, the invariants the repo's
// determinism story (DESIGN.md §6) otherwise checks only at runtime:
// byte-identical report and profile output across runs and -j levels.
// Three analyzers guard the three ways that property has historically
// been lost: wall-clock or entropy reads inside the simulated world
// (detclock), map-iteration order leaking into emitted rows (mapiter), and
// missing nil-receiver guards or argument allocation defeating the
// nil-recorder zero-cost idiom (nilrecorder). Profiler spans need no
// analyzer: obs.InSpan scopes each one by a closure, so it cannot be left
// open.
//
// Four more analyzers (DESIGN.md §14) work cross-package, over the
// Module fact base built once per Run: partition-dispatch code must not
// write shared package state (partsafe), spawned goroutines that build
// engines must bind the run scope first (bindcheck), the deterministic/wall-clock import DAG is checked
// explicitly (layering), and durability errors in cluster/runlog must
// not be silently dropped (errsink).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis pass and how to run it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package and
// a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is the cross-package fact base shared by every pass in one
	// Run: per-function summaries and the static call graph (facts.go).
	Module *Module
	// Report receives each diagnostic as it is found.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportRange reports a formatted diagnostic covering [pos, end): the end
// position flows into SARIF regions and the JSON end_position field.
func (p *Pass) ReportRange(pos, end token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, End: end, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position (optionally a range) and a
// message. The driver fills in the analyzer name and resolved positions.
type Diagnostic struct {
	Pos token.Pos `json:"-"`
	// End is the exclusive end of the flagged range; token.NoPos (the
	// zero value) means the diagnostic is a point at Pos.
	End      token.Pos `json:"-"`
	Analyzer string    `json:"analyzer"`
	Position string    `json:"position"` // file:line:col, driver-resolved
	// EndPosition is file:line:col of End, empty for point diagnostics.
	EndPosition string `json:"end_position,omitempty"`
	Message     string `json:"message"`

	// pos/end keep the resolved positions structured for the SARIF
	// encoder (region line/column integers).
	pos, end token.Position
}

// Analyzers lists the full suite in stable order: the three per-package
// analyzers, then the four cross-package ones.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Detclock, Mapiter, Nilrecorder,
		Partsafe, Bindcheck, Layering, Errsink,
	}
}

// --- shared AST/type helpers -------------------------------------------------

// pkgFunc resolves a call or selector expression of the form pkg.Name where
// pkg is an imported package, returning the package path and identifier
// name. ok is false for method calls, locals, and non-selector expressions.
func pkgFunc(info *types.Info, e ast.Expr) (path, name string, ok bool) {
	sel, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isMethodCall reports whether call is a method invocation (selection of
// kind MethodVal), and returns the receiver expression.
func isMethodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, sel *types.Selection, ok bool) {
	se, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	s, found := info.Selections[se]
	if !found || s.Kind() != types.MethodVal {
		return nil, nil, false
	}
	return se.X, s, true
}

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isRecorderType reports whether t is (a pointer to) the obs.Recorder
// type: a named type called Recorder whose package is named "obs". The
// name-based match lets analysistest fixtures supply a stand-in obs
// package without importing the real one.
func isRecorderType(t types.Type) bool {
	return isNamedIn(t, "Recorder", "obs")
}

// isSamplerType reports whether t is (a pointer to) the telemetry.Sampler
// type, which carries the same nil-is-a-no-op contract as obs.Recorder.
func isSamplerType(t types.Type) bool {
	return isNamedIn(t, "Sampler", "telemetry")
}

// isNamedIn matches a named type by (type name, package name). The
// name-based match lets analysistest fixtures supply stand-in packages
// without importing the real ones.
func isNamedIn(t types.Type, typeName, pkgName string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Name() != typeName {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Name() == pkgName
}

// hasDirective reports whether any comment in any of the files carries the
// given //armvirt: directive (e.g. "wallclock"). Directives are
// whole-comment matches: "//armvirt:wallclock" optionally followed by a
// space and free-form justification.
func hasDirective(files []*ast.File, directive string) bool {
	want := "//armvirt:" + directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
					return true
				}
			}
		}
	}
	return false
}

// funcScopes yields every function body in the files — declarations and
// literals — with the enclosing *ast.FuncDecl when there is one. Each body
// is visited exactly once; nested literals are reported separately and
// skipped while walking their parent.
func funcScopes(files []*ast.File, visit func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn, fn.Body)
				}
			case *ast.FuncLit:
				visit(nil, fn.Body)
			}
			return true
		})
	}
}
