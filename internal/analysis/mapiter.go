// mapiter: flag map iteration whose per-entry results escape into
// order-sensitive sinks without being sorted.
//
// Go randomizes map iteration order per run, so a `for k := range m` that
// appends rows, prints lines, sends on a channel, or returns from inside
// the loop emits output in a different order every execution — precisely
// the class of bug the report-diff and prof-determinism CI gates exist to
// catch at runtime. The blessed shape (bench.PlatformNames, Metrics.Render)
// is collect-then-sort: append the keys or rows to a slice inside the
// loop, then pass that slice to sort.*/slices.Sort* before anything reads
// it.
//
// The analyzer is deliberately structural, not a full dataflow analysis:
//
//   - A range over a map is suspect if its body appends to a variable, or
//     hits a direct emission sink (fmt.Fprint*/Print*, a method named
//     Emit/Push/Enqueue/Send/Publish or a Write*/Fprintf builder method, a
//     channel send, or a return statement).
//   - An append-collecting loop is blessed when some appended-to variable
//     later appears as an argument to a sort.* or slices.Sort* call in the
//     same function.
//   - Direct emission from inside the loop body can never be blessed —
//     the rows have already left in map order.
//
// Commutative aggregation (sum += v, counters, writes into another map,
// delete) has no sink and is never flagged.
package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Mapiter is the map-iteration-order analyzer.
var Mapiter = &Analyzer{
	Name: "mapiter",
	Doc: "flag for-range over maps whose results reach emitted rows, event enqueues, " +
		"or returned slices without passing through sort.*/slices.Sort* in the same function",
	Run: runMapiter,
}

// mapiterEmitters are method names that move a value into an ordered,
// observable stream.
var mapiterEmitters = map[string]bool{
	"Emit": true, "Push": true, "Enqueue": true, "Send": true,
	"Publish": true, "Fprintf": true, "Fprintln": true, "Fprint": true,
	"Printf": true, "Println": true, "Print": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"AddRow": true,
}

func runMapiter(pass *Pass) error {
	funcScopes(pass.Files, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
		runMapiterFunc(pass, body)
	})
	return nil
}

// sortedVars returns the names of variables passed to a sort call anywhere
// in this function scope (not descending into nested function literals).
func sortedVars(pass *Pass, body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	inspectLocal(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		path, name, ok := pkgFunc(pass.TypesInfo, call.Fun)
		if !ok {
			return true
		}
		isSort := path == "sort" || (path == "slices" && strings.HasPrefix(name, "Sort"))
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

func runMapiterFunc(pass *Pass, body *ast.BlockStmt) {
	sorted := sortedVars(pass, body)
	inspectLocal(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := types.Unalias(t).Underlying().(*types.Map); !isMap {
			return true
		}
		appended, direct := mapiterSinks(pass, rng.Body)
		if direct != "" {
			pass.Reportf(rng.Pos(),
				"map iteration order reaches %s; map order is randomized — collect into a slice and sort.*/slices.Sort* it before emitting", direct)
			return true
		}
		blessed := false
		for v := range appended {
			if sorted[v] {
				blessed = true
			}
		}
		if len(appended) > 0 && !blessed {
			pass.Reportf(rng.Pos(),
				"map iteration collects into %s without a sort.*/slices.Sort* call in this function; map order is randomized", joinSorted(appended))
		}
		return true
	})
}

// mapiterSinks scans a range body for order-sensitive escapes: the set of
// variables the body appends to, and (if any) a description of the first
// direct emission sink.
func mapiterSinks(pass *Pass, body *ast.BlockStmt) (appended map[string]bool, direct string) {
	appended = map[string]bool{}
	inspectLocal(body, func(n ast.Node) bool {
		if direct != "" {
			return false
		}
		switch s := n.(type) {
		case *ast.SendStmt:
			direct = "a channel send inside the loop body"
		case *ast.ReturnStmt:
			// Returning constants from inside the loop (`return true` in
			// an existence scan) is order-independent; returning the key,
			// value, or anything derived from them is not.
			for _, res := range s.Results {
				if tv, ok := pass.TypesInfo.Types[res]; ok && tv.Value != nil {
					continue
				}
				if isNilIdent(res) {
					continue
				}
				direct = "a return inside the loop body"
				break
			}
		case *ast.CallExpr:
			switch fn := ast.Unparen(s.Fun).(type) {
			case *ast.Ident:
				if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); isBuiltin && fn.Name == "append" {
					if len(s.Args) > 0 {
						if id, ok := ast.Unparen(s.Args[0]).(*ast.Ident); ok {
							appended[id.Name] = true
						}
					}
				}
			case *ast.SelectorExpr:
				name := fn.Sel.Name
				if path, pname, ok := pkgFunc(pass.TypesInfo, fn); ok {
					if path == "fmt" && (strings.HasPrefix(pname, "Fprint") || strings.HasPrefix(pname, "Print")) {
						direct = "fmt." + pname + " inside the loop body"
					}
					return true
				}
				if mapiterEmitters[name] {
					direct = "a ." + name + " call inside the loop body"
				}
			}
		}
		return true
	})
	return appended, direct
}

// joinSorted renders a name set deterministically for messages.
func joinSorted(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// inspectLocal walks body without descending into nested function
// literals; funcScopes visits those separately, so an analyzer using both
// sees every node exactly once in its owning function's scope.
func inspectLocal(body *ast.BlockStmt, f func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return f(n)
	})
}
