// Package hotalloc implements the declint analyzer that keeps the model
// packages' per-cycle paths allocation-free. Functions marked with a
// `// declint:hotpath` line in their doc comment are hot roots; every
// function they reach through intra-package static calls is hot too,
// except calls made on error paths (inside panic arguments, fmt.Errorf
// arguments, returns of error-returning functions, or assignments to
// error variables) and String methods — those run once per failure or
// per report, not once per cycle.
//
// Inside a hot function the analyzer flags the allocation shapes that
// dominate the simulator's profiles:
//
//   - slice and map composite literals, and pointer composite literals
//     (&T{...}) of any kind — value struct and array literals are stack
//     material and stay legal;
//   - append to anything that is not a reused scratch slice: allowed
//     targets are struct fields (m.drains), function parameters (the
//     route(ps []push) idiom) and locals resliced from one of those
//     (ps := m.psScratch[:0]);
//   - fmt calls and non-constant string concatenation off the error
//     paths — formatting allocates, so it stays behind failures;
//   - function literals inside loops that capture surrounding state:
//     each iteration allocates a fresh closure;
//   - defer statements outside an if: a hot function defers only behind
//     a guard such as `if m.rec != nil`, so recording off pays no
//     deferred call per cycle.
//
// make/new are deliberately not flagged: amortized growth of a reused
// buffer (arena chunks, scratch capacity doubling) is the legitimate way
// to keep the steady state alloc-free, and the per-iteration signature
// the analyzer hunts is the composite literal, not the occasional grow.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"decvec/internal/analysis"
)

// hotPackages is the set of package basenames the analyzer polices: the
// model packages plus the experiments batch driver, whose pooled-runner
// dispatch sits upstream of every simulation.
var hotPackages = map[string]bool{
	"ref":         true,
	"dva":         true,
	"ooo":         true,
	"ideal":       true,
	"sim":         true,
	"queue":       true,
	"disamb":      true,
	"experiments": true,
}

// Directive marks a function as a hot-path root in its doc comment.
const Directive = "declint:hotpath"

// Analyzer is the hot-path allocation check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "declint:hotpath-rooted call closures in model packages must not allocate per cycle",
	Applies: func(path string) bool {
		return hotPackages[analysis.PathBase(path)]
	},
	Run: run,
}

// fnInfo is the per-function record the first pass gathers.
type fnInfo struct {
	decl       *ast.FuncDecl
	returnsErr bool
	// callees are the intra-package functions reached from non-error
	// paths of this function's body.
	callees []*types.Func
}

func run(pass *analysis.Pass) error {
	// Pass 1: index declarations, find roots, collect call edges.
	infos := map[*types.Func]*fnInfo{}
	var roots []*types.Func
	rootName := map[*types.Func]string{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &fnInfo{decl: fd, returnsErr: returnsError(pass, fd.Type)}
			collectCallees(pass, info)
			infos[fn] = info
			if hasDirective(fd) {
				roots = append(roots, fn)
				rootName[fn] = fd.Name.Name
			}
		}
	}

	// Pass 2: close the hot set over the call graph.
	hot := map[*types.Func]string{} // function -> root it is reached from
	queue := append([]*types.Func(nil), roots...)
	for _, r := range roots {
		hot[r] = rootName[r]
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		info := infos[fn]
		if info == nil {
			continue
		}
		for _, callee := range info.callees {
			key := origin(callee)
			if _, seen := hot[key]; seen {
				continue
			}
			if infos[key] == nil || key.Name() == "String" {
				continue
			}
			hot[key] = hot[fn]
			queue = append(queue, key)
		}
	}

	// Pass 3: flag allocation shapes inside each hot function.
	for fn, root := range hot {
		checkHotFunc(pass, infos[fn], root)
	}
	return nil
}

// hasDirective reports whether the declaration's doc comment carries the
// hotpath marker.
func hasDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(line, Directive) {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic function back to its declaration.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// returnsError reports whether the signature has an error result.
func returnsError(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Results == nil {
		return false
	}
	for _, field := range ft.Results.List {
		if isErrorType(pass.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// staticCallee resolves a call to a package-level or method function.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// collectCallees records the intra-package static callees of info's body,
// skipping call sites on error paths — a helper only ever invoked while
// building a panic message or an error return stays cold.
func collectCallees(pass *analysis.Pass, info *fnInfo) {
	walkWithStack(info.decl.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if errorPath(pass, stack, info.returnsErr) {
			return
		}
		fn := staticCallee(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg() != pass.Pkg {
			return
		}
		info.callees = append(info.callees, fn)
	})
}

// errorPath reports whether a node with the given ancestor stack sits on
// an error path: inside panic or fmt.Errorf arguments, inside a return of
// an error-returning function, or inside an assignment to an error.
func errorPath(pass *analysis.Pass, stack []ast.Node, returnsErr bool) bool {
	for _, a := range stack {
		switch a := a.(type) {
		case *ast.ReturnStmt:
			if returnsErr {
				return true
			}
		case *ast.CallExpr:
			if isPanicCall(pass, a) || isFmtCall(pass, a, "Errorf") {
				return true
			}
		case *ast.AssignStmt:
			for _, l := range a.Lhs {
				if isErrorType(pass.TypeOf(l)) {
					return true
				}
			}
		case *ast.FuncLit:
			// Error-return status follows the innermost function literal.
			returnsErr = returnsError(pass, a.Type)
		}
	}
	return false
}

func isPanicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "panic"
}

// isFmtCall reports whether call is fmt.<name>(...); an empty name matches
// any fmt function.
func isFmtCall(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "fmt" {
		return false
	}
	return name == "" || sel.Sel.Name == name
}

// checkHotFunc flags the allocation shapes inside one hot function.
func checkHotFunc(pass *analysis.Pass, info *fnInfo, root string) {
	if info == nil {
		return
	}
	fd := info.decl

	// Prepass: signature-declared objects (receiver and parameters, of the
	// declaration and of every nested literal) and := definitions.
	params := map[types.Object]bool{}
	defineRHS := map[types.Object]ast.Expr{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			addFields(n.Type.Params)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							defineRHS[obj] = n.Rhs[i]
						}
					}
				}
			}
		}
		return true
	})

	walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		if errorPath(pass, stack, info.returnsErr) {
			return
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(),
						"pointer composite literal allocates in hot path %s: reuse a pooled or preallocated object", root)
				}
			}
		case *ast.CompositeLit:
			if len(stack) > 0 {
				if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
					return // already reported at the & operator
				}
			}
			t := pass.TypeOf(n)
			if t == nil {
				return
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(),
					"slice composite literal allocates in hot path %s: reuse a scratch slice", root)
			case *types.Map:
				pass.Reportf(n.Pos(),
					"map composite literal allocates in hot path %s: preallocate it outside the loop", root)
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) > 0 {
					checkAppend(pass, n, params, defineRHS, root)
				}
				return
			}
			if isFmtCall(pass, n, "") {
				sel := n.Fun.(*ast.SelectorExpr)
				pass.Reportf(n.Pos(),
					"fmt.%s in hot path %s: formatting allocates; keep it on error paths", sel.Sel.Name, root)
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return
			}
			if tv, ok := pass.Info.Types[n]; ok && tv.Value != nil {
				return // constant-folded
			}
			t := pass.TypeOf(n)
			if t == nil {
				return
			}
			if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
				pass.Reportf(n.Pos(),
					"string concatenation in hot path %s: formatting allocates; keep it on error paths", root)
			}
		case *ast.DeferStmt:
			for _, a := range stack {
				if _, ok := a.(*ast.IfStmt); ok {
					return
				}
			}
			pass.Reportf(n.Pos(),
				"unconditional defer in hot path %s: it runs on every call; put it behind the guard that enables it (if m.rec != nil)", root)
		case *ast.FuncLit:
			inLoop := false
			for _, a := range stack {
				switch a.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					inLoop = true
				}
			}
			if !inLoop {
				return
			}
			if name, captures := capturedName(pass, fd, n); captures {
				pass.Reportf(n.Pos(),
					"closure capturing %s inside a loop in hot path %s: each iteration allocates the closure", name, root)
			}
		}
	})
}

// checkAppend flags appends whose target is not a reused scratch slice.
func checkAppend(pass *analysis.Pass, call *ast.CallExpr, params map[types.Object]bool, defineRHS map[types.Object]ast.Expr, root string) {
	switch target := call.Args[0].(type) {
	case *ast.SelectorExpr:
		return // m.scratch = append(m.scratch, ...) reuses the field's capacity
	case *ast.Ident:
		obj := pass.Info.Uses[target]
		if obj == nil {
			obj = pass.Info.Defs[target]
		}
		if params[obj] {
			return // the route(ps []push) parameter idiom
		}
		if rhs, ok := defineRHS[obj]; ok {
			if _, isSlice := rhs.(*ast.SliceExpr); isSlice {
				return // ps := m.psScratch[:0] reslice idiom
			}
		}
		pass.Reportf(call.Pos(),
			"append to %s allocates in hot path %s: append to a reused scratch field, a parameter, or a reslice of one", target.Name, root)
	default:
		pass.Reportf(call.Pos(),
			"append target in hot path %s is not a reusable scratch slice", root)
	}
}

// capturedName reports whether lit captures a variable declared in the
// enclosing declaration fd (receiver, parameter or local) outside the
// literal itself, returning one captured name for the diagnostic.
func capturedName(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		pos := obj.Pos()
		if pos >= fd.Pos() && pos < fd.End() && !(pos >= lit.Pos() && pos < lit.End()) {
			name = id.Name
		}
		return true
	})
	return name, name != ""
}

// walkWithStack walks the AST under root, invoking fn with each node and
// its ancestor stack (innermost last, excluding the node itself).
func walkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}
