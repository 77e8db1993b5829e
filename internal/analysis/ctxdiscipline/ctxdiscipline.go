// Package ctxdiscipline implements the declint analyzer that keeps
// context.Context flowing end-to-end through the suite and the server:
//
//   - a context parameter must be the first parameter (after the receiver),
//     in every function signature — declarations, literals, interface
//     methods and function types alike;
//   - a named context parameter must be used somewhere in the body; a
//     handler that accepts ctx and drops it silently breaks cancellation
//     for everything it calls (rename it to _ to opt out explicitly);
//   - context.Background() and context.TODO() are reserved for the entry
//     layers — the module root facade, cmd/* and examples/* — everywhere
//     else a fresh root context severs the caller's deadline and
//     cancellation, which is exactly the bug class Suite.RunCtx/RunBatch
//     and the server handler chains exist to prevent.
//
// Test files are never linted (the loader parses non-test files only), so
// tests remain free to mint context.Background() at will.
package ctxdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"decvec/internal/analysis"
)

// Analyzer is the context-discipline check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxdiscipline",
	Doc:  "context must be the first parameter, must not be dropped, and Background/TODO stay in the entry layers",
	Run:  run,
}

// entryLayer reports whether the package may legitimately mint root
// contexts: the module root facade (a single-segment import path) and any
// package under a cmd/ or examples/ segment.
func entryLayer(path string) bool {
	if !strings.Contains(path, "/") {
		return true
	}
	for _, seg := range strings.Split(path, "/") {
		if seg == "cmd" || seg == "examples" {
			return true
		}
	}
	return false
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func run(pass *analysis.Pass) error {
	entry := entryLayer(pass.Pkg.Path())
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncType:
				checkFirst(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkDropped(pass, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkDropped(pass, n.Type, n.Body)
			case *ast.CallExpr:
				if !entry {
					checkRootContext(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkFirst flags context parameters that are not in first position.
// Visiting FuncType covers declarations, literals, interface methods and
// plain function types with one rule.
func checkFirst(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	// Walk fields, tracking the parameter index of each field's first name
	// (an unnamed field counts as one parameter).
	idx := 0
	for _, field := range ft.Params.List {
		t := pass.TypeOf(field.Type)
		width := len(field.Names)
		if width == 0 {
			width = 1
		}
		if t != nil && isContext(t) && idx > 0 {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter")
		}
		idx += width
	}
}

// checkDropped flags named, non-blank context parameters that the function
// body never uses.
func checkDropped(pass *analysis.Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		t := pass.TypeOf(field.Type)
		if t == nil || !isContext(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[name]
			if obj == nil {
				continue
			}
			used := false
			ast.Inspect(body, func(n ast.Node) bool {
				if used {
					return false
				}
				if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					used = true
				}
				return true
			})
			if !used {
				pass.Reportf(name.Pos(), "context parameter %s is dropped: propagate it or rename it to _", name.Name)
			}
		}
	}
}

// checkRootContext flags context.Background()/context.TODO() outside the
// entry layers.
func checkRootContext(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "context" {
		return
	}
	switch sel.Sel.Name {
	case "Background", "TODO":
		pass.Reportf(call.Pos(),
			"context.%s outside the entry layers severs the caller's cancellation: accept a ctx parameter instead", sel.Sel.Name)
	}
}
