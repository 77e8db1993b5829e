// Package determinism implements the declint analyzer that keeps the
// cycle-accurate model packages bit-reproducible: identical traces must
// always produce identical cycle counts, stall tallies and event streams.
//
// Inside the model packages (dva, ref, ideal, sim, mem, queue, disamb, isa,
// trace) it forbids the constructs whose behaviour varies across runs:
//
//   - ranging over a map (iteration order is randomized per run),
//   - wall-clock reads (time.Now, time.Since, ...),
//   - the globally-seeded math/rand functions (rand.Intn, rand.Int63, ...;
//     an explicitly seeded rand.New(rand.NewSource(seed)) is fine),
//   - spawning goroutines (scheduling order is nondeterministic, and the
//     per-cycle tick/issue paths must stay single-threaded).
//
// Concurrency and randomness belong in the packages above the models
// (experiments, tracegen), which seed and order their work explicitly. That
// the models import nothing above them — the result cache, the server —
// is the layerdag analyzer's rule, not this one's.
package determinism

import (
	"go/ast"
	"go/types"

	"decvec/internal/analysis"
)

// modelPackages is the set of package basenames the analyzer polices; it
// mirrors the simulator-model packages under internal/.
var modelPackages = map[string]bool{
	"dva":    true,
	"ref":    true,
	"ideal":  true,
	"sim":    true,
	"mem":    true,
	"queue":  true,
	"disamb": true,
	"isa":    true,
	"trace":  true,
}

// wallClock lists the time-package functions that read the wall clock or
// schedule against it.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"Sleep": true,
}

// seededConstructors are the math/rand functions that merely build
// explicitly-seeded generators and are therefore deterministic.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// Analyzer is the determinism check for the model packages.
var Analyzer = &analysis.Analyzer{
	Name:    "determinism",
	Doc:     "model packages must not range over maps, read the clock, use global math/rand or spawn goroutines",
	Applies: func(path string) bool { return modelPackages[analysis.PathBase(path)] },
	Run:     run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine spawned in model package %s: tick/issue paths must stay single-threaded and deterministic", pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}

func checkRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Map); ok {
		pass.Reportf(rs.Pos(), "range over map in model package %s: iteration order is nondeterministic; iterate a sorted key slice instead", pass.Pkg.Name())
	}
}

// checkCall flags wall-clock reads and globally-seeded math/rand calls.
// Only package-qualified calls (time.Now(), rand.Intn(n)) are package-level
// functions; method calls on an explicitly constructed *rand.Rand resolve
// through a selection and are allowed.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
	if !ok {
		return
	}
	fn := sel.Sel.Name
	switch pkgName.Imported().Path() {
	case "time":
		if wallClock[fn] {
			pass.Reportf(call.Pos(), "time.%s in model package %s: simulated time must not depend on the wall clock", fn, pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn] {
			pass.Reportf(call.Pos(), "rand.%s uses the global source in model package %s: use an explicitly seeded rand.New(rand.NewSource(seed))", fn, pass.Pkg.Name())
		}
	}
}
