// Package layerdag implements the declint analyzer that enforces the
// repository's package-layer DAG on every import edge. It is the one owner
// of import rules — "models must not import simcache or server" included —
// as a complete declared architecture, and is the gate for the
// planned pkg/ engine split: a package that is not assigned to a layer is
// itself a diagnostic, so new packages must take a position in the DAG
// before they can land.
//
// The layers, bottom-up (each may import itself-as-layer only where the
// table says so — the cores, for instance, may never import each other):
//
//	model    isa, trace, queue, mem, disamb, sim   → model
//	core     ref, dva, ooo, ideal                  → model
//	gen      tracegen, workload                    → model, gen
//	cache    simcache                              → model
//	harness  experiments, sweep                    → model, core, gen, cache, harness
//	report   report                                → model, cache, harness
//	serving  server                                → model, gen, cache, harness, report
//	facade   the module root package               → everything below
//	tooling  analysis and its analyzer subpackages → tooling
//	main     cmd/*, examples/*                     → everything
//
// Module-local import paths are recognized by sharing the importing
// package's leading path segment (the module namespace), with an optional
// internal/ segment stripped; everything else (the standard library) is
// outside the DAG and always allowed.
package layerdag

import (
	"strconv"
	"strings"

	"decvec/internal/analysis"
)

// Layer names. They appear verbatim in diagnostics.
const (
	layerModel   = "model"
	layerCore    = "core"
	layerGen     = "gen"
	layerCache   = "cache"
	layerHarness = "harness"
	layerReport  = "report"
	layerServing = "serving"
	layerFacade  = "facade"
	layerTooling = "tooling"
	layerMain    = "main"
)

// layerOf assigns module-local package basenames to layers. cmd/*,
// examples/*, the analysis tree and the module root are classified
// structurally in classify, not here.
var layerOf = map[string]string{
	"isa":    layerModel,
	"trace":  layerModel,
	"queue":  layerModel,
	"mem":    layerModel,
	"disamb": layerModel,
	"sim":    layerModel,

	"ref":   layerCore,
	"dva":   layerCore,
	"ooo":   layerCore,
	"ideal": layerCore,

	"tracegen": layerGen,
	"workload": layerGen,

	"simcache": layerCache,

	"experiments": layerHarness,
	"sweep":       layerHarness,

	"report": layerReport,

	"server": layerServing,
}

// allowed is the DAG: allowed[L] is the set of layers a package in layer L
// may import. A layer absent from its own set may not import siblings —
// the cores (ref/dva/ooo/ideal) are the canonical case: they must stay
// independent implementations of the same trace contract.
var allowed = map[string]map[string]bool{
	layerModel:   {layerModel: true},
	layerCore:    {layerModel: true},
	layerGen:     {layerModel: true, layerGen: true},
	layerCache:   {layerModel: true},
	layerHarness: {layerModel: true, layerCore: true, layerGen: true, layerCache: true, layerHarness: true},
	layerReport:  {layerModel: true, layerCache: true, layerHarness: true},
	layerServing: {layerModel: true, layerGen: true, layerCache: true, layerHarness: true, layerReport: true},
	layerFacade: {
		layerModel: true, layerCore: true, layerGen: true, layerCache: true,
		layerHarness: true, layerReport: true, layerServing: true,
	},
	layerTooling: {layerTooling: true},
	layerMain: {
		layerModel: true, layerCore: true, layerGen: true, layerCache: true,
		layerHarness: true, layerReport: true, layerServing: true,
		layerFacade: true, layerTooling: true,
	},
}

// Analyzer is the layer-DAG import check.
var Analyzer = &analysis.Analyzer{
	Name: "layerdag",
	Doc:  "every module-local import edge must follow the declared package-layer DAG",
	Run:  run,
}

// classify maps an import path to its layer. ns is the module namespace —
// the leading path segment of the importing package. The second result is
// false for paths outside the module (the standard library); a module-local
// path with no layer returns ("", true), which is itself a violation.
func classify(ns, path string) (layer string, local bool) {
	if path == ns {
		return layerFacade, true
	}
	rest, ok := strings.CutPrefix(path, ns+"/")
	if !ok {
		return "", false
	}
	rest = strings.TrimPrefix(rest, "internal/")
	seg := rest
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		seg = rest[:i]
	}
	switch seg {
	case "cmd", "examples":
		return layerMain, true
	case "analysis":
		return layerTooling, true
	}
	if l, ok := layerOf[seg]; ok {
		return l, true
	}
	return "", true
}

// sortedLayers renders an allowed-set for diagnostics, bottom-up.
func sortedLayers(set map[string]bool) string {
	order := []string{
		layerModel, layerCore, layerGen, layerCache, layerHarness,
		layerReport, layerServing, layerFacade, layerTooling, layerMain,
	}
	var out []string
	for _, l := range order {
		if set[l] {
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		return "nothing"
	}
	return strings.Join(out, ", ")
}

func run(pass *analysis.Pass) error {
	self := pass.Pkg.Path()
	ns := self
	if i := strings.IndexByte(self, '/'); i >= 0 {
		ns = self[:i]
	}
	selfLayer, _ := classify(ns, self)
	if selfLayer == "" {
		// The package has no position in the DAG. Report once, at the
		// package clause of the first file, and skip the edge checks —
		// there is no allowed-set to check against.
		if len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Package,
				"package %s is not assigned to any layer in the import DAG; add it to the layerdag table before wiring it in", self)
		}
		return nil
	}
	may := allowed[selfLayer]
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			depLayer, local := classify(ns, path)
			if !local {
				continue
			}
			if depLayer == "" {
				pass.Reportf(imp.Pos(),
					"package %s (layer %s) imports %s, which is not assigned to any layer in the import DAG", self, selfLayer, path)
				continue
			}
			if !may[depLayer] {
				pass.Reportf(imp.Pos(),
					"package %s (layer %s) imports %s (layer %s): %s may import only %s",
					self, selfLayer, path, depLayer, selfLayer, sortedLayers(may))
			}
		}
	}
	return nil
}
