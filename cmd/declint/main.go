// Command declint runs the repository's custom static-analysis suite over
// the given package patterns and reports every violated simulator invariant.
//
// Usage:
//
//	go run ./cmd/declint ./...
//	go run ./cmd/declint internal/dva internal/ref
//
// Exit-code contract (stable; CI and editor integrations rely on it):
//
//	0  the tree is clean
//	1  one or more diagnostics were reported
//	2  the analysis itself failed (unresolvable patterns, parse or
//	   type-check errors, bad flags)
//
// Each diagnostic is one line, "file:line:col: analyzer: message", with the
// file path relative to the module root — the format
// .github/declint-problem-matcher.json teaches GitHub Actions to annotate.
// See DESIGN.md ("Checked invariants") for the six analyzers, the tests
// that carry the retired recorder and concurrency checks, and the
// // declint: escape-hatch syntax.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"decvec/internal/analysis"
	"decvec/internal/analysis/ctxdiscipline"
	"decvec/internal/analysis/determinism"
	"decvec/internal/analysis/exhaustive"
	"decvec/internal/analysis/hotalloc"
	"decvec/internal/analysis/layerdag"
	"decvec/internal/analysis/queuediscipline"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		exhaustive.Analyzer,
		determinism.Analyzer,
		queuediscipline.Analyzer,
		layerdag.Analyzer,
		ctxdiscipline.Analyzer,
		hotalloc.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("declint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: declint [packages]\n\n")
		fmt.Fprintf(stderr, "Runs the simulator-invariant analyzers over the module.\n")
		fmt.Fprintf(stderr, "Exits 0 when clean, 1 on diagnostics, 2 on analysis errors.\n")
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	violations, err := lint(stdout, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "declint:", err)
		return 2
	}
	if violations > 0 {
		return 1
	}
	return 0
}

// lint loads the packages, applies every analyzer and prints the surviving
// diagnostics; it returns how many there were.
func lint(stdout io.Writer, patterns []string) (int, error) {
	wd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	modPath, modDir, err := analysis.ModuleInfo(wd)
	if err != nil {
		return 0, err
	}
	loader := analysis.NewLoader(modPath, modDir)
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		return 0, err
	}
	if len(pkgs) == 0 {
		return 0, fmt.Errorf("no packages match %v", patterns)
	}
	diags, err := analysis.Run(analyzers(), pkgs)
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(modDir, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", file, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stdout, "declint: %d violation(s)\n", len(diags))
	}
	return len(diags), nil
}
