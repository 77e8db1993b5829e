// Command modelhash generates internal/sim/fingerprint_gen.go: a single
// constant fingerprinting the source of every simulator model package. The
// persistent result cache (internal/simcache) mixes the fingerprint into its
// keys, so any change to the deterministic core — however small — invalidates
// every cached result automatically; stale hits are structurally impossible.
//
// Usage:
//
//	go run ./cmd/modelhash            # (re)write internal/sim/fingerprint_gen.go
//	go run ./cmd/modelhash -check     # exit 1 if the checked-in file is stale
//
// The package list is fixed (see modelPackages). Each package is loaded and
// type-checked through the internal/analysis loader — so a package that does
// not compile fails the generation instead of producing a fingerprint of a
// broken tree — and the hash covers the sorted module-relative path and full
// content of every non-test Go file, excluding the generated file itself.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"decvec/internal/analysis"
)

// modelPackages are the packages whose source defines simulation results:
// the machine models, their shared infrastructure, and the trace/workload
// generators that produce the inputs. A change to any of them can change a
// sim.Result, so all of them enter the fingerprint.
var modelPackages = []string{
	"dva", "ref", "ooo", "ideal", "disamb", "queue",
	"mem", "isa", "trace", "workload", "tracegen", "sim",
}

// genFile is the generated file, relative to the module root. It is excluded
// from the hash so regeneration is a fixed point.
const genFile = "internal/sim/fingerprint_gen.go"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("modelhash", flag.ContinueOnError)
	fs.SetOutput(stderr)
	check := fs.Bool("check", false, "verify the generated file is fresh instead of writing it")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if err := generate(stdout, *check); err != nil {
		fmt.Fprintln(stderr, "modelhash:", err)
		return 1
	}
	return 0
}

// generate fingerprints the model packages and writes genFile, or under
// check fails unless genFile already holds that fingerprint.
func generate(stdout io.Writer, check bool) error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	modPath, modDir, err := analysis.ModuleInfo(wd)
	if err != nil {
		return err
	}
	fp, err := fingerprint(modPath, modDir)
	if err != nil {
		return err
	}
	content := render(fp)
	path := filepath.Join(modDir, filepath.FromSlash(genFile))

	if check {
		existing, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("%s missing or unreadable (%v); run `make generate`", genFile, err)
		}
		if string(existing) != content {
			return fmt.Errorf("%s is stale (model sources changed); run `make generate`", genFile)
		}
		fmt.Fprintf(stdout, "modelhash: %s is fresh (%s)\n", genFile, fp)
		return nil
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "modelhash: wrote %s (%s)\n", genFile, fp)
	return nil
}

// fingerprint loads every model package through the analysis loader and
// hashes its sources in a deterministic order.
func fingerprint(modPath, modDir string) (string, error) {
	loader := analysis.NewLoader(modPath, modDir)
	var files []string
	for _, name := range modelPackages {
		p, err := loader.Load(modPath + "/internal/" + name)
		if err != nil {
			return "", err
		}
		if len(p.Errs) > 0 {
			return "", fmt.Errorf("package %s does not type-check: %v", name, p.Errs[0])
		}
		for _, f := range p.Files {
			abs := p.Fset.Position(f.Pos()).Filename
			rel, err := filepath.Rel(modDir, abs)
			if err != nil {
				return "", err
			}
			rel = filepath.ToSlash(rel)
			if rel == genFile {
				continue
			}
			files = append(files, rel)
		}
	}
	sort.Strings(files)
	h := sha256.New()
	fmt.Fprintf(h, "decvec-modelhash-v1\n")
	for _, rel := range files {
		data, err := os.ReadFile(filepath.Join(modDir, filepath.FromSlash(rel)))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("mh1:%x", h.Sum(nil)), nil
}

func render(fp string) string {
	return fmt.Sprintf(`// Code generated by "go run ./cmd/modelhash"; DO NOT EDIT.

package sim

// ModelFingerprint identifies the exact source of the simulator model
// packages (dva, ref, ooo, ideal, disamb, queue, mem, isa, trace, workload,
// tracegen, sim). The persistent result cache mixes it into every key, so
// editing any model source invalidates all cached results. Regenerate with
// `+"`make generate`"+`; freshness is enforced by `+"`make verify`"+` and CI.
const ModelFingerprint = %q
`, fp)
}
