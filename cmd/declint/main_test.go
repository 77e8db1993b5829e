package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// declint runs the command on args from dir and returns its exit code and
// output.
func declint(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	if dir != "" {
		wd, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(dir); err != nil {
			t.Fatal(err)
		}
		defer os.Chdir(wd)
	}
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestCleanPackage(t *testing.T) {
	code, out, errOut := declint(t, "", "internal/queue")
	if code != 0 || out != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want a clean exit 0", code, out, errOut)
	}
}

// A package minting a root context below the entry layers exits 1 with a
// module-relative diagnostic line.
func TestViolation(t *testing.T) {
	mod := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":              "module lintme\n\ngo 1.22\n",
		"internal/sim/ctx.go": "package sim\n\nimport \"context\"\n\nfunc Root() context.Context { return context.Background() }\n",
	} {
		path := filepath.Join(mod, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out, errOut := declint(t, mod, "internal/sim")
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, errOut)
	}
	want := regexp.MustCompile(`(?m)^internal/sim/ctx\.go:5:\d+: ctxdiscipline: .*\ndeclint: 1 violation\(s\)\n$`)
	if !want.MatchString(out) {
		t.Errorf("stdout does not match %v:\n%s", want, out)
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		args []string
		want int
	}{
		{"", []string{"-h"}, 0},
		{"", []string{"-bogus"}, 2},
		{"", []string{"internal/nope"}, 2},
		{t.TempDir(), nil, 2}, // no module to analyze
	} {
		if code, _, errOut := declint(t, tc.dir, tc.args...); code != tc.want {
			t.Errorf("%v in %q: exit %d, want %d (%s)", tc.args, tc.dir, code, tc.want, errOut)
		}
	}
}
