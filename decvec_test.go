package decvec_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decvec"
)

func TestWorkloadLists(t *testing.T) {
	all := decvec.Workloads()
	if len(all) != 13 {
		t.Fatalf("Workloads() = %d entries", len(all))
	}
	sims := decvec.SimulatedWorkloads()
	if len(sims) != 6 {
		t.Fatalf("SimulatedWorkloads() = %d entries", len(sims))
	}
}

func TestLoadWorkload(t *testing.T) {
	w, err := decvec.LoadWorkload("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "TRFD" || w.Description() == "" {
		t.Error("metadata missing")
	}
	if _, err := decvec.LoadWorkload("NOT-A-PROGRAM"); err == nil {
		t.Error("expected error")
	}
}

func TestRunBothArchitectures(t *testing.T) {
	w, err := decvec.LoadWorkload("FLO52")
	if err != nil {
		t.Fatal(err)
	}
	cfg := decvec.DefaultConfig(30)
	r, err := w.RunREF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.RunDVA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || d.Cycles <= 0 {
		t.Fatal("empty results")
	}
	if d.Cycles >= r.Cycles {
		t.Errorf("decoupling lost: DVA %d vs REF %d", d.Cycles, r.Cycles)
	}
	if ideal := w.IdealCycles(); ideal <= 0 || ideal > d.Cycles {
		t.Errorf("ideal bound %d vs DVA %d", ideal, d.Cycles)
	}
}

func TestBypassConfigRuns(t *testing.T) {
	w, err := decvec.LoadWorkload("DYFESM")
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.RunDVA(decvec.BypassConfig(30, 256, 16))
	if err != nil {
		t.Fatal(err)
	}
	if r.Arch != "BYP" || r.Bypasses == 0 {
		t.Errorf("arch=%s bypasses=%d", r.Arch, r.Bypasses)
	}
}

func TestWorkloadStats(t *testing.T) {
	w, _ := decvec.LoadWorkload("ARC2D")
	st := w.Stats()
	if st.VectorOps == 0 || st.Vectorization() < 0.9 {
		t.Errorf("ARC2D stats off: %+v", st)
	}
}

func TestRunSource(t *testing.T) {
	w, _ := decvec.LoadWorkload("TRFD")
	src := w.Trace(0.3)
	for _, arch := range []string{"REF", "DVA", "BYP"} {
		r, err := decvec.RunSource(src, arch, decvec.DefaultConfig(10))
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if r.Cycles == 0 {
			t.Errorf("%s: no cycles", arch)
		}
	}
	if _, err := decvec.RunSource(src, "VLIW", decvec.DefaultConfig(10)); err == nil {
		t.Error("expected unknown-architecture error")
	}
}

func TestExperimentNames(t *testing.T) {
	names := decvec.ExperimentNames()
	want := []string{"table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"ablation-iq", "ablation-vsq", "ablation-avdq", "ablation-qmov", "extension-ooo", "extension-conflicts", "extension-ports"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Errorf("missing experiment %q", w)
		}
	}
}

func TestRunExperiment(t *testing.T) {
	s := decvec.NewSuite(0.3)
	out, err := decvec.RunExperimentCtx(context.Background(), s, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ARC2D") {
		t.Error("table1 output incomplete")
	}
	if _, err := decvec.RunExperimentCtx(context.Background(), s, "fig99"); err == nil {
		t.Error("expected unknown-experiment error")
	}
}

func TestSharedSuiteReuse(t *testing.T) {
	s := decvec.NewSuite(0.3)
	if _, err := decvec.RunExperimentCtx(context.Background(), s, "fig4"); err != nil {
		t.Fatal(err)
	}
	// fig5 reuses the same sweep; this should be nearly instant and must
	// succeed.
	out, err := decvec.RunExperimentCtx(context.Background(), s, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "speedup") {
		t.Error("fig5 output incomplete")
	}
}

func TestStateAlias(t *testing.T) {
	w, _ := decvec.LoadWorkload("BDNA")
	r, err := w.RunDVA(decvec.DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for s := decvec.State(0); s < 8; s++ {
		total += r.States.Cycles[s]
	}
	if total != r.Cycles {
		t.Errorf("state cycles %d != total %d", total, r.Cycles)
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	w, _ := decvec.LoadWorkload("DYFESM")
	src := w.Trace(0.3)
	var buf bytes.Buffer
	if err := decvec.WriteTrace(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := decvec.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The deserialized trace must simulate identically to the original.
	cfg := decvec.DefaultConfig(30)
	a, err := decvec.RunSource(src, "DVA", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decvec.RunSource(got, "DVA", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Traffic != b.Traffic {
		t.Errorf("serialized trace simulates differently: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestLatencyJitterMonotone(t *testing.T) {
	w, _ := decvec.LoadWorkload("SPEC77")
	base := decvec.DefaultConfig(20)
	r0, err := w.RunREF(base)
	if err != nil {
		t.Fatal(err)
	}
	jit := base
	jit.LatencyJitter = 100
	r1, err := w.RunREF(jit)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles <= r0.Cycles {
		t.Errorf("jitter did not slow the reference machine: %d vs %d", r1.Cycles, r0.Cycles)
	}
}

// Every experiment's report at scale 1 must match the digest pinned in
// cmd/dvaperf/testdata/figures.sha256, the bytes `dvabench -scale 1`
// writes; a driver that reads its grid back out of position changes them.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	golden, err := os.ReadFile(filepath.Join("cmd", "dvaperf", "testdata", "figures.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		sum, name, _ := strings.Cut(line, "  ")
		want[name] = sum
	}
	s := decvec.NewSuite(1)
	for _, name := range decvec.ExperimentNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			out, err := decvec.RunExperimentCtx(context.Background(), s, name)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != want[name] {
				t.Errorf("report digest %s, want %q", got, want[name])
			}
		})
	}
}

func TestRunOOO(t *testing.T) {
	w, _ := decvec.LoadWorkload("SPEC77")
	cfg := decvec.DefaultConfig(50)
	o, err := w.RunOOO(cfg, 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.RunREF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.Arch != "OOO" || o.Cycles >= r.Cycles {
		t.Errorf("OOO w=64 (%d) should beat REF (%d)", o.Cycles, r.Cycles)
	}
	if _, err := w.RunOOO(cfg, 0, 8); err == nil {
		t.Error("invalid window accepted")
	}
}

func TestIdealCyclesOf(t *testing.T) {
	w, _ := decvec.LoadWorkload("FLO52")
	src := w.Trace(1)
	got := decvec.IdealCyclesOf(src)
	if got != w.IdealCycles() {
		t.Errorf("IdealCyclesOf (%d) disagrees with Workload.IdealCycles (%d)", got, w.IdealCycles())
	}
}
