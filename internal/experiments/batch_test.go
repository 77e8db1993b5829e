package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"decvec/internal/ooo"
	"decvec/internal/sim"
	"decvec/internal/workload"
)

// A batch with failing cells must return every completed result alongside
// the joined error — and the joined error must name every failure, not
// just whichever the collect loop met first. The old collect path re-ran
// cells and returned the first error bare, masking the rest and dropping
// the successes.
func TestRunBatchPartialFailure(t *testing.T) {
	s := NewSuite(0.05)
	p := workload.Simulated()[0]
	jobs := []BatchJob{
		{Program: p, RunSpec: RunSpec{Arch: REF, Cfg: sim.DefaultConfig(1)}},
		{Program: p, RunSpec: RunSpec{Arch: Arch("XXX"), Cfg: sim.DefaultConfig(1)}},
		{Program: p, RunSpec: RunSpec{Arch: DVA, Cfg: sim.DefaultConfig(1)}},
		{Program: p, RunSpec: RunSpec{Arch: Arch("YYY"), Cfg: sim.DefaultConfig(10)}},
	}
	out, err := s.RunBatch(context.Background(), jobs)
	if err == nil {
		t.Fatal("RunBatch with unknown architectures returned nil error")
	}
	if !errors.Is(err, errUnknownArch) {
		t.Errorf("joined error does not wrap errUnknownArch: %v", err)
	}
	if len(out) != len(jobs) {
		t.Fatalf("partial results: got %d slots, want %d", len(out), len(jobs))
	}
	if out[0] == nil || out[2] == nil {
		t.Errorf("successful cells dropped from a partial batch: out[0]=%v out[2]=%v", out[0], out[2])
	}
	if out[1] != nil || out[3] != nil {
		t.Errorf("failed cells must be nil holes: out[1]=%v out[3]=%v", out[1], out[3])
	}
}

// Two distinct program definitions sharing a name would be keyed
// interchangeably by the suite and the disk cache; RunBatch must refuse
// the batch loudly instead of answering one cell with the other's trace.
func TestRunBatchProgramNameCollision(t *testing.T) {
	orig := workload.Simulated()[0]
	fake := &workload.Program{Name: orig.Name, Description: "impostor"}
	s := NewSuite(0.05)
	jobs := []BatchJob{
		{Program: orig, RunSpec: RunSpec{Arch: REF, Cfg: sim.DefaultConfig(1)}},
		{Program: fake, RunSpec: RunSpec{Arch: REF, Cfg: sim.DefaultConfig(1)}},
	}
	out, err := s.RunBatch(context.Background(), jobs)
	if err == nil {
		t.Fatal("RunBatch accepted two distinct programs sharing a name")
	}
	if !strings.Contains(err.Error(), orig.Name) {
		t.Errorf("collision error does not name the program: %v", err)
	}
	if out != nil {
		t.Errorf("collision must fail the whole batch, got results %v", out)
	}

	// The same definition appearing twice is of course fine.
	jobs = []BatchJob{
		{Program: orig, RunSpec: RunSpec{Arch: REF, Cfg: sim.DefaultConfig(1)}},
		{Program: orig, RunSpec: RunSpec{Arch: REF, Cfg: sim.DefaultConfig(1)}},
	}
	out, err = s.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatalf("duplicate jobs of one program: %v", err)
	}
	if out[0] == nil || out[0] != out[1] {
		t.Errorf("duplicate cells should collapse to one result: %p %p", out[0], out[1])
	}
}

// A mixed REF/DVA/OOO batch with duplicates returns, in job order, the
// results single calls produce, at one simulation per distinct cell.
func TestRunBatchMixedArches(t *testing.T) {
	progs := workload.Simulated()[:2]
	ocfg := ooo.DefaultConfig(30)
	var jobs []BatchJob
	for _, p := range progs {
		jobs = append(jobs,
			BatchJob{Program: p, RunSpec: RunSpec{Arch: REF, Cfg: ocfg.Config}},
			BatchJob{Program: p, RunSpec: RunSpec{Arch: OOO, Cfg: ocfg.Config, Window: ocfg.Window, PhysRegs: ocfg.PhysRegs}},
			BatchJob{Program: p, RunSpec: RunSpec{Arch: DVA, Cfg: ocfg.Config}},
			BatchJob{Program: p, RunSpec: RunSpec{Arch: OOO, Cfg: ocfg.Config, Window: ocfg.Window, PhysRegs: ocfg.PhysRegs}},
			BatchJob{Program: p, RunSpec: RunSpec{Arch: REF, Cfg: ocfg.Config}},
		)
	}
	s := NewSuite(testScale)
	out, err := s.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Simulations(); n != 6 {
		t.Errorf("batch ran %d simulations, want 6 (one per distinct cell)", n)
	}

	single := NewSuite(testScale)
	for i, j := range jobs {
		var want *sim.Result
		if j.Arch == OOO {
			want, err = single.RunOOO(j.Program, ocfg)
		} else {
			want, err = single.Run(j.Program, j.Arch, j.Cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out[i], want) {
			t.Errorf("job %d (%s %s): batch result differs from a single call", i, j.Program.Name, j.Arch)
		}
	}
}

// Simulate is the one architecture-to-core switch: an unknown architecture
// and an OOO run with a recorder are refused before any machine runs.
func TestSimulateRefuses(t *testing.T) {
	tr := workload.Simulated()[0].CachedTrace(0.05)
	if _, err := Simulate(tr, RunSpec{Arch: Arch("XXX"), Cfg: sim.DefaultConfig(1)}, nil); !errors.Is(err, errUnknownArch) {
		t.Errorf("unknown architecture: err = %v, want errUnknownArch", err)
	}
	rec := sim.NewRecorder()
	spec := RunSpec{Arch: OOO, Cfg: sim.DefaultConfig(1), Window: 16, PhysRegs: 32}
	if _, err := Simulate(tr, spec, rec); !errors.Is(err, errRecordedOOO) || rec.Len() != 0 {
		t.Errorf("recorded OOO run: err = %v with %d events, want errRecordedOOO and none", err, rec.Len())
	}
	if _, err := Simulate(tr, spec, nil); err != nil {
		t.Errorf("unrecorded OOO run: %v", err)
	}
}

// ResolveArch resolves any letter case, folds BYP into the DVA's bypass
// bit, and is the resolver RunParams.Resolve uses: both fail an unknown
// name with the same text.
func TestResolveArch(t *testing.T) {
	cfg := sim.DefaultConfig(30)
	for _, c := range []struct {
		arch   string
		want   Arch
		bypass bool
	}{
		{"REF", REF, false}, {"ReF", REF, false}, {"dva", DVA, false}, {"BYP", DVA, true}, {"byp", DVA, true},
	} {
		spec, err := ResolveArch(c.arch, cfg)
		if err != nil || spec.Arch != c.want || spec.Cfg.Bypass != c.bypass {
			t.Errorf("ResolveArch(%q) = %s bypass %v, %v; want %s bypass %v", c.arch, spec.Arch, spec.Cfg.Bypass, err, c.want, c.bypass)
		}
	}
	const want = `unknown architecture "XYZ" (want REF, DVA or BYP)`
	if _, err := ResolveArch("XYZ", cfg); err == nil || err.Error() != want {
		t.Errorf("ResolveArch(XYZ): err = %v, want %s", err, want)
	}
	if _, err := (RunParams{Arch: "XYZ", Latency: 30}).Resolve(); err == nil || err.Error() != want {
		t.Errorf("Resolve(XYZ): err = %v, want %s", err, want)
	}
}
