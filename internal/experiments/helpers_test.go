package experiments

import (
	"context"

	"decvec/internal/ooo"
	"decvec/internal/sim"
	"decvec/internal/workload"
)

// Test-only convenience wrappers. Production code threads a context
// end-to-end (ctxdiscipline enforces it); tests run under their own
// deadlines and are free to mint root contexts, so they keep the shorter
// spellings here.

func (s *Suite) Run(p *workload.Program, arch Arch, cfg sim.Config) (*sim.Result, error) {
	return s.RunCtx(context.Background(), p, RunSpec{Arch: arch, Cfg: cfg})
}

func (s *Suite) RunOOO(p *workload.Program, cfg ooo.Config) (*sim.Result, error) {
	return s.RunCtx(context.Background(), p, oooSpec(cfg))
}

// oooSpec is the RunSpec of an out-of-order run under cfg.
func oooSpec(cfg ooo.Config) RunSpec {
	return RunSpec{Arch: OOO, Cfg: cfg.Config, Window: cfg.Window, PhysRegs: cfg.PhysRegs}
}

func parallel(jobs []func() error) error {
	return parallelCtx(context.Background(), jobs)
}
