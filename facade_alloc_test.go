//go:build !race

package decvec

import (
	"testing"

	"decvec/internal/dva"
	"decvec/internal/sim"
)

// The facade simulates on the suite's pooled machines: a warm RunSource of
// a DVA cell allocates no more than a warm dva.Runner.Run of the same trace
// and config, and a recorded run no more than RunRecordedInto on a warm
// Runner with a fresh recorder and result. (Allocation counts are not
// meaningful under the race detector, so the file builds without it.)
func TestRunSourceWarmAllocs(t *testing.T) {
	w, err := LoadWorkload("TRFD")
	if err != nil {
		t.Fatal(err)
	}
	src := w.Trace(0.25)
	cfg := DefaultConfig(50)
	r := dva.NewRunner()
	check := func(_ *Result, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	recordInto := func() (*Result, error) {
		res := new(sim.Result)
		return res, r.RunRecordedInto(res, src, cfg, NewRecorder())
	}
	// Warm both machines and the trace's dispatch plan.
	check(r.Run(src, cfg))
	check(RunSource(src, "DVA", cfg))

	for _, c := range []struct {
		name           string
		facade, runner func() (*Result, error)
	}{
		{"RunSource", func() (*Result, error) { return RunSource(src, "DVA", cfg) },
			func() (*Result, error) { return r.Run(src, cfg) }},
		{"RunSourceRecorded", func() (*Result, error) { return RunSourceRecorded(src, "DVA", cfg, NewRecorder()) },
			recordInto},
	} {
		runner := testing.AllocsPerRun(10, func() { check(c.runner()) })
		facade := testing.AllocsPerRun(10, func() { check(c.facade()) })
		t.Logf("%s: %.0f allocations, the Runner %.0f", c.name, facade, runner)
		if facade > runner {
			t.Errorf("warm %s allocated %.0f times per run, the warm Runner %.0f", c.name, facade, runner)
		}
	}
}
