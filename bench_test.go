package decvec_test

import (
	"context"
	"testing"

	"decvec"
)

// benchScale keeps the benchmark traces small enough that the full
// `go test -bench=.` run finishes in minutes while still exercising every
// code path of every experiment.
const benchScale = 0.25

// benchExperiment regenerates one paper table/figure per iteration, with a
// fresh suite each time so the measured work is the real simulation cost.
// Besides the stock ns/op and allocs/op it reports sims/op — the number of
// simulator invocations behind one regeneration — so a bench diff can tell a
// genuinely faster core from an experiment that simply started running fewer
// configurations.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	var sims int64
	for i := 0; i < b.N; i++ {
		s := decvec.NewSuite(benchScale)
		if _, err := decvec.RunExperimentCtx(context.Background(), s, name); err != nil {
			b.Fatal(err)
		}
		sims += s.Simulations()
	}
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}

// BenchmarkTable1 regenerates Table 1 (operation counts, 13 programs).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFigure1 regenerates Figure 1 (REF functional-unit usage at four
// latencies).
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFigure3 regenerates Figure 3 (execution time vs latency for
// IDEAL/REF/DVA).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFigure4 regenerates Figure 4 (stall-state ratio REF/DVA).
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFigure5 regenerates Figure 5 (DVA speedup over REF).
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFigure6 regenerates Figure 6 (AVDQ busy-slot distributions).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFigure7 regenerates Figure 7 (bypass configurations vs DVA).
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFigure8 regenerates Figure 8 (memory-traffic reduction).
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkAblationIQ regenerates the §5 instruction-queue sizing study.
func BenchmarkAblationIQ(b *testing.B) { benchExperiment(b, "ablation-iq") }

// BenchmarkAblationVSQ regenerates the §7 store-queue sizing study.
func BenchmarkAblationVSQ(b *testing.B) { benchExperiment(b, "ablation-vsq") }

// BenchmarkAblationAVDQ regenerates the §6/§8 load-queue sizing study.
func BenchmarkAblationAVDQ(b *testing.B) { benchExperiment(b, "ablation-avdq") }

// benchArch measures raw simulator throughput (simulated cycles per second)
// on one program.
func benchArch(b *testing.B, prog, arch string, latency int64) {
	b.Helper()
	w, err := decvec.LoadWorkload(prog)
	if err != nil {
		b.Fatal(err)
	}
	src := w.Trace(benchScale)
	cfg := decvec.DefaultConfig(latency)
	var simCycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := decvec.RunSource(src, arch, cfg)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += r.Cycles
	}
	b.ReportMetric(float64(simCycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkREF_ARC2D measures reference-simulator throughput on a
// long-vector program.
func BenchmarkREF_ARC2D(b *testing.B) { benchArch(b, "ARC2D", "REF", 30) }

// BenchmarkREF_SPEC77 measures reference-simulator throughput on a
// short-vector program.
func BenchmarkREF_SPEC77(b *testing.B) { benchArch(b, "SPEC77", "REF", 30) }

// BenchmarkDVA_ARC2D measures decoupled-simulator throughput (per-cycle
// stepping) on a long-vector program.
func BenchmarkDVA_ARC2D(b *testing.B) { benchArch(b, "ARC2D", "DVA", 30) }

// BenchmarkDVA_SPEC77 measures decoupled-simulator throughput on a
// short-vector program.
func BenchmarkDVA_SPEC77(b *testing.B) { benchArch(b, "SPEC77", "DVA", 30) }

// BenchmarkBYP_DYFESM measures the bypass variant on the program with the
// most bypass traffic.
func BenchmarkBYP_DYFESM(b *testing.B) { benchArch(b, "DYFESM", "BYP", 30) }

// BenchmarkTraceGeneration measures synthetic trace synthesis itself.
func BenchmarkTraceGeneration(b *testing.B) {
	w, err := decvec.LoadWorkload("BDNA")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		src := w.FreshTrace(benchScale)
		if src == nil {
			b.Fatal("nil trace")
		}
	}
}

// BenchmarkExtensionOOO regenerates the §8 extension study (decoupling vs
// out-of-order execution and register renaming).
func BenchmarkExtensionOOO(b *testing.B) { benchExperiment(b, "extension-ooo") }

// BenchmarkExtensionConflicts regenerates the memory-conflict jitter study.
func BenchmarkExtensionConflicts(b *testing.B) { benchExperiment(b, "extension-conflicts") }

// BenchmarkAblationQMov regenerates the §4.3 QMOV-unit-count study.
func BenchmarkAblationQMov(b *testing.B) { benchExperiment(b, "ablation-qmov") }

// BenchmarkExtensionPorts regenerates the second-memory-port comparison.
func BenchmarkExtensionPorts(b *testing.B) { benchExperiment(b, "extension-ports") }

// BenchmarkFigure3CacheCold measures one Figure 3 regeneration into a fresh
// persistent result cache: full simulation cost plus the encode/checksum/
// write overhead of populating the store.
func BenchmarkFigure3CacheCold(b *testing.B) {
	var sims int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := decvec.OpenCache(b.TempDir(), decvec.CacheOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		s := decvec.NewSuite(benchScale)
		s.Disk = store
		if _, err := decvec.RunExperimentCtx(context.Background(), s, "fig3"); err != nil {
			b.Fatal(err)
		}
		sims += s.Simulations()
	}
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}

// BenchmarkFigure3CacheWarm measures the same regeneration served entirely
// from a warm store — no simulator invocations (sims/op must report 0); the
// remaining cost is hashing, decoding and report rendering. The ratio
// against BenchmarkFigure3CacheCold is the cache's headline speedup.
func BenchmarkFigure3CacheWarm(b *testing.B) {
	dir := b.TempDir()
	warm := func() (*decvec.Suite, error) {
		store, err := decvec.OpenCache(dir, decvec.CacheOptions{})
		if err != nil {
			return nil, err
		}
		s := decvec.NewSuite(benchScale)
		s.Disk = store
		return s, nil
	}
	s, err := warm()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := decvec.RunExperimentCtx(context.Background(), s, "fig3"); err != nil {
		b.Fatal(err)
	}
	var sims int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := warm()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decvec.RunExperimentCtx(context.Background(), s, "fig3"); err != nil {
			b.Fatal(err)
		}
		sims += s.Simulations()
	}
	b.ReportMetric(float64(sims)/float64(b.N), "sims/op")
}

// BenchmarkDVA_ARC2D_Recorded is BenchmarkDVA_ARC2D with an event recorder
// attached; the delta against the plain benchmark is the cost of recording,
// and the plain benchmark itself guards the disabled-recorder hot path.
func BenchmarkDVA_ARC2D_Recorded(b *testing.B) {
	w, err := decvec.LoadWorkload("ARC2D")
	if err != nil {
		b.Fatal(err)
	}
	src := w.Trace(benchScale)
	cfg := decvec.DefaultConfig(30)
	var simCycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := decvec.NewRecorder()
		r, err := decvec.RunSourceRecorded(src, "DVA", cfg, rec)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += r.Cycles
	}
	b.ReportMetric(float64(simCycles)/b.Elapsed().Seconds(), "simcycles/s")
}
