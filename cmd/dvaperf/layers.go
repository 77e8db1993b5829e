package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"decvec/internal/dva"
	"decvec/internal/ideal"
	"decvec/internal/ooo"
	"decvec/internal/ref"
	"decvec/internal/report"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/sweep"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// The layer functions the workloads cannot wrap are replayed after the
// timed window, on every workload, on the workloads' inputs: the program
// traces, the simulated programs at L=50 and the sweep-warm grid. Every time the traced run reports comes from here, so
// each one is measured on every workload.

const replayLatency = 50

// timeReps runs fn reps times and returns the median wall time in unit.
func timeReps(reps int, unit time.Duration, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0))/float64(unit))
	}
	return median(ts), nil
}

// perCall times fn once per item, reps times over, and returns the median
// call in unit.
func perCall[T any](reps int, items []T, unit time.Duration, fn func(T) error) (float64, int, error) {
	var ts []float64
	for r := 0; r < reps; r++ {
		for _, it := range items {
			t0 := time.Now()
			if err := fn(it); err != nil {
				return 0, 0, err
			}
			ts = append(ts, float64(time.Since(t0))/float64(unit))
		}
	}
	return median(ts), len(ts), nil
}

// replayLayers measures every replayed layer and records its metrics.
func replayLayers(e *env) error {
	reps := max(e.opt.size.replayReps, 1)
	scale := e.opt.size.scale
	rep := e.rep
	progs := workload.Simulated()

	// tracegen and trace hashing over all thirteen programs.
	var insts int
	ms, err := timeReps(reps, time.Millisecond, func() error {
		insts = 0
		for _, p := range workload.All {
			insts += p.Trace(scale).Len()
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("tracegen.ms", ms, reps)
	rep.set("tracegen.ns_per_inst", ms*1e6/float64(insts), insts)
	ms, err = timeReps(reps, time.Millisecond, func() error {
		for _, p := range workload.All {
			if _, err := trace.Hash(p.CachedTrace(scale)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("trace.hash_ms", ms, reps)

	results, err := replayCores(e, progs)
	if err != nil {
		return err
	}
	if err := replayRecorder(e, progs); err != nil {
		return err
	}

	ms, err = timeReps(reps, time.Millisecond, func() error {
		for _, p := range progs {
			ideal.Compute(p.CachedTrace(scale))
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("ideal.ms", ms, reps)

	// The result codec, the store and the metrics JSON on the replayed
	// results.
	payloads := make([][]byte, len(results))
	for i, r := range results {
		payloads[i] = encode(r)
	}
	us, n, err := perCall(reps, results, time.Microsecond, func(r *sim.Result) error {
		return sim.EncodeResult(&bytes.Buffer{}, r)
	})
	if err != nil {
		return err
	}
	rep.set("codec.encode_us_p50", us, n)
	us, n, err = perCall(reps, payloads, time.Microsecond, func(b []byte) error {
		_, err := sim.DecodeResult(bytes.NewReader(b))
		return err
	})
	if err != nil {
		return err
	}
	rep.set("codec.decode_us_p50", us, n)
	store, err := simcache.Open(filepath.Join(e.tmp, "replay-store"), simcache.Options{})
	if err != nil {
		return err
	}
	keys := make([]simcache.Key, len(results))
	for i := range results {
		keys[i] = simcache.DeriveKey(sim.ModelFingerprint, [32]byte{byte(i)}, "replay", results[i].Config, "")
	}
	idx := make([]int, len(results))
	for i := range idx {
		idx[i] = i
	}
	us, n, err = perCall(reps, idx, time.Microsecond, func(i int) error { return store.Put(keys[i], results[i]) })
	if err != nil {
		return err
	}
	rep.set("simcache.put_us_p50", us, n)
	us, n, err = perCall(reps, idx, time.Microsecond, func(i int) error {
		if _, ok := store.Get(keys[i]); !ok {
			return fmt.Errorf("replayed store lost entry %d", i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("simcache.get_us_p50", us, n)
	us, n, err = perCall(reps, results, time.Microsecond, func(r *sim.Result) error {
		_, err := report.MetricsJSON(r)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("server.metrics_json_us_p50", us, n)

	// Sweep keys: Plan.Cell and Cell.Key over the sweep-warm grid.
	plan, err := sweep.NewPlan(sweepGrid(e.opt.seed, e.opt.size))
	if err != nil {
		return err
	}
	hashes := map[string][32]byte{}
	for _, p := range plan.Programs() {
		if hashes[p.Name], err = p.CachedTraceHash(scale); err != nil {
			return err
		}
	}
	ns, err := timeReps(reps, time.Nanosecond, func() error {
		for i := 0; i < plan.Points(); i++ {
			c := plan.Cell(i)
			c.Key(sim.ModelFingerprint, hashes[c.Program.Name])
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("sweep.key_ns_per_cell", ns/float64(plan.Points()), plan.Points())
	return nil
}

// replayCores runs the simulated programs at L=50 through a warm Runner of
// each core and records simulated cycles per host second. It returns the
// results for the codec and store replays.
func replayCores(e *env, progs []*workload.Program) ([]*sim.Result, error) {
	scale := e.opt.size.scale
	cfg := sim.DefaultConfig(replayLatency)
	byp := cfg
	byp.Bypass = true
	refR, dvaR, oooR := ref.NewRunner(), dva.NewRunner(), ooo.NewRunner()
	cores := []struct {
		metric string
		run    func(src trace.Source) (*sim.Result, error)
	}{
		{"ref.simcycles_per_s", func(src trace.Source) (*sim.Result, error) { return refR.Run(src, cfg) }},
		{"dva.simcycles_per_s", func(src trace.Source) (*sim.Result, error) { return dvaR.Run(src, cfg) }},
		{"byp.simcycles_per_s", func(src trace.Source) (*sim.Result, error) { return dvaR.Run(src, byp) }},
		{"ooo.simcycles_per_s", func(src trace.Source) (*sim.Result, error) {
			return oooR.Run(src, ooo.DefaultConfig(replayLatency))
		}},
	}
	var results []*sim.Result
	for _, c := range cores {
		// One untimed pass warms the runner's arena.
		for _, p := range progs {
			r, err := c.run(p.CachedTrace(scale))
			if err != nil {
				return nil, err
			}
			results = append(results, r)
		}
		var rates []float64
		for i := 0; i < max(e.opt.size.replayReps, 1); i++ {
			var cycles int64
			t0 := time.Now()
			for _, p := range progs {
				r, err := c.run(p.CachedTrace(scale))
				if err != nil {
					return nil, err
				}
				cycles += r.Cycles
			}
			rates = append(rates, float64(cycles)/time.Since(t0).Seconds())
		}
		e.rep.set(c.metric, median(rates), len(rates))
	}
	return results, nil
}

// replayRecorder runs the simulated programs on DVA at L=50 with a recorder
// and renders each stream as TEF.
func replayRecorder(e *env, progs []*workload.Program) error {
	scale := e.opt.size.scale
	cfg := sim.DefaultConfig(replayLatency)
	r := dva.NewRunner()
	var runs, tefs, rates, mbps []float64
	var events int64
	for i := 0; i < max(e.opt.size.replayReps, 1); i++ {
		var cycles int64
		var busy time.Duration
		for _, p := range progs {
			rec := sim.NewRecorder()
			res := new(sim.Result)
			t0 := time.Now()
			if err := r.RunRecordedInto(res, p.CachedTrace(scale), cfg, rec); err != nil {
				return err
			}
			d := time.Since(t0)
			busy += d
			cycles += res.Cycles
			events += int64(rec.Len())
			runs = append(runs, float64(d)/float64(time.Millisecond))
			var w countWriter
			t0 = time.Now()
			if err := report.WriteTraceEvents(&w, res, rec); err != nil {
				return err
			}
			d = time.Since(t0)
			tefs = append(tefs, float64(d)/float64(time.Millisecond))
			mbps = append(mbps, float64(w.n)/1e6/d.Seconds())
		}
		rates = append(rates, float64(cycles)/busy.Seconds())
	}
	e.rep.set("dva.recorded.simcycles_per_s", median(rates), len(rates))
	e.rep.set("recorder.run_ms_p50", median(runs), len(runs))
	e.rep.set("recorder.events_per_run", float64(events)/float64(len(runs)), len(runs))
	e.rep.set("report.tef_ms_p50", median(tefs), len(tefs))
	e.rep.set("report.tef_mb_per_s", median(mbps), len(mbps))
	return nil
}
