package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"decvec"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// figuresGolden holds the SHA-256 of every experiment's report at scale 1,
// the bytes `dvabench -scale 1 -q -out DIR` writes to DIR/<name>.txt.
//
//go:embed testdata/figures.sha256
var figuresGolden string

// figures is the figures-cold workload: the dvabench path. Each operation
// is one pass of all fifteen experiments through RunExperimentCtx with a
// fresh suite and a fresh, empty disk store, then the store's GC. The cores
// and the cache writes do the work; HTTP, sweeps and cache reads do none.
type figures struct {
	e     *env
	names []string
	// want maps each experiment to the digest its report must have: the
	// golden digests at scale 1; at other scales, none exist and every
	// pass must repeat the first.
	want   map[string]string
	golden bool
	sims   []int64   // simulations of every finished pass
	writes []float64 // store writes of every finished pass
	hits   []float64 // store hit ratio of every finished pass
}

func parseDigests(text string) (map[string]string, error) {
	m := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok || len(sum) != 2*sha256.Size {
			return nil, fmt.Errorf("bad digest line %q", line)
		}
		m[name] = sum
	}
	return m, nil
}

func runFigures(e *env) error {
	f := &figures{e: e, names: e.opt.size.figures, golden: e.opt.size.scale == 1}
	if f.names == nil {
		f.names = decvec.ExperimentNames()
	}
	// Set-up is what every pass needs before its first simulation: the
	// thirteen program traces with their content hashes, and the digests.
	_, err := e.setup(func() (func(), error) {
		f.want = map[string]string{}
		if f.golden {
			want, err := parseDigests(figuresGolden)
			if err != nil {
				return nil, err
			}
			f.want = want
		}
		return nil, generateTraces(e.opt.size.scale)
	})
	if err != nil {
		return err
	}

	err = e.timed(func(d time.Duration) (*window, error) {
		return loop{
			tr: e.tr, clients: 1, log: e.log,
			op: func(ctx context.Context, i int) (int64, error) { return f.pass(ctx) },
		}.run(d), nil
	})
	if err != nil {
		return err
	}
	e.rep.set("simcache.writes", mean(f.writes), len(f.writes))
	e.rep.set("simcache.hit_ratio", mean(f.hits), len(f.hits))
	return nil
}

// generateTraces builds and hashes every program's trace afresh, the work
// every set-up repeats, then makes sure the memoized copies the suites read
// exist with their content hashes.
func generateTraces(scale float64) error {
	for _, p := range workload.All {
		if _, err := trace.Hash(p.Trace(scale)); err != nil {
			return err
		}
		if _, err := p.CachedTraceHash(scale); err != nil {
			return err
		}
	}
	return nil
}

// pass runs one figures-cold operation and checks every report's digest.
func (f *figures) pass(ctx context.Context) (int64, error) {
	n := len(f.sims)
	store, err := decvec.OpenCache(filepath.Join(f.e.tmp, fmt.Sprintf("figures-%d", n)), decvec.CacheOptions{})
	if err != nil {
		return 0, err
	}
	suite := decvec.NewSuite(f.e.opt.size.scale)
	suite.Disk = store
	suite.Gate = tracedGate{t: f.e.tr}
	var mismatch error
	for _, name := range f.names {
		s := f.e.tr.begin("experiments."+name, spanFrom(ctx))
		out, err := decvec.RunExperimentCtx(withSpan(ctx, s), suite, name)
		f.e.tr.end(s)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if err := f.checkDigest(name, out); err != nil && mismatch == nil {
			mismatch = err
		}
	}
	if _, err := store.GC(); err != nil {
		return 0, fmt.Errorf("store GC: %w", err)
	}
	if mismatch != nil {
		return 0, mismatch
	}
	sims := suite.Simulations()
	var err2 error
	if n > 0 && sims != f.sims[0] {
		err2 = fmt.Errorf("pass simulated %d times, the first pass %d", sims, f.sims[0])
	}
	f.e.rep.check("figures: simulations per pass repeat", err2)
	st := store.Stats()
	f.sims = append(f.sims, sims)
	f.writes = append(f.writes, float64(st.Writes))
	hitRatio := 0.0
	if st.Hits+st.Misses > 0 {
		hitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	f.hits = append(f.hits, hitRatio)
	return sims, err2
}

func (f *figures) checkDigest(name, out string) error {
	sum := sha256.Sum256([]byte(out))
	got := hex.EncodeToString(sum[:])
	want, ok := f.want[name]
	if !ok && !f.golden {
		f.want[name], want, ok = got, got, true
	}
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("%s: no golden digest", name)
	case got != want:
		err = fmt.Errorf("%s: report digest %.16s…, want %.16s…", name, got, want)
	}
	f.e.rep.check("figures: report digests", err)
	return err
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
