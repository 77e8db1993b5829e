package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"decvec"
	"decvec/internal/report"
	"decvec/internal/sim"
	"decvec/internal/sweep"
)

// sweepWarm is the sweep-warm workload: a seeded grid through sweep.Run
// over two in-process dvad workers on loopback, one chunk in flight per
// worker. Set-up runs the cold pass; before every timed pass both workers
// restart on the same store directories, so every cell is a disk-tier hit.
// The codec, the cache reads, the coordinator and NDJSON serving do all the
// work and the cores none.
type sweepWarm struct {
	e        *env
	plan     *sweep.Plan
	dirs     [2]string
	workers  [2]*daemon
	cold     []*sim.Result
	coldSum  [sha256.Size]byte
	stats    *http.Client          // untraced client for /statsz
	base     [2]report.CacheMetric // workers' cache counters before the pass
	last     []*sim.Result         // the latest pass's results, until checked
	lastSt   sweep.Stats
	hitRatio []float64
	retries  []float64
	moved    []float64
	writes   []float64
}

// sweepGrid draws the workload's grid from the seed: the six simulated
// programs on REF, DVA and BYP at seeded latencies in [1,200], crossed with
// the fixed load- and store-queue sizes. The queue sizes set how large a
// result is, and so what a warm pass costs per cell; drawing them from the
// seed moved alloc_kb_per_cell by 6% between seeds.
func sweepGrid(seed int64, sz sizes) sweep.GridSpec {
	r := rand.New(rand.NewSource(seed))
	lats := make([]int64, 0, sz.sweepLats)
	for _, l := range r.Perm(200)[:sz.sweepLats] {
		lats = append(lats, int64(l+1))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return sweep.GridSpec{
		Archs:     []string{"REF", "DVA", "BYP"},
		Latencies: lats,
		LoadQs:    sz.sweepLoadQs,
		StoreQs:   sz.sweepStoreQs,
	}
}

func runSweepWarm(e *env) error {
	s := &sweepWarm{e: e, stats: &http.Client{Timeout: time.Minute}}
	plan, err := sweep.NewPlan(sweepGrid(e.opt.seed, e.opt.size))
	if err != nil {
		return err
	}
	s.plan = plan
	rep := 0
	cleanup, err := e.setup(func() (func(), error) {
		rep++
		if err := generateTraces(e.opt.size.scale); err != nil {
			return nil, err
		}
		for i := range s.dirs {
			s.dirs[i] = filepath.Join(e.tmp, fmt.Sprintf("sweep-%d-worker-%d", rep, i))
		}
		if err := s.start(); err != nil {
			return s.stop, err
		}
		res, _, err := s.pass(context.Background())
		if err != nil {
			return s.stop, fmt.Errorf("cold pass: %w", err)
		}
		s.cold, s.coldSum = res, digest(res)
		return s.stop, nil
	})
	if err != nil {
		return err
	}
	defer cleanup()

	err = e.timed(func(d time.Duration) (*window, error) {
		s.hitRatio, s.retries, s.moved, s.writes = nil, nil, nil, nil // keep only this window's
		return loop{
			tr: e.tr, clients: 1, log: e.log,
			prep: s.restart,
			op: func(ctx context.Context, i int) (int64, error) {
				res, st, err := s.pass(ctx)
				s.last, s.lastSt = res, st
				return int64(len(res)), err
			},
			check: s.checkPass,
		}.run(d), nil
	})
	if err != nil {
		return err
	}
	s.checkSample()
	if e.opt.trace {
		s.layers()
	}
	return nil
}

func (s *sweepWarm) start() error {
	for i, dir := range s.dirs {
		d, err := startDaemon(dir, s.e.opt.size.scale, s.e.tr)
		if err != nil {
			return err
		}
		s.workers[i] = d
	}
	return nil
}

func (s *sweepWarm) stop() {
	for i, w := range s.workers {
		if w == nil {
			continue
		}
		if err := w.stop(); err != nil {
			s.e.log("stopping worker %d: %v", i, err)
		}
		s.workers[i] = nil
	}
}

// restart brings both workers back up on their stores with empty memory
// tiers and notes their cache counters.
func (s *sweepWarm) restart() error {
	s.stop()
	if err := s.start(); err != nil {
		return err
	}
	for i, w := range s.workers {
		m, err := w.stats(s.stats)
		if err != nil {
			return err
		}
		s.base[i] = *m.Cache
	}
	return nil
}

// pass sweeps the plan over both workers, each through its own connection.
func (s *sweepWarm) pass(ctx context.Context) ([]*sim.Result, sweep.Stats, error) {
	execs := make([]sweep.Executor, len(s.workers))
	var idle []*http.Transport
	for i, w := range s.workers {
		rt, base := transport(1, s.e.tr)
		idle = append(idle, base)
		execs[i] = tracedExec{t: s.e.tr,
			Executor: sweep.NewRemote(w.url, sweep.RemoteOptions{Client: &http.Client{Transport: rt}})}
	}
	defer func() {
		for _, t := range idle {
			t.CloseIdleConnections()
		}
	}()
	return sweep.Run(ctx, s.plan, execs, sweep.Options{Scale: s.e.opt.size.scale, Inflight: 1})
}

// checkPass compares the latest warm pass with the cold pass and reads the
// workers' /statsz deltas: every cell must have been a disk-tier hit.
func (s *sweepWarm) checkPass() error {
	var err error
	if got := digest(s.last); got != s.coldSum {
		err = fmt.Errorf("warm pass digest %x differs from the cold pass %x", got[:8], s.coldSum[:8])
	}
	s.e.rep.check("sweep: warm digest equals cold", err)
	var hits, misses, writes int64
	for i, w := range s.workers {
		m, serr := w.stats(s.stats)
		if serr != nil {
			return serr
		}
		hits += m.Cache.Hits - s.base[i].Hits
		misses += m.Cache.Misses - s.base[i].Misses
		writes += m.Cache.Writes - s.base[i].Writes
	}
	s.writes = append(s.writes, float64(writes))
	var herr error
	if misses != 0 || hits != int64(len(s.last)) {
		herr = fmt.Errorf("workers saw %d disk hits and %d misses for %d cells", hits, misses, len(s.last))
	}
	s.e.rep.check("sweep: every warm cell is a disk hit", herr)
	if hits+misses > 0 {
		s.hitRatio = append(s.hitRatio, float64(hits)/float64(hits+misses))
	}
	var retries int64
	for _, w := range s.lastSt.Workers {
		retries += w.Retries
	}
	s.retries = append(s.retries, float64(retries))
	s.moved = append(s.moved, float64(s.lastSt.Resharded))
	s.last = nil
	if err != nil {
		return err
	}
	return herr
}

// checkSample re-simulates a seeded sample of cells in process and compares
// them byte for byte with what the workers served.
func (s *sweepWarm) checkSample() {
	r := rand.New(rand.NewSource(s.e.opt.seed + 1))
	n := min(s.e.opt.size.sweepSample, s.plan.Points())
	for _, i := range r.Perm(s.plan.Points())[:n] {
		c := s.plan.Cell(i)
		res, err := decvec.RunSource(c.Program.CachedTrace(s.e.opt.size.scale), string(c.Arch), c.Cfg)
		if err == nil && !bytes.Equal(encode(res), encode(s.cold[i])) {
			err = fmt.Errorf("cell %d (%s %s L=%d): served result differs from in-process simulation",
				i, c.Program.Name, c.Arch, c.Latency)
		}
		s.e.rep.check("sweep: sampled cells match in-process simulation", err)
	}
}

func (s *sweepWarm) layers() {
	rep := s.e.rep
	chunks := countPerOp(s.e.tr.closed(), "sweep")
	rep.set("sweep.chunks", chunks, len(s.writes))
	if chunks > 0 {
		rep.set("sweep.retry_ratio", mean(s.retries)/chunks, len(s.retries))
	}
	rep.set("sweep.resharded", mean(s.moved), len(s.moved))
	rep.set("simcache.hit_ratio", mean(s.hitRatio), len(s.hitRatio))
	rep.set("simcache.writes", mean(s.writes), len(s.writes))
}

// digest hashes results in order through the canonical encoding, as
// dvasweep -digest does.
func digest(res []*sim.Result) [sha256.Size]byte {
	h := sha256.New()
	for _, r := range res {
		h.Write(encode(r))
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// encode returns a result's canonical encoding; a nil result encodes as
// nothing, so it can never match a real one.
func encode(r *sim.Result) []byte {
	if r == nil {
		return nil
	}
	var b bytes.Buffer
	if err := sim.EncodeResult(&b, r); err != nil {
		return nil
	}
	return b.Bytes()
}
