package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"decvec"
	"decvec/internal/report"
	"decvec/internal/server"
	"decvec/internal/workload"
)

// serveMix is the serve-mix workload: an in-process dvad on loopback under
// the traffic of bench/loadtest.sh, the repository's load test of the
// daemon. A round sends, for every simulated program on REF, DVA and BYP in
// a seeded order, cmd/dvadload's two storms: stormSize identical requests
// at L=50, which the daemon must coalesce into one simulation, then
// stormSize requests walking dvadload -mix's latencies 1, 10, 20, ..., 100.
// Two clients, each on its own connection, send them in a closed loop, as
// dvadload's workers do (dvadload runs 100 workers; the benchmark holds one
// connection per core). The daemon restarts on an empty store before every
// round, so every round simulates the same configurations once each and
// answers every other request from its memory tier or by coalescing: HTTP,
// JSON and the memory tier set the median, the simulations the rest.
type serveMix struct {
	e      *env
	d      *daemon
	dir    int       // number of the daemon's store directory
	used   bool      // the daemon has served a round
	reqs   []request // one round, in order
	bodies map[request][]byte
	sims   int64 // distinct configurations of a round
	sample *reservoir
	stats  *http.Client
	before report.ServerMetric // the daemon's counters before the round
	// counters summed over the rounds of the latest window
	served, coalesced, simulate, overloaded, writes, hits, misses int64
}

// request is one /v1/simulate request as dvadload sends it.
type request struct {
	prog, arch string
	lat        int64
}

// walkLatency is the latency of dvadload -mix's i-th request: the paper's
// sweep 1, 10, 20, ..., 100.
func walkLatency(i int) int64 {
	lat := int64(1 + 10*(i%11))
	if lat > 1 {
		lat--
	}
	return lat
}

// serveRound lists one round's requests: both storms for every simulated
// program and architecture, the pairs in the seed's order.
func serveRound(seed int64, storm int) []request {
	var pairs []request
	for _, p := range workload.Simulated() {
		for _, arch := range []string{"REF", "DVA", "BYP"} {
			pairs = append(pairs, request{prog: p.Name, arch: arch})
		}
	}
	var reqs []request
	for _, k := range rand.New(rand.NewSource(seed)).Perm(len(pairs)) {
		p := pairs[k]
		for i := 0; i < storm; i++ {
			reqs = append(reqs, request{p.prog, p.arch, 50})
		}
		for i := 0; i < storm; i++ {
			reqs = append(reqs, request{p.prog, p.arch, walkLatency(i)})
		}
	}
	return reqs
}

func runServeMix(e *env) error {
	m := &serveMix{e: e, stats: &http.Client{Timeout: time.Minute}}
	cleanup, err := e.setup(func() (func(), error) { return m.stop, m.prepare() })
	if err != nil {
		return err
	}
	defer cleanup()
	err = e.timed(func(d time.Duration) (*window, error) {
		m.served, m.coalesced, m.simulate, m.overloaded, m.writes, m.hits, m.misses = 0, 0, 0, 0, 0, 0, 0
		rt, base := transport(2, m.e.tr)
		defer base.CloseIdleConnections()
		client := &http.Client{Transport: rt}
		return loop{
			tr: e.tr, clients: 2, round: len(m.reqs), log: e.log,
			prep: m.restart,
			op: func(ctx context.Context, i int) (int64, error) {
				return 1, m.send(ctx, client, m.reqs[i%len(m.reqs)])
			},
			check: m.checkRound,
		}.run(d), nil
	})
	if err != nil {
		return err
	}
	m.checkSample()
	if e.opt.trace {
		m.layers()
	}
	return nil
}

// prepare generates the traces, lists the round's requests with their
// bodies, and starts a daemon on an empty store.
func (m *serveMix) prepare() error {
	sz := m.e.opt.size
	if err := generateTraces(sz.scale); err != nil {
		return err
	}
	m.reqs = serveRound(m.e.opt.seed, sz.stormSize)
	m.bodies = map[request][]byte{}
	for _, r := range m.reqs {
		if m.bodies[r] != nil {
			continue
		}
		b, err := json.Marshal(server.SimulateRequest{Program: r.prog, Arch: r.arch, Latency: r.lat})
		if err != nil {
			return err
		}
		m.bodies[r] = b
	}
	m.sims = int64(len(m.bodies))
	m.sample = &reservoir{r: rand.New(rand.NewSource(m.e.opt.seed + 2)), k: sz.serveSample}
	return m.start()
}

func (m *serveMix) start() error {
	m.dir++
	d, err := startDaemon(filepath.Join(m.e.tmp, fmt.Sprintf("serve-%d", m.dir)), m.e.opt.size.scale, m.e.tr)
	if err != nil {
		return err
	}
	m.d, m.used = d, false
	m.before, err = d.stats(m.stats)
	return err
}

// stop drains the daemon and removes its store.
func (m *serveMix) stop() {
	if m.d == nil {
		return
	}
	if err := m.d.stop(); err != nil {
		m.e.log("stopping dvad: %v", err)
	}
	if err := os.RemoveAll(filepath.Join(m.e.tmp, fmt.Sprintf("serve-%d", m.dir))); err != nil {
		m.e.log("removing the store: %v", err)
	}
	m.d = nil
}

// restart gives the next round a fresh daemon on an empty store; the one
// set-up started serves the first round.
func (m *serveMix) restart() error {
	if !m.used && m.d != nil {
		m.used = true
		return nil
	}
	m.stop()
	if err := m.start(); err != nil {
		return err
	}
	m.used = true
	return nil
}

// send posts one request and reads the whole reply. A reply other than 200
// is an error; a sampled reply is kept for the re-simulation check.
func (m *serveMix) send(ctx context.Context, c *http.Client, req request) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, m.d.url+"/v1/simulate", bytes.NewReader(m.bodies[req]))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(hreq)
	if err != nil {
		return err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %.200s", resp.Status, reply)
	}
	m.sample.offer(req, reply)
	return nil
}

// checkRound reads the daemon's /statsz deltas over the round: every
// request served, and every distinct configuration simulated exactly once,
// the coalescing contract dvadload -assert-coalesce checks.
func (m *serveMix) checkRound() error {
	a, err := m.d.stats(m.stats)
	if err != nil {
		return err
	}
	b := m.before
	served, sims := a.Served-b.Served, a.Simulations-b.Simulations
	m.served += served
	m.coalesced += a.Coalesced - b.Coalesced
	m.simulate += a.Simulate - b.Simulate
	m.overloaded += a.Overloaded - b.Overloaded
	m.writes += a.Cache.Writes - b.Cache.Writes
	m.hits += a.Cache.Hits - b.Cache.Hits
	m.misses += a.Cache.Misses - b.Cache.Misses
	if served != int64(len(m.reqs)) || sims != m.sims {
		err = fmt.Errorf("round served %d of %d requests with %d simulations, want %d", served, len(m.reqs), sims, m.sims)
	}
	m.e.rep.check("serve: every request served, every configuration simulated once", err)
	return err
}

// checkSample re-simulates the sampled replies in process and compares
// their cycle counts.
func (m *serveMix) checkSample() {
	scale := m.e.opt.size.scale
	for _, s := range m.sample.items {
		var got struct {
			Cycles int64 `json:"cycles"`
		}
		err := json.Unmarshal(s.reply, &got)
		if err == nil {
			var p *workload.Program
			if p, err = workload.Get(s.req.prog); err == nil {
				var res *decvec.Result
				res, err = decvec.RunSource(p.CachedTrace(scale), s.req.arch, decvec.DefaultConfig(s.req.lat))
				if err == nil && res.Cycles != got.Cycles {
					err = fmt.Errorf("%+v: served %d cycles, in-process simulation %d", s.req, got.Cycles, res.Cycles)
				}
			}
		}
		m.e.rep.check("serve: sampled replies match in-process simulation", err)
	}
}

func (m *serveMix) layers() {
	rep := m.e.rep
	if m.served > 0 {
		rep.set("server.coalesce_ratio", float64(m.coalesced)/float64(m.served), int(m.served))
	}
	if m.simulate > 0 {
		rep.set("server.shed_ratio", float64(m.overloaded)/float64(m.simulate), int(m.simulate))
		rep.set("simcache.writes", float64(m.writes)/float64(m.simulate), int(m.simulate))
	}
	if look := m.hits + m.misses; look > 0 {
		rep.set("simcache.hit_ratio", float64(m.hits)/float64(look), int(look))
	}
}

// reservoir keeps a uniform random sample of k replies.
type reservoir struct {
	mu    sync.Mutex
	r     *rand.Rand
	k     int
	n     int
	items []sampled
}

type sampled struct {
	req   request
	reply []byte
}

func (s *reservoir) offer(req request, reply []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if len(s.items) < s.k {
		s.items = append(s.items, sampled{req, reply})
	} else if j := s.r.Intn(s.n); j < s.k {
		s.items[j] = sampled{req, reply}
	}
}
