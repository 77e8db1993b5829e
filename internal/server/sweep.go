package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"decvec/internal/experiments"
	"decvec/internal/simcache"
	"decvec/internal/sweep"
	"decvec/internal/workload"
)

// SweepCell is one explicit cell of a /v1/sweep request: the dvasweep
// coordinator sends each worker the cells its shard owns, which need not
// form any rectangular grid.
type SweepCell struct {
	Program string `json:"program"`
	Arch    string `json:"arch"`
	Latency int64  `json:"latency"`
	LoadQ   int    `json:"loadq,omitempty"`
	StoreQ  int    `json:"storeq,omitempty"`
}

// SweepRow is one line of the /v1/sweep streaming (NDJSON) response. Rows
// arrive in completion order, one per requested cell, carrying either the
// canonical binary result encoding (the simcache payload format, so a
// distributed merge is byte-identical to a local run) or that cell's error.
// The final row has Done set and carries the worker's suite-lifetime
// simulation count and cache counters; a client that never sees it knows
// the stream broke and which cells (by index) are still owed.
type SweepRow struct {
	I      int    `json:"i"`
	Result []byte `json:"result,omitempty"` // canonical sim.EncodeResult payload
	Error  string `json:"error,omitempty"`

	Done        bool  `json:"done,omitempty"`
	Simulations int64 `json:"simulations,omitempty"`
	CacheHits   int64 `json:"cacheHits,omitempty"`
	CacheMisses int64 `json:"cacheMisses,omitempty"`
}

// sweepJobs expands a sweep request — explicit cells or a rectangular grid —
// into batch jobs, enforcing the point cap before any expansion. A grid
// compiles to a sweep.Plan, which counts its points from the dimension
// lengths alone, and its jobs come out in plan order.
func (s *Server) sweepJobs(req *SweepRequest) ([]experiments.BatchJob, error) {
	if len(req.Cells) > 0 {
		if len(req.Programs)+len(req.Archs)+len(req.Latencies)+len(req.LoadQs)+len(req.StoreQs) > 0 {
			return nil, errors.New(`"cells" is mutually exclusive with the grid dimensions`)
		}
		if len(req.Cells) > s.cfg.MaxSweepPoints {
			return nil, fmt.Errorf("sweep has %d cells, cap is %d", len(req.Cells), s.cfg.MaxSweepPoints)
		}
		jobs := make([]experiments.BatchJob, len(req.Cells))
		for i, c := range req.Cells {
			p, err := workload.Get(c.Program)
			if err != nil {
				return nil, fmt.Errorf("cell %d: %w", i, err)
			}
			sr := SimulateRequest{Arch: c.Arch, Latency: c.Latency, LoadQ: c.LoadQ, StoreQ: c.StoreQ}
			spec, err := sr.config()
			if err != nil {
				return nil, fmt.Errorf("cell %d: %w", i, err)
			}
			jobs[i] = experiments.BatchJob{Program: p, RunSpec: spec}
		}
		return jobs, nil
	}
	plan, err := sweep.NewPlan(req.GridSpec)
	if err != nil {
		return nil, err
	}
	if n := plan.Points(); n > s.cfg.MaxSweepPoints {
		return nil, fmt.Errorf("sweep grid has %d points, cap is %d", n, s.cfg.MaxSweepPoints)
	}
	jobs := make([]experiments.BatchJob, plan.Points())
	for i := range jobs {
		jobs[i] = plan.Cell(i).Job()
	}
	return jobs, nil
}

// streamSweep answers a streaming sweep: cells drain through a bounded
// worker pool (the admission gate still meters the real simulator
// invocations underneath), each completion is written — and flushed — as
// one NDJSON row the moment it lands, and a Done trailer closes the stream.
// A timeout or client disconnect stops feeding new cells; rows already
// written stay valid, so a coordinator retries exactly the cells it never
// received.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, req *SweepRequest, jobs []experiments.BatchJob) {
	s.sweepReqs.Add(1)
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	writeRow := func(row SweepRow) {
		mu.Lock()
		_ = enc.Encode(row)
		if fl != nil {
			fl.Flush()
		}
		mu.Unlock()
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain without running; the client retries these
				}
				res, err := s.suite.RunCtx(ctx, jobs[i].Program, jobs[i].RunSpec)
				if err != nil {
					writeRow(SweepRow{I: i, Error: err.Error()})
					continue
				}
				payload, err := simcache.EncodeResultBytes(res)
				if err != nil {
					writeRow(SweepRow{I: i, Error: err.Error()})
					continue
				}
				writeRow(SweepRow{I: i, Result: payload})
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	st := s.suite.CacheStats()
	writeRow(SweepRow{
		I:           -1,
		Done:        true,
		Simulations: s.suite.Simulations(),
		CacheHits:   st.Hits,
		CacheMisses: st.Misses,
	})
	s.served.Add(1)
}
