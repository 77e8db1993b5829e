package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"decvec/internal/experiments"
	"decvec/internal/sweep"
	"decvec/internal/workload"
)

// sweepJobs resolves a sweep request's cells into batch jobs, enforcing the
// cell cap first. A cell that does not resolve is named by its position, so
// a coordinator can log which shard member was malformed.
func (s *Server) sweepJobs(req *sweep.Request) ([]experiments.BatchJob, error) {
	if len(req.Cells) == 0 {
		return nil, errors.New(`"cells" must list at least one cell`)
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

// handleSweep answers a sweep: the cells drain through a bounded worker
// pool (the admission gate still meters the real simulator invocations
// underneath), each completion is written — and flushed — as one NDJSON row
// the moment it lands, and a Done trailer closes the stream. A cell's row
// carries the suite's canonical payload as it stands, the stored bytes on
// a disk hit, appended by hand; error rows and the trailer go through
// encoding/json. A timeout or
// client disconnect stops feeding new cells; rows already written stay
// valid, so a coordinator retries exactly the cells it never received.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req sweep.Request
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, err)
		return
	}
	jobs, err := s.sweepJobs(&req)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	s.sweepReqs.Add(1)
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	var mu sync.Mutex
	writeLine := func(line []byte) {
		mu.Lock()
		_, _ = w.Write(line)
		if fl != nil {
			fl.Flush()
		}
		mu.Unlock()
	}
	writeRow := func(row sweep.Row) {
		line, _ := json.Marshal(row)
		writeLine(append(line, '\n'))
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
			var line []byte // reused: writeLine is done with it when it returns
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain without running; the client retries these
				}
				payload, err := s.suite.RunBytesCtx(ctx, jobs[i].Program, jobs[i].RunSpec)
				if err != nil {
					writeRow(sweep.Row{I: i, Error: err.Error()})
					continue
				}
				line = sweep.AppendResultRow(line[:0], i, payload)
				writeLine(line)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	st := s.suite.CacheStats()
	writeRow(sweep.Row{
		I:           -1,
		Done:        true,
		Simulations: s.suite.Simulations(),
		CacheHits:   st.Hits,
		CacheMisses: st.Misses,
	})
	s.served.Add(1)
}
