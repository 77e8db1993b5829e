package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"decvec/internal/experiments"
	"decvec/internal/sweep"
	"decvec/internal/workload"
)

// checkSweep enforces the cell cap and checks that every cell resolves, so
// a bad request answers 400 before anything runs. A cell that does not
// resolve is named by its position, so a coordinator can log which shard
// member was malformed.
func (s *Server) checkSweep(req *sweep.Request) error {
	if len(req.Cells) == 0 {
		return errors.New(`"cells" must list at least one cell`)
	}
	if len(req.Cells) > s.cfg.MaxSweepPoints {
		return fmt.Errorf("sweep has %d cells, cap is %d", len(req.Cells), s.cfg.MaxSweepPoints)
	}
	for i := range req.Cells {
		if _, _, err := sweepCell(&req.Cells[i]); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return nil
}

// sweepCell resolves one cell to its program and run, through the
// RunParams.Resolve that /v1/simulate uses too.
func sweepCell(c *sweep.WireCell) (*workload.Program, experiments.RunSpec, error) {
	p, err := workload.Get(c.Program)
	if err != nil {
		return nil, experiments.RunSpec{}, err
	}
	spec, err := c.Resolve()
	return p, spec, err
}

// handleSweep answers a sweep: the cells drain through experiments.Parallel
// (the admission gate still meters the real simulator invocations
// underneath), each completion is written — and flushed — as one NDJSON row
// the moment it lands, and a Done trailer closes the stream. A cell's row
// carries the suite's canonical payload as it stands, the stored bytes on
// a disk hit, appended by hand into the one line buffer the write lock
// guards; error rows and the trailer go through json.Encoder. A timeout or
// client disconnect stops starting new cells; rows already written stay
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
	if err := s.checkSweep(&req); err != nil {
		s.badRequest(w, err)
		return
	}
	s.sweepReqs.Add(1)
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var (
		mu   sync.Mutex
		line []byte
	)
	// Every cell's outcome goes out as its row, so Parallel can only report
	// the context's end, and a cell it skipped is one the client retries.
	_ = experiments.Parallel(ctx, len(req.Cells), func(i int) error {
		// Resolving the checked cell again costs less than holding every
		// cell's RunSpec for the length of the request.
		p, spec, err := sweepCell(&req.Cells[i])
		var payload []byte
		if err == nil {
			payload, err = s.suite.RunBytesCtx(ctx, p, spec)
		}
		mu.Lock()
		defer mu.Unlock()
		// A failed write means the client is gone; it retries what it
		// never received.
		if err != nil {
			_ = enc.Encode(sweep.Row{I: i, Error: err.Error()})
		} else {
			line = sweep.AppendResultRow(line[:0], i, payload)
			_, _ = w.Write(line)
		}
		if fl != nil {
			fl.Flush()
		}
		return nil
	})

	st := s.suite.CacheStats()
	_ = enc.Encode(sweep.Row{I: -1, Done: true, CacheHits: st.Hits, CacheMisses: st.Misses})
	s.served.Add(1)
}
