package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decvec/internal/experiments"
	"decvec/internal/sim"
)

// wireStats is the /statsz slice the executor reads for its cache baseline.
type wireStats struct {
	Cache *struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

// retryError wraps a failure the executor may retry: transport errors,
// 429 overload, 5xx, broken or trailerless streams, worker-side timeouts.
// Anything else — a 4xx rejection, an undecodable result — is permanent.
type retryError struct{ err error }

func (e *retryError) Error() string { return e.err.Error() }
func (e *retryError) Unwrap() error { return e.err }

// RemoteOptions tune a remote executor; the zero value is production-ready.
type RemoteOptions struct {
	// Name overrides the stats/diagnostics name (default: the base URL).
	Name string
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Retries is how many times a retryable chunk failure is retried
	// before the worker is declared down (default 4).
	Retries int
	// Backoff is the first retry's delay; it doubles per retry
	// (default 100ms).
	Backoff time.Duration
	// TimeoutMs is the worker-side request timeout sent with every chunk;
	// the worker can lower but never raise its own. 0 keeps the worker
	// default.
	TimeoutMs int64
}

// Remote is the executor for one dvad worker. Every chunk, a single cell
// or a single-cell retry included, goes out as one /v1/sweep Request. Its
// rows carry the canonical binary result
// encoding, so a merge across workers is byte-identical to a local run,
// and its trailer carries the worker's cache counters.
//
// Failures retry with exponential backoff — the whole chunk after a 429,
// 5xx or transport error, only the cells not yet received after a
// mid-stream break (rows already flushed stay valid). When retries are
// exhausted the executor reports ErrWorkerDown and the coordinator
// re-shards the remainder.
type Remote struct {
	name      string
	base      string
	client    *http.Client
	retries   int
	backoff   time.Duration
	timeoutMs int64

	retried atomic.Int64

	// The worker's trailer counters are suite-lifetime absolutes; the
	// sweep-window delta needs a baseline, fetched from /statsz before the
	// first chunk (first trailer seen if the fetch fails).
	mu           sync.Mutex
	haveBase     bool
	baseHits     int64
	baseMisses   int64
	lastHits     int64
	lastMisses   int64
	haveCounters bool
}

// NewRemote returns an executor for the dvad worker at baseURL
// (e.g. "http://127.0.0.1:8077").
func NewRemote(baseURL string, opts RemoteOptions) *Remote {
	r := &Remote{
		name:      opts.Name,
		base:      strings.TrimRight(baseURL, "/"),
		client:    opts.Client,
		retries:   opts.Retries,
		backoff:   opts.Backoff,
		timeoutMs: opts.TimeoutMs,
	}
	if r.name == "" {
		r.name = r.base
	}
	if r.client == nil {
		r.client = http.DefaultClient
	}
	if r.retries <= 0 {
		r.retries = 4
	}
	if r.backoff <= 0 {
		r.backoff = 100 * time.Millisecond
	}
	return r
}

// Name implements Executor.
func (r *Remote) Name() string { return r.name }

// Stats implements Executor.
func (r *Remote) Stats() ExecutorStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ExecutorStats{Retries: r.retried.Load()}
	if r.haveBase && r.haveCounters {
		st.CacheHits = r.lastHits - r.baseHits
		st.CacheMisses = r.lastMisses - r.baseMisses
	}
	return st
}

// Run implements Executor.
func (r *Remote) Run(ctx context.Context, cells []Cell) ([]*sim.Result, error) {
	out := make([]*sim.Result, len(cells))
	if len(cells) == 0 {
		return out, nil
	}
	// A cell whose run has no wire form fails alone and is never posted:
	// sending the nearest run the wire can carry would answer it wrongly.
	var cellErrs []error
	wire := make([]WireCell, len(cells))
	pending := make([]int, 0, len(cells))
	for i, c := range cells {
		p, err := experiments.ParamsOf(c.RunSpec)
		if err != nil {
			cellErrs = append(cellErrs, fmt.Errorf("worker %s: cell %d (%s): %v", r.name, i, c.Program.Name, err))
			continue
		}
		wire[i] = WireCell{Program: c.Program.Name, RunParams: p}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return out, errors.Join(cellErrs...)
	}
	r.fetchBaseline(ctx)

	backoff := r.backoff
	for attempt := 0; ; attempt++ {
		still, err := r.post(ctx, cells, wire, pending, out, &cellErrs)
		if err == nil && len(still) == 0 {
			return out, errors.Join(cellErrs...)
		}
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		var re *retryError
		if err != nil && !errors.As(err, &re) {
			return out, err // permanent protocol failure
		}
		pending = still
		cause := err
		if cause == nil {
			cause = fmt.Errorf("%d cells never answered", len(pending))
		}
		if attempt >= r.retries {
			return out, fmt.Errorf("%w: %s after %d retries: %v", ErrWorkerDown, r.name, r.retries, cause)
		}
		r.retried.Add(1)
		if err := sleepCtx(ctx, backoff); err != nil {
			return out, err
		}
		backoff *= 2
	}
}

// post sends one chunk attempt covering cells[pending...], in their wire
// forms, fills out and cellErrs from the rows received, and returns the
// indices (into cells) still owed. A *retryError invites another attempt;
// other errors are final.
func (r *Remote) post(ctx context.Context, cells []Cell, wire []WireCell, pending []int, out []*sim.Result, cellErrs *[]error) ([]int, error) {
	wreq := Request{Cells: wire, TimeoutMs: r.timeoutMs}
	if len(pending) < len(wire) {
		wreq.Cells = make([]WireCell, len(pending))
		for k, pi := range pending {
			wreq.Cells[k] = wire[pi]
		}
	}
	body, err := json.Marshal(wreq)
	if err != nil {
		return pending, err
	}
	resp, err := r.do(ctx, "/v1/sweep", body)
	if err != nil {
		return pending, err
	}
	defer resp.Body.Close()

	filled := make([]bool, len(pending))
	doneSeen := false
	var broke error
	dec := json.NewDecoder(resp.Body)
	// One row serves the whole stream, its payload decoded into the same
	// buffer each time: DecodeResultBytes keeps nothing of its input.
	var row Row
	for {
		row = Row{Result: row.Result[:0]}
		if err := dec.Decode(&row); err != nil {
			if err != io.EOF {
				broke = err
			}
			break
		}
		if row.Done {
			doneSeen = true
			r.noteCounters(row.CacheHits, row.CacheMisses)
			continue
		}
		if row.I < 0 || row.I >= len(pending) {
			return unfilled(pending, filled), fmt.Errorf("worker %s: sweep row index %d out of range", r.name, row.I)
		}
		if filled[row.I] {
			return unfilled(pending, filled), fmt.Errorf("worker %s: sweep row index %d answered twice", r.name, row.I)
		}
		ci := pending[row.I]
		filled[row.I] = true
		if row.Error != "" {
			c := cells[ci]
			*cellErrs = append(*cellErrs, fmt.Errorf("worker %s: cell %d (%s %s): %s",
				r.name, ci, c.Program.Name, c.Cfg.Label(string(c.Arch)), row.Error))
			continue
		}
		res, err := sim.DecodeResultBytes(row.Result)
		if err != nil {
			return unfilled(pending, filled), fmt.Errorf("worker %s: cell %d: undecodable result: %v", r.name, ci, err)
		}
		out[ci] = res
	}
	still := unfilled(pending, filled)
	switch {
	case len(still) == 0:
		// Every row is in hand; the trailer carries only counters, so a
		// stream that broke or ended without it owes nothing.
		return nil, nil
	case broke != nil:
		// Mid-stream break: rows already decoded stay valid, only the
		// remainder is owed.
		return still, &retryError{fmt.Errorf("worker %s: sweep stream broke: %v", r.name, broke)}
	case !doneSeen:
		return still, &retryError{fmt.Errorf("worker %s: sweep stream ended without trailer", r.name)}
	default:
		// The trailer arrived but some cells never got rows: the worker's
		// request deadline passed and it drained them unrun. Retryable.
		return still, &retryError{fmt.Errorf("worker %s: %d cells timed out worker-side", r.name, len(still))}
	}
}

// do posts one JSON request and classifies the status: 200 passes the
// response through, 429 and 5xx are retryable, anything else is final.
func (r *Remote) do(ctx context.Context, path string, body []byte) (*http.Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(hreq)
	if err != nil {
		return nil, &retryError{fmt.Errorf("worker %s: %s: %v", r.name, path, err)}
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	serr := fmt.Errorf("worker %s: %s: %s: %s", r.name, path, resp.Status, bytes.TrimSpace(msg))
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		return nil, &retryError{serr}
	}
	return nil, serr
}

// fetchBaseline reads the worker's absolute cache counters once, before
// the first chunk, so Stats can report the sweep-window delta. A failed
// fetch falls back to the first trailer (a slight undercount, never an
// error — stats must not fail a sweep).
func (r *Remote) fetchBaseline(ctx context.Context) {
	r.mu.Lock()
	if r.haveBase {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/statsz", nil)
	if err != nil {
		return
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var st wireStats
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil || st.Cache == nil {
		return
	}
	r.mu.Lock()
	if !r.haveBase {
		r.haveBase = true
		r.baseHits = st.Cache.Hits
		r.baseMisses = st.Cache.Misses
	}
	r.mu.Unlock()
}

// noteCounters records a trailer's absolute worker counters. Concurrent
// chunks' trailers are read in any order and the counters only grow, so the
// largest seen is the latest.
func (r *Remote) noteCounters(hits, misses int64) {
	r.mu.Lock()
	if !r.haveBase {
		// No /statsz baseline: the first trailer becomes it, so the first
		// chunk's own hits are not counted. Better a small undercount than
		// another worker's history in our ratio.
		r.haveBase = true
		r.baseHits = hits
		r.baseMisses = misses
	}
	r.lastHits = max(r.lastHits, hits)
	r.lastMisses = max(r.lastMisses, misses)
	r.haveCounters = true
	r.mu.Unlock()
}

// unfilled maps the attempt-local filled mask back to cell indices.
func unfilled(pending []int, filled []bool) []int {
	var still []int
	for k, pi := range pending {
		if !filled[k] {
			still = append(still, pi)
		}
	}
	return still
}

// sleepCtx waits d or until the context ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
