package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decvec/internal/experiments"
	"decvec/internal/sim"
	"decvec/internal/sweep"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Req, the ID of the operation's root span. A span's layer is its name
// up to the first '.' or '/': op, experiments, core, sweep, http, server or
// report.
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration // since the tracer's epoch; End < 0 while open
}

func (s span) dur() time.Duration { return s.End - s.Start }

func (s span) layer() string {
	if i := strings.IndexAny(s.Name, "./"); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// rootSpan names every operation's root span, whatever the workload.
const rootSpan = "op"

// spanRef names an open span to its children; the zero spanRef is no span.
type spanRef struct{ id, req int64 }

// tracer keeps spans in memory until the run ends. It records only while
// on, so the wrappers installed in set-up cost one atomic load in the
// untraced windows; a nil *tracer never records.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent; a zero parent makes a new root.
func (t *tracer) begin(name string, parent spanRef) spanRef {
	if t == nil || !t.on.Load() {
		return spanRef{}
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	req := parent.req
	if req == 0 {
		req = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Req: req, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return spanRef{id, req}
}

// end closes a span opened by begin.
func (t *tracer) end(s spanRef) {
	if s.id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[s.id-1].End = now
	t.mu.Unlock()
}

// closed returns the spans recorded so far.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type spanKey struct{}

func withSpan(ctx context.Context, s spanRef) context.Context {
	if s.id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) spanRef {
	s, _ := ctx.Value(spanKey{}).(spanRef)
	return s
}

// validateSpans checks that every span is closed and that its parent exists
// and encloses it.
func validateSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s): parent %d missing", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%v,%v] escapes parent %d (%s) [%v,%v]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// writeSpans writes the spans as a Trace Event Format file, one row per
// operation.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = encodeSpans(bw, spans)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func encodeSpans(w io.Writer, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Req,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]int64{"id": s.ID, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
}

// covered returns how much of [lo, hi) the spans cover, counting overlaps
// once.
func covered(lo, hi time.Duration, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	return total + curB - curA
}

// layerShares returns, for every layer, the sum of its spans' self times as
// a percentage of the operations' total time, and the number of operations.
// A span's self time is its duration minus the part its direct children
// cover. Concurrent spans of one layer each count, so shares may sum to more
// than 100 when a layer runs on several cores at once.
func layerShares(spans []span) (map[string]float64, int) {
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var total time.Duration
	ops := 0
	self := map[string]time.Duration{}
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.dur()
			ops++
		}
		self[s.layer()] += s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	shares := map[string]float64{}
	if total > 0 {
		for l, d := range self {
			shares[l] = 100 * float64(d) / float64(total)
		}
	}
	return shares, ops
}

// countPerOp returns how many spans of the layer each operation has.
func countPerOp(spans []span, layer string) float64 {
	n, ops := 0, 0
	for _, s := range spans {
		if s.Parent == 0 {
			ops++
		}
		if s.layer() == layer {
			n++
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

// The wrappers below put spans at the layer boundaries the benchmark can
// reach from outside the program: the suite's admission gate, the sweep
// executor, and both ends of every HTTP exchange.

// tracedGate records every real simulation as a core.sim span, from Acquire
// to release, under the span carried by the context.
type tracedGate struct {
	t     *tracer
	inner experiments.Gate // nil for an ungated suite
}

func (g tracedGate) Acquire(ctx context.Context) (func(), error) {
	s := g.t.begin("core.sim", spanFrom(ctx))
	release, err := func() {}, ctx.Err()
	if g.inner != nil {
		release, err = g.inner.Acquire(ctx)
	}
	if err != nil {
		g.t.end(s)
		return nil, err
	}
	return func() {
		release()
		g.t.end(s)
	}, nil
}

// tracedExec records every sweep chunk as a sweep.chunk span.
type tracedExec struct {
	sweep.Executor
	t *tracer
}

func (e tracedExec) Run(ctx context.Context, cells []sweep.Cell) ([]*sim.Result, error) {
	s := e.t.begin("sweep.chunk", spanFrom(ctx))
	defer e.t.end(s)
	return e.Executor.Run(withSpan(ctx, s), cells)
}

// spanHeader carries the client span to the server as "<id>.<req>".
const spanHeader = "X-Dvaperf-Span"

// tracedTransport records every request as an http.client span, from the
// round trip's start until the response body is closed, and tells the
// server which span it belongs to.
type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	s := tt.t.begin("http.client", spanFrom(r.Context()))
	if s.id == 0 {
		return tt.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, fmt.Sprintf("%d.%d", s.id, s.req))
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.end(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tt.t.end(s) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedHandler records every request the server handles as a
// "server<path>" span under the client span named by spanHeader.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent spanRef
		if id, req, ok := strings.Cut(r.Header.Get(spanHeader), "."); ok {
			parent.id, _ = strconv.ParseInt(id, 10, 64)
			parent.req, _ = strconv.ParseInt(req, 10, 64)
		}
		if parent.id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		s := t.begin("server"+r.URL.Path, parent)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s)))
		t.end(s)
	})
}
