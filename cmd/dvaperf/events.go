package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"decvec"
	"decvec/internal/trace"
	"decvec/internal/workload"
)

// events is the events workload: the `dvasim -events` path. Each operation
// is one recorded run of a cell through RunSourceRecorded and its Trace
// Event Format rendering through WriteTraceEvents into a byte-counting
// writer. The cells are the six simulated programs on REF, DVA and BYP at
// the event latencies, visited one at a time, as `dvasim -events` runs
// them, in rounds that each cover every cell once in a seeded order, so
// that every run times the same cells. The recorder-on cores and the TEF
// encoder do the work.
type events struct {
	e     *env
	cells []eventCell
	order []int            // seeded visiting order of one round
	seen  map[int][2]int64 // cell -> event count and TEF bytes of its first visit
}

type eventCell struct {
	src   *trace.Slice
	name  string
	arch  string
	cfg   decvec.Config
	plain []byte // canonical encoding of the recorder-off result
}

// countWriter counts and discards what the TEF writer emits.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func runEvents(e *env) error {
	ev := &events{e: e, seen: map[int][2]int64{}}
	_, err := e.setup(func() (func(), error) { return nil, ev.prepare() })
	if err != nil {
		return err
	}
	return e.timed(func(d time.Duration) (*window, error) {
		return loop{
			tr: e.tr, clients: 1, round: len(ev.cells), log: e.log,
			op: func(ctx context.Context, i int) (int64, error) {
				return 1, ev.op(ctx, ev.order[i%len(ev.order)])
			},
		}.run(d), nil
	})
}

// prepare builds the cells with their recorder-off results and draws the
// round order.
func (ev *events) prepare() error {
	scale := ev.e.opt.size.scale
	if err := generateTraces(scale); err != nil {
		return err
	}
	ev.cells = ev.cells[:0]
	for _, p := range workload.Simulated() {
		for _, arch := range []string{"REF", "DVA", "BYP"} {
			for _, lat := range ev.e.opt.size.eventLats {
				c := eventCell{src: p.CachedTrace(scale), name: p.Name, arch: arch, cfg: decvec.DefaultConfig(lat)}
				res, err := decvec.RunSource(c.src, arch, c.cfg)
				if err != nil {
					return err
				}
				c.plain = encode(res)
				ev.cells = append(ev.cells, c)
			}
		}
	}
	ev.order = rand.New(rand.NewSource(ev.e.opt.seed)).Perm(len(ev.cells))
	return nil
}

// op records one cell and renders its events, checking that recording did
// not change the result and that the stream repeats on every visit.
func (ev *events) op(ctx context.Context, k int) error {
	c := &ev.cells[k]
	tr := ev.e.tr
	parent := spanFrom(ctx)
	s := tr.begin("core.recorded_run", parent)
	rec := decvec.NewRecorder()
	res, err := decvec.RunSourceRecorded(c.src, c.arch, c.cfg, rec)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("report.tef", parent)
	var w countWriter
	err = decvec.WriteTraceEvents(&w, res, rec)
	tr.end(s)
	if err != nil {
		return err
	}

	if !bytes.Equal(encode(res), c.plain) {
		err = fmt.Errorf("%s %s %s: recorded result differs from the recorder-off run", c.name, c.arch, c.cfg.String())
	}
	ev.e.rep.check("events: recorded result equals recorder-off result", err)
	if err != nil {
		return err
	}
	got := [2]int64{int64(rec.Len()), w.n}
	want, ok := ev.seen[k]
	if !ok {
		ev.seen[k], want = got, got
	}
	if got != want {
		err = fmt.Errorf("%s %s %s: %d events and %d TEF bytes, first visit %d and %d",
			c.name, c.arch, c.cfg.String(), got[0], got[1], want[0], want[1])
	}
	ev.e.rep.check("events: event stream repeats per cell", err)
	return err
}
