package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"decvec/internal/experiments"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/sweep"
	"decvec/internal/workload"
)

// sweepRows decodes a /v1/sweep reply: every cell answered exactly once
// without error, by a canonical payload, then the Done trailer. It returns
// the results by cell index, and the trailer.
func sweepRows(t *testing.T, body []byte) ([]*sim.Result, sweep.Row) {
	t.Helper()
	var (
		byIndex = map[int]*sim.Result{}
		done    *sweep.Row
	)
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var row sweep.Row
		if err := dec.Decode(&row); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		if done != nil {
			t.Fatalf("row after the Done trailer: %+v", row)
		}
		if row.Done {
			d := row
			done = &d
			continue
		}
		if row.Error != "" {
			t.Fatalf("cell %d errored: %s", row.I, row.Error)
		}
		if byIndex[row.I] != nil {
			t.Fatalf("cell %d answered twice", row.I)
		}
		res, err := sim.DecodeResult(bytes.NewReader(row.Result))
		if err != nil {
			t.Fatalf("cell %d: undecodable canonical payload: %v", row.I, err)
		}
		byIndex[row.I] = res
	}
	if done == nil {
		t.Fatal("stream ended without a Done trailer")
	}
	out := make([]*sim.Result, len(byIndex))
	for i := range out {
		if out[i] = byIndex[i]; out[i] == nil {
			t.Fatalf("cell %d never answered (%d rows)", i, len(byIndex))
		}
	}
	return out, *done
}

// Explicit cells are the dvasweep shard protocol: arbitrary cell lists,
// not rectangles. Row i answers cell i, whatever order the rows arrive in.
func TestSweepCellsMode(t *testing.T) {
	srv, ts := testServer(t, Config{})
	cells := []sweep.WireCell{
		{Program: "BDNA", RunParams: experiments.RunParams{Arch: "DVA", Latency: 1}},
		{Program: "OCEAN", RunParams: experiments.RunParams{Arch: "REF", Latency: 50}},
		{Program: "BDNA", RunParams: experiments.RunParams{Arch: "BYP", Latency: 100, LoadQ: 8}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", sweep.Request{Cells: cells})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cells sweep: %s (%s)", resp.Status, body)
	}
	rows, _ := sweepRows(t, body)
	if len(rows) != len(cells) {
		t.Fatalf("got %d rows, want %d", len(rows), len(cells))
	}
	// Each cell at its exact config is already in the suite's memory tier,
	// so rerunning it simulates nothing and must return its row's result.
	before := srv.Suite().Simulations()
	for i, c := range cells {
		p, err := workload.Get(c.Program)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := c.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := srv.Suite().RunCtx(context.Background(), p, spec)
		if err != nil {
			t.Fatal(err)
		}
		if rows[i].Cycles != want.Cycles || rows[i].Arch != want.Arch {
			t.Errorf("row %d = %s %d cycles, want cell %+v: %s %d cycles", i, rows[i].Arch, rows[i].Cycles, c, want.Arch, want.Cycles)
		}
	}
	if n := srv.Suite().Simulations() - before; n != 0 {
		t.Errorf("%d cells were not the cells the sweep ran", n)
	}
}

// A bad cell must name its position so a coordinator can log which shard
// member was malformed.
func TestSweepCellValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", sweep.Request{
		Cells: []sweep.WireCell{
			{Program: "BDNA", RunParams: experiments.RunParams{Arch: "DVA", Latency: 1}},
			{Program: "NOSUCH", RunParams: experiments.RunParams{Arch: "DVA", Latency: 1}},
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid cell: %s, want 400", resp.Status)
	}
	if !strings.Contains(string(body), "cell 1") {
		t.Errorf("error does not name the offending cell: %s", body)
	}
	// A negative queue size is refused, not run at the default size.
	resp, body = postJSON(t, ts.URL+"/v1/sweep", sweep.Request{
		Cells: []sweep.WireCell{{Program: "BDNA", RunParams: experiments.RunParams{Arch: "DVA", Latency: 1, LoadQ: -1}}},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cell 0") {
		t.Errorf("negative load queue: %s (%s), want 400 naming cell 0", resp.Status, body)
	}
}

// A cell carries every RunParams knob: each row's payload is the canonical
// encoding of the run RunParams.Resolve names for the same knobs, so an
// iq, jitter or bypass the worker dropped would answer with a default run's
// bytes. A knob dvad cannot run is refused with 400 before any simulation.
func TestSweepHonoursEveryKnob(t *testing.T) {
	srv, ts := testServer(t, Config{})
	knob := func(edit func(*experiments.RunParams)) sweep.WireCell {
		c := sweep.WireCell{Program: "BDNA", RunParams: experiments.RunParams{Arch: "DVA", Latency: 20}}
		edit(&c.RunParams)
		return c
	}
	for _, bad := range []sweep.WireCell{
		knob(func(p *experiments.RunParams) { p.IQ = 1 }),
		knob(func(p *experiments.RunParams) { p.IQ = -1 }),
		knob(func(p *experiments.RunParams) { p.Jitter = -1 }),
	} {
		resp, body := postJSON(t, ts.URL+"/v1/sweep", sweep.Request{Cells: []sweep.WireCell{bad}})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cell 0") {
			t.Errorf("cell %+v: %s (%s), want 400 naming cell 0", bad.RunParams, resp.Status, body)
		}
	}
	if n := srv.Suite().Simulations(); n != 0 {
		t.Fatalf("refused cells ran %d simulations", n)
	}

	cells := []sweep.WireCell{
		knob(func(p *experiments.RunParams) { p.IQ = 4 }),
		knob(func(p *experiments.RunParams) { p.Jitter = 7 }),
		knob(func(p *experiments.RunParams) { p.Bypass = true }),
		knob(func(p *experiments.RunParams) { p.Arch, p.Bypass = "REF", true }),
		knob(func(p *experiments.RunParams) { p.LoadQ, p.StoreQ, p.IQ, p.Jitter = 4, 8, 3, 2 }),
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", sweep.Request{Cells: cells})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("knob sweep: %s (%s)", resp.Status, body)
	}
	rows, _ := sweepRows(t, body)
	ref := experiments.NewSuite(srv.cfg.Scale)
	p, err := workload.Get("BDNA")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		spec, err := c.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RunCtx(context.Background(), p, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sim.AppendResult(nil, rows[i]), sim.AppendResult(nil, want)) {
			t.Errorf("cell %d %+v: payload differs from the run Resolve names", i, c.RunParams)
		}
		// Each knob must show in the payload, or dropping it would pass.
		spec, err = experiments.RunParams{Arch: c.Arch, Latency: c.Latency}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		plain, err := ref.RunCtx(context.Background(), p, spec)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(sim.AppendResult(nil, plain), sim.AppendResult(nil, want)) {
			t.Errorf("cell %d %+v: the knobs leave the payload unchanged", i, c.RunParams)
		}
	}
}

// MaxSweepPoints caps the cells of one request; one over the cap is refused
// with 400, naming the count, before anything runs.
func TestSweepCellsCap(t *testing.T) {
	srv, ts := testServer(t, Config{MaxSweepPoints: 2})
	cells := make([]sweep.WireCell, 3)
	for i := range cells {
		cells[i] = sweep.WireCell{Program: "BDNA", RunParams: experiments.RunParams{Arch: "DVA", Latency: int64(i + 1)}}
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", sweep.Request{Cells: cells})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "3 cells") {
		t.Fatalf("over-cap cells: %s (%s), want 400 naming 3 cells", resp.Status, body)
	}
	if n := srv.Suite().Simulations(); n != 0 {
		t.Errorf("Simulations() = %d, want 0", n)
	}
	resp, body = postJSON(t, ts.URL+"/v1/sweep", sweep.Request{Cells: cells[:2]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cells at the cap: %s (%s), want 200", resp.Status, body)
	}
}

// The reply is NDJSON: one row per cell in completion order, each carrying
// the canonical binary result, then a Done trailer with the worker store's
// cache counters.
func TestSweepStreaming(t *testing.T) {
	store, err := simcache.Open(t.TempDir(), simcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Config{Store: store})
	cells := []sweep.WireCell{
		{Program: "BDNA", RunParams: experiments.RunParams{Arch: "DVA", Latency: 1}},
		{Program: "BDNA", RunParams: experiments.RunParams{Arch: "REF", Latency: 1}},
		{Program: "BDNA", RunParams: experiments.RunParams{Arch: "DVA", Latency: 50}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", sweep.Request{Cells: cells})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming sweep: %s (%s)", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q, want application/x-ndjson", ct)
	}
	rows, done := sweepRows(t, body)
	if len(rows) != len(cells) {
		t.Fatalf("stream answered %d of %d cells", len(rows), len(cells))
	}
	for i, res := range rows {
		if res.Cycles <= 0 {
			t.Errorf("cell %d: implausible result: %+v", i, res)
		}
	}
	if st := store.Stats(); done.CacheHits != st.Hits || done.CacheMisses != st.Misses || st.Misses != int64(len(cells)) {
		t.Errorf("trailer %d hits, %d misses; store says %d, %d, want 0, %d", done.CacheHits, done.CacheMisses, st.Hits, st.Misses, len(cells))
	}
}

// A successful row is appended by hand; its bytes must be what json.Encoder
// writes for the same Row, for REF and DVA payloads and for indices of one
// to four digits up to the largest a request may carry.
func TestAppendResultRowMatchesEncodingJSON(t *testing.T) {
	suite := experiments.NewSuite(0.05)
	p, err := workload.Get("BDNA")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, arch := range []experiments.Arch{experiments.REF, experiments.DVA} {
		spec := experiments.RunSpec{Arch: arch, Cfg: sim.DefaultConfig(50)}
		payload, err := suite.RunBytesCtx(ctx, p, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := suite.RunCtx(ctx, p, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, sim.AppendResult(nil, res)) {
			t.Fatalf("%s: RunBytesCtx differs from the encoding of RunCtx's result", arch)
		}
		for _, i := range []int{0, 9, 10, 127, Config{}.withDefaults().MaxSweepPoints - 1} {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(sweep.Row{I: i, Result: payload}); err != nil {
				t.Fatal(err)
			}
			prefix := []byte("previous line\n")
			got := sweep.AppendResultRow(prefix, i, payload)
			if !bytes.Equal(got[:len(prefix)], []byte("previous line\n")) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
				t.Errorf("%s row %d:\n got %q\nwant %q", arch, i, got[len(prefix):], want.Bytes())
			}
		}
	}
}

// A warm sweep cell is a disk read and a write to the socket: a worker
// restarted on a filled store answers from the stored payloads without
// decoding or re-encoding them. Here a warm cell costs 16 allocations and
// about 4.6 KiB, most of it the file read and the recorded reply; a worker
// that decodes each payload pays 4 allocations and 1.9 KiB more, and
// json.Encoder's row one allocation and a base64 copy of the payload, so
// the budgets fail if either comes back.
func TestWarmSweepCellBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p, err := workload.Get("BDNA")
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	cells := make([]sweep.WireCell, n)
	for i := range cells {
		cells[i] = sweep.WireCell{Program: p.Name, RunParams: experiments.RunParams{Arch: "DVA", Latency: int64(i + 1)}}
	}
	body, err := json.Marshal(sweep.Request{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var sims int64
	serve := func() (rows []byte, allocs, alloc uint64) {
		store, err := simcache.Open(dir, simcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Scale: 0.05, Store: store, MaxConcurrent: 1})
		defer srv.Shutdown(context.Background())
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		sims = srv.Suite().Simulations()
		return rec.Body.Bytes(), after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	p.CachedTraceHash(0.05) // keep trace generation out of the measurement
	cold, _, _ := serve()
	warm, allocs, total := serve()
	rows, done := sweepRows(t, warm)
	if sims != 0 || done.CacheHits != n || done.CacheMisses != 0 {
		t.Fatalf("warm pass: %d simulations, %d hits, %d misses; want 0, %d, 0", sims, done.CacheHits, done.CacheMisses, n)
	}
	coldRows, _ := sweepRows(t, cold)
	for i := range rows {
		if !bytes.Equal(sim.AppendResult(nil, rows[i]), sim.AppendResult(nil, coldRows[i])) {
			t.Errorf("cell %d: warm result differs from cold", i)
		}
	}
	perCell, perCellB := float64(allocs)/n, float64(total)/n
	t.Logf("warm chunk of %d DVA cells: %.1f allocs, %.0f B per cell", n, perCell, perCellB)
	if perCell > 17 || perCellB > 5.5*1024 {
		t.Errorf("a warm cell costs %.1f allocs and %.0f B, want at most 17 and 5632: is the worker decoding or re-encoding stored payloads?", perCell, perCellB)
	}
}
