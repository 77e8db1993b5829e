package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"decvec/internal/sim"
	"decvec/internal/sweep"
)

// Explicit cells are the dvasweep shard protocol: arbitrary cell lists,
// not rectangles, answered in the buffered form when streaming is off.
func TestSweepCellsMode(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Cells: []SweepCell{
			{Program: "BDNA", Arch: "DVA", Latency: 1},
			{Program: "OCEAN", Arch: "REF", Latency: 50},
			{Program: "BDNA", Arch: "BYP", Latency: 100},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cells sweep: %s (%s)", resp.Status, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(sr.Points))
	}
	if sr.Points[1].Program != "OCEAN" || sr.Points[1].Latency != 50 {
		t.Errorf("point order not preserved: %+v", sr.Points[1])
	}
}

// Cells and grid dimensions in one request would be ambiguous; reject.
func TestSweepCellsExclusiveWithGrid(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		GridSpec: sweep.GridSpec{Programs: []string{"BDNA"}},
		Cells:    []SweepCell{{Program: "BDNA", Arch: "DVA", Latency: 1}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed cells+grid: %s (%s), want 400", resp.Status, body)
	}
}

// A bad cell must name its position so a coordinator can log which shard
// member was malformed.
func TestSweepCellValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Cells: []SweepCell{
			{Program: "BDNA", Arch: "DVA", Latency: 1},
			{Program: "NOSUCH", Arch: "DVA", Latency: 1},
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid cell: %s, want 400", resp.Status)
	}
	if !strings.Contains(string(body), "cell 1") {
		t.Errorf("error does not name the offending cell: %s", body)
	}
}

// The explicit cell list honors the same point cap as grids.
func TestSweepCellsCap(t *testing.T) {
	_, ts := testServer(t, Config{MaxSweepPoints: 2})
	cells := make([]SweepCell, 3)
	for i := range cells {
		cells[i] = SweepCell{Program: "BDNA", Arch: "DVA", Latency: int64(i + 1)}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Cells: cells})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap cells: %s, want 400", resp.Status)
	}
}

// The grid cap must be computed from the request's dimension lengths
// before anything is expanded — empty dimensions counting at their
// default widths — so an oversized grid is rejected by arithmetic alone.
func TestSweepGridCapComputedFromDimensions(t *testing.T) {
	_, ts := testServer(t, Config{MaxSweepPoints: 4})
	// No explicit programs or archs: the defaults (6 programs × 2 archs)
	// must still count toward the product.
	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{GridSpec: sweep.GridSpec{Latencies: []int64{1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("default-dimension grid of 12 points under cap 4: %s, want 400", resp.Status)
	}
	if !strings.Contains(string(body), "12 points") {
		t.Errorf("rejection does not carry the computed count: %s", body)
	}
}

// A grid of 2^63 points wraps the point count negative, past the cap; it
// must be refused with 400 before anything is expanded or simulated,
// streamed or not. The 139 KB body once panicked the handler in makeslice.
func TestSweepGridOverflowRejected(t *testing.T) {
	srv, ts := testServer(t, Config{})
	var g sweep.GridSpec
	for i := 0; i < 1<<13; i++ {
		g.Programs = append(g.Programs, "BDNA")
		g.Archs = append(g.Archs, "REF")
		g.Latencies = append(g.Latencies, 1)
	}
	g.LoadQs = make([]int, 1<<12)
	g.StoreQs = make([]int, 1<<12)
	for _, stream := range []bool{false, true} {
		resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{GridSpec: g, Stream: stream})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("stream=%v: overflowing grid answered %s (%s), want 400", stream, resp.Status, body)
		}
	}
	if n := srv.Suite().Simulations(); n != 0 {
		t.Errorf("Simulations() = %d, want 0", n)
	}
}

// Grid mode runs on sweep.Plan, the expander dvasweep uses: points come back
// in plan.Cell(i) order under the plan's defaults, with BYP resolved to the
// bypassing DVA and the plan's validation. Negative loadqs/storeqs therefore
// answer 400 — NewPlan rejects them, where dvad's former grid expander
// silently fell back to the default queues.
func TestSweepGridMatchesPlanOrder(t *testing.T) {
	srv, ts := testServer(t, Config{MaxSweepPoints: 12})
	for _, tc := range []struct {
		spec sweep.GridSpec
		body any // the wire form, when it should be spelled out
	}{
		// Default programs and archs: 6 × 2 × 1 = 12 points, at the cap.
		{spec: sweep.GridSpec{Latencies: []int64{1}}},
		{
			spec: sweep.GridSpec{
				Programs: []string{"TRFD", "BDNA"}, Archs: []string{"byp", "REF"},
				Latencies: []int64{50}, LoadQs: []int{4, 0}, StoreQs: []int{8},
			},
			body: map[string]any{
				"programs": []string{"TRFD", "BDNA"}, "archs": []string{"byp", "REF"},
				"latencies": []int64{50}, "loadqs": []int{4, 0}, "storeqs": []int{8},
			},
		},
	} {
		plan, err := sweep.NewPlan(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		body := tc.body
		if body == nil {
			body = SweepRequest{GridSpec: tc.spec}
		}
		resp, raw := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("grid %+v: %s (%s)", tc.spec, resp.Status, raw)
		}
		var sr SweepResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Points) != plan.Points() {
			t.Fatalf("grid %+v: %d points, plan has %d", tc.spec, len(sr.Points), plan.Points())
		}
		for i, p := range sr.Points {
			c := plan.Cell(i)
			want := SweepPoint{
				Program: c.Program.Name, Arch: string(c.Arch), Latency: c.Cfg.MemLatency,
				LoadQ: c.Cfg.AVDQSize, StoreQ: c.Cfg.VADQSize, Cycles: p.Cycles, IPC: p.IPC,
			}
			if p != want || p.Cycles <= 0 {
				t.Errorf("grid %+v point %d = %+v, want plan cell %+v", tc.spec, i, p, want)
			}
		}
		// Every plan cell, at its exact config (bypass bit included), is
		// already in the suite's cache: the sweep ran these cells and no
		// others.
		before := srv.Suite().Simulations()
		for i := 0; i < plan.Points(); i++ {
			c := plan.Cell(i)
			if _, err := srv.Suite().RunCtx(context.Background(), c.Program, c.Job().RunSpec); err != nil {
				t.Fatal(err)
			}
		}
		if n := srv.Suite().Simulations() - before; n != 0 {
			t.Errorf("grid %+v: %d plan cells were not the cells the sweep ran", tc.spec, n)
		}
	}

	for _, spec := range []sweep.GridSpec{
		{Programs: []string{"BDNA"}, Latencies: []int64{1}, LoadQs: []int{-1}},
		{Programs: []string{"BDNA"}, Latencies: []int64{1}, StoreQs: []int{-4}},
	} {
		if resp, raw := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{GridSpec: spec}); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("negative queue grid %+v: %s (%s), want 400", spec, resp.Status, raw)
		}
	}

	_, capped := testServer(t, Config{MaxSweepPoints: 11})
	resp, raw := postJSON(t, capped.URL+"/v1/sweep", SweepRequest{GridSpec: sweep.GridSpec{Latencies: []int64{1}}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "12 points") {
		t.Errorf("12-point grid under cap 11: %s (%s), want 400 naming 12 points", resp.Status, raw)
	}
}

// The streaming mode answers NDJSON: one row per cell in completion
// order, each carrying the canonical binary result, then a Done trailer
// with the worker's cache counters.
func TestSweepStreaming(t *testing.T) {
	srv, ts := testServer(t, Config{})
	cells := []SweepCell{
		{Program: "BDNA", Arch: "DVA", Latency: 1},
		{Program: "BDNA", Arch: "REF", Latency: 1},
		{Program: "BDNA", Arch: "DVA", Latency: 50},
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Cells: cells, Stream: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming sweep: %s (%s)", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q, want application/x-ndjson", ct)
	}
	seen := map[int]bool{}
	var done *SweepRow
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var row SweepRow
		if err := dec.Decode(&row); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		if row.Done {
			d := row
			done = &d
			continue
		}
		if row.Error != "" {
			t.Fatalf("cell %d errored: %s", row.I, row.Error)
		}
		if seen[row.I] {
			t.Fatalf("cell %d answered twice", row.I)
		}
		seen[row.I] = true
		res, err := sim.DecodeResult(bytes.NewReader(row.Result))
		if err != nil {
			t.Fatalf("cell %d: undecodable canonical payload: %v", row.I, err)
		}
		if res.Cycles <= 0 {
			t.Errorf("cell %d: implausible result: %+v", row.I, res)
		}
	}
	if len(seen) != len(cells) {
		t.Fatalf("stream answered %d of %d cells", len(seen), len(cells))
	}
	if done == nil {
		t.Fatal("stream ended without a Done trailer")
	}
	if done.Simulations != srv.Suite().Simulations() {
		t.Errorf("trailer simulations = %d, suite says %d", done.Simulations, srv.Suite().Simulations())
	}
}
