package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"decvec/internal/sim"
	"decvec/internal/sweep"
)

// FuzzRemoteStream serves the fuzz bytes as a worker's 200 reply to the
// first post of a 3-cell chunk, and an empty reply to the retry, so every
// result Remote.Run returns came from the fuzzed stream. Whatever the
// bytes, Run must return within its context bound without panicking, each
// result must equal the decode of the first row that named its cell, and
// every error must name the worker. testdata/fuzz/FuzzRemoteStream holds a
// valid stream, a trailerless one, a repeated and an out-of-range index, an
// error row, an undecodable result and a stream cut mid-row.
func FuzzRemoteStream(f *testing.F) {
	plan, err := sweep.NewPlan(sweep.GridSpec{Programs: []string{"BDNA"}, Archs: []string{"DVA"}, Latencies: []int64{1, 2, 3}})
	if err != nil {
		f.Fatal(err)
	}
	cells := []sweep.Cell{plan.Cell(0), plan.Cell(1), plan.Cell(2)}

	var mu sync.Mutex
	var body []byte
	var posts int
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		reply := body
		if posts++; posts > 1 {
			reply = nil
		}
		mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(reply)
	}))
	defer worker.Close()

	const name = "fuzz-worker"
	f.Fuzz(func(t *testing.T, stream []byte) {
		mu.Lock()
		body, posts = stream, 0
		mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rr := sweep.NewRemote(worker.URL, sweep.RemoteOptions{Name: name, Retries: 1, Backoff: time.Millisecond})
		out, err := rr.Run(ctx, cells)
		if ctx.Err() != nil {
			t.Fatalf("Run did not return within its context bound: %v", err)
		}
		if err != nil && !namesWorker(err, name) {
			t.Errorf("error does not name the worker: %v", err)
		}

		carried := firstRows(stream)
		for i, res := range out {
			if res == nil {
				continue
			}
			row, ok := carried[i]
			if !ok || row.Error != "" {
				t.Fatalf("cell %d: a result came back that no row carried", i)
			}
			want, err := sim.DecodeResultBytes(row.Result)
			if err != nil {
				t.Fatalf("cell %d: a result came back from an undecodable row: %v", i, err)
			}
			if !bytes.Equal(sim.AppendResult(nil, res), sim.AppendResult(nil, want)) {
				t.Fatalf("cell %d: result differs from the decode of its row", i)
			}
		}
	})
}

// firstRows decodes the stream as the executor reads it, up to its first
// undecodable line, and returns the first non-trailer row for each index.
func firstRows(stream []byte) map[int]sweep.Row {
	rows := make(map[int]sweep.Row)
	dec := json.NewDecoder(bytes.NewReader(stream))
	for {
		var row sweep.Row
		if dec.Decode(&row) != nil {
			return rows
		}
		if _, seen := rows[row.I]; !seen && !row.Done {
			rows[row.I] = row
		}
	}
}

// namesWorker reports whether err, or each error it joins, names the
// worker.
func namesWorker(err error, name string) bool {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range j.Unwrap() {
			if !namesWorker(e, name) {
				return false
			}
		}
		return true
	}
	return strings.Contains(err.Error(), "worker "+name)
}
