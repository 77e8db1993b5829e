package report

import (
	"encoding/json"
	"fmt"

	"decvec/internal/sweep"
)

// SweepJSON renders the sweep summary as indented JSON.
func SweepJSON(st sweep.Stats) ([]byte, error) {
	return json.MarshalIndent(st, "", "  ")
}

// SweepTable renders the sweep summary as ASCII tables: one sweep-level
// row, then one row per worker with its cache-hit ratio — the number that
// tells you whether cache-affine sharding is landing cells on the workers
// that already hold them.
func SweepTable(st sweep.Stats) string {
	t := NewTable("dvasweep",
		"points", "completed", "resharded", "rounds", "workers")
	t.AddRowf(st.Points, st.Completed, st.Resharded, st.Rounds, len(st.Workers))
	out := t.String()

	wt := NewTable("workers",
		"worker", "cells", "hits", "misses", "hit%", "retries", "state")
	for _, w := range st.Workers {
		state := "ok"
		if w.Failed {
			state = "down"
		}
		wt.AddRowf(w.Name, w.Cells, w.CacheHits, w.CacheMisses,
			fmt.Sprintf("%.1f", 100*w.HitRatio), w.Retries, state)
	}
	return out + "\n" + wt.String()
}
